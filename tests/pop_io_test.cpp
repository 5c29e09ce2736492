#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "chisimnet/pop/io.hpp"
#include "chisimnet/pop/population.hpp"
#include "chisimnet/pop/schedule.hpp"
#include "support.hpp"

namespace chisimnet::pop {
namespace {

class PopIoTest : public ::testing::Test {
 protected:
  testsupport::ScratchDir scratch_{"chisimnet_pop_io"};
  const std::filesystem::path& dir_ = scratch_.path();
};

PopulationConfig smallConfig() {
  PopulationConfig config;
  config.personCount = 3000;
  config.seed = 555;
  return config;
}

TEST_F(PopIoTest, RoundTripPreservesPersonsAndPlaces) {
  const auto original = SyntheticPopulation::generate(smallConfig());
  savePopulation(original, dir_);
  const auto loaded = loadPopulation(dir_);

  ASSERT_EQ(loaded.persons().size(), original.persons().size());
  ASSERT_EQ(loaded.places().size(), original.places().size());
  EXPECT_EQ(loaded.neighborhoodCount(), original.neighborhoodCount());

  for (std::size_t i = 0; i < original.persons().size(); ++i) {
    const Person& a = original.persons()[i];
    const Person& b = loaded.persons()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.age, b.age);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.neighborhood, b.neighborhood);
    EXPECT_EQ(a.home, b.home);
    EXPECT_EQ(a.classroom, b.classroom);
    EXPECT_EQ(a.schoolCommon, b.schoolCommon);
    EXPECT_EQ(a.workplace, b.workplace);
    EXPECT_EQ(a.university, b.university);
    EXPECT_EQ(a.institution, b.institution);
  }
  for (std::size_t i = 0; i < original.places().size(); ++i) {
    const Place& a = original.places()[i];
    const Place& b = loaded.places()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.neighborhood, b.neighborhood);
    EXPECT_EQ(a.capacity, b.capacity);
  }
}

TEST_F(PopIoTest, DerivedIndexesMatchAfterLoad) {
  const auto original = SyntheticPopulation::generate(smallConfig());
  savePopulation(original, dir_);
  const auto loaded = loadPopulation(dir_);

  ASSERT_EQ(loaded.hospitals().size(), original.hospitals().size());
  for (std::uint32_t hood = 0; hood < original.neighborhoodCount(); ++hood) {
    const NeighborhoodVenues& a = original.venues(hood);
    const NeighborhoodVenues& b = loaded.venues(hood);
    EXPECT_EQ(std::vector<PlaceId>(a.shops.begin(), a.shops.end()),
              std::vector<PlaceId>(b.shops.begin(), b.shops.end()));
    ASSERT_EQ(a.shopWeights.size(), b.shopWeights.size());
    for (std::size_t i = 0; i < a.shopWeights.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.shopWeights[i], b.shopWeights[i]);
    }
    EXPECT_EQ(std::vector<PlaceId>(a.leisure.begin(), a.leisure.end()),
              std::vector<PlaceId>(b.leisure.begin(), b.leisure.end()));
    EXPECT_EQ(
        std::vector<PlaceId>(original.households(hood).begin(),
                             original.households(hood).end()),
        std::vector<PlaceId>(loaded.households(hood).begin(),
                             loaded.households(hood).end()));
  }
}

TEST_F(PopIoTest, SchedulesIdenticalFromLoadedPopulation) {
  // The whole point of the round trip: simulations driven from files equal
  // simulations driven from the in-memory generator.
  const auto original = SyntheticPopulation::generate(smallConfig());
  savePopulation(original, dir_);
  const auto loaded = loadPopulation(dir_);

  const ScheduleGenerator a(original, 42);
  const ScheduleGenerator b(loaded, 42);
  for (PersonId person = 0; person < 200; ++person) {
    EXPECT_EQ(a.weeklySchedule(person, 0), b.weeklySchedule(person, 0))
        << "person " << person;
  }
}

TEST_F(PopIoTest, FileInventoryReported) {
  const auto population = SyntheticPopulation::generate(smallConfig());
  savePopulation(population, dir_);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "persons.tsv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "places.tsv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "activities.tsv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "config.tsv"));
  EXPECT_GT(populationFileBytes(dir_), 10000u);
}

TEST_F(PopIoTest, ActivitiesFileListsVocabulary) {
  const auto population = SyntheticPopulation::generate(smallConfig());
  savePopulation(population, dir_);
  std::ifstream in(dir_ / "activities.tsv");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("school-lunch"), std::string::npos);
  EXPECT_NE(content.find("visit"), std::string::npos);
}

TEST_F(PopIoTest, MissingDirectoryRejected) {
  EXPECT_THROW(loadPopulation(dir_ / "nope"), std::runtime_error);
}

TEST_F(PopIoTest, CorruptPersonRowRejected) {
  const auto population = SyntheticPopulation::generate(smallConfig());
  savePopulation(population, dir_);
  {
    std::ofstream out(dir_ / "persons.tsv", std::ios::app);
    out << "99999\tnot_an_age\t0\t0\t-\t-\t-\t-\t-\n";
  }
  EXPECT_THROW(loadPopulation(dir_), std::runtime_error);
}

TEST_F(PopIoTest, DanglingPlaceReferenceRejected) {
  const auto population = SyntheticPopulation::generate(smallConfig());
  savePopulation(population, dir_);
  // Rewrite persons.tsv with one home id beyond the place table.
  std::vector<std::string> lines;
  {
    std::ifstream in(dir_ / "persons.tsv");
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  {
    const auto fields = lines[1];
    std::ofstream out(dir_ / "persons.tsv", std::ios::trunc);
    out << lines[0] << "\n";
    // Replace the home field (4th) of the first person with a huge id.
    std::string mutated = lines[1];
    std::size_t tab = 0;
    for (int i = 0; i < 3; ++i) {
      tab = mutated.find('\t', tab) + 1;
    }
    const std::size_t end = mutated.find('\t', tab);
    mutated.replace(tab, end - tab, "123456789");
    out << mutated << "\n";
    for (std::size_t i = 2; i < lines.size(); ++i) {
      out << lines[i] << "\n";
    }
  }
  EXPECT_THROW(loadPopulation(dir_), std::invalid_argument);
}

TEST(PopFromParts, RejectsInconsistentAgeGroup) {
  auto population = SyntheticPopulation::generate([] {
    PopulationConfig config;
    config.personCount = 1000;
    return config;
  }());
  std::vector<Person> persons(population.persons().begin(),
                              population.persons().end());
  std::vector<Place> places(population.places().begin(),
                            population.places().end());
  persons[0].group = persons[0].age < 30 ? AgeGroup::kSenior65plus
                                         : AgeGroup::kChild0to14;
  EXPECT_THROW(SyntheticPopulation::fromParts(population.config(),
                                              std::move(persons),
                                              std::move(places)),
               std::invalid_argument);
}

}  // namespace
}  // namespace chisimnet::pop
