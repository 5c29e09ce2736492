#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "chisimnet/abm/disease.hpp"
#include "chisimnet/abm/model.hpp"
#include "chisimnet/elog/extended.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

namespace chisimnet::abm {
namespace {

using elog::ExtendedEvent;
using elog::ExtendedLogReader;
using elog::ExtendedLogWriter;

class ExtendedLogTest : public ::testing::Test {
 protected:
  testsupport::ScratchDir scratch_{"chisimnet_clx5"};
  const std::filesystem::path& dir_ = scratch_.path();
};

std::vector<ExtendedEvent> randomExtended(std::uint64_t seed, std::size_t count,
                                          std::uint32_t extras) {
  util::Rng rng(seed);
  std::vector<ExtendedEvent> entries;
  for (std::size_t i = 0; i < count; ++i) {
    ExtendedEvent entry;
    const auto start = static_cast<table::Hour>(rng.uniformBelow(168));
    entry.base = table::Event{
        start, start + 1 + static_cast<table::Hour>(rng.uniformBelow(5)),
        static_cast<table::PersonId>(rng.uniformBelow(1000)),
        static_cast<table::ActivityId>(rng.uniformBelow(10)),
        static_cast<table::PlaceId>(rng.uniformBelow(400))};
    for (std::uint32_t e = 0; e < extras; ++e) {
      entry.extras.push_back(static_cast<std::uint32_t>(rng.uniformBelow(100)));
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

TEST_F(ExtendedLogTest, RoundTripWithExtras) {
  const auto entries = randomExtended(1, 200, 2);
  {
    ExtendedLogWriter writer(dir_ / "a.clx5", 2);
    writer.writeChunk(entries);
    writer.close();
  }
  ExtendedLogReader reader(dir_ / "a.clx5");
  EXPECT_EQ(reader.extraColumns(), 2u);
  EXPECT_EQ(reader.totalEntries(), 200u);
  EXPECT_EQ(reader.readAll(), entries);
}

TEST_F(ExtendedLogTest, ZeroExtraColumnsWorks) {
  const auto entries = randomExtended(2, 50, 0);
  {
    ExtendedLogWriter writer(dir_ / "b.clx5", 0);
    writer.writeChunk(entries);
    writer.close();
  }
  ExtendedLogReader reader(dir_ / "b.clx5");
  EXPECT_EQ(reader.extraColumns(), 0u);
  EXPECT_EQ(reader.readAll(), entries);
}

TEST_F(ExtendedLogTest, MismatchedExtrasRejected) {
  ExtendedLogWriter writer(dir_ / "c.clx5", 2);
  const auto wrong = randomExtended(3, 5, 1);
  EXPECT_THROW(writer.writeChunk(wrong), std::invalid_argument);
}

TEST_F(ExtendedLogTest, WindowPushdownFilters) {
  std::vector<ExtendedEvent> early = randomExtended(4, 50, 1);
  for (auto& entry : early) {
    entry.base.start %= 40;
    entry.base.end = entry.base.start + 2;
  }
  std::vector<ExtendedEvent> late = randomExtended(5, 50, 1);
  for (auto& entry : late) {
    entry.base.start = 100 + entry.base.start % 40;
    entry.base.end = entry.base.start + 2;
  }
  {
    ExtendedLogWriter writer(dir_ / "d.clx5", 1);
    writer.writeChunk(early);
    writer.writeChunk(late);
    writer.close();
  }
  ExtendedLogReader reader(dir_ / "d.clx5");
  const auto hits = reader.readOverlapping(100, 200);
  EXPECT_EQ(hits.size(), late.size());
  for (const ExtendedEvent& entry : hits) {
    EXPECT_GE(entry.base.start, 100u);
  }
}

TEST_F(ExtendedLogTest, TruncationDetected) {
  {
    ExtendedLogWriter writer(dir_ / "e.clx5", 1);
    writer.writeChunk(randomExtended(6, 20, 1));
    writer.close();
  }
  const auto size = std::filesystem::file_size(dir_ / "e.clx5");
  std::filesystem::resize_file(dir_ / "e.clx5", size - 4);
  EXPECT_THROW(ExtendedLogReader{dir_ / "e.clx5"}, std::runtime_error);
}

TEST_F(ExtendedLogTest, InflatedFooterCountIsRejectedNamingTheFile) {
  // CLX5 shares CLG5's footer reader, so a footer count the file cannot
  // hold is refused before it sizes the chunk index.
  const std::filesystem::path path = dir_ / "f.clx5";
  {
    ExtendedLogWriter writer(path, 1);
    writer.writeChunk(randomExtended(7, 20, 1));
    writer.close();
  }
  {
    std::fstream stream(path, std::ios::binary | std::ios::in | std::ios::out);
    stream.seekg(12);  // header footerOffset slot
    const std::uint64_t footerOffset = util::readU64(stream);
    stream.seekp(static_cast<std::streamoff>(footerOffset));
    util::writeU64(stream, std::uint64_t{1} << 36);
  }
  try {
    ExtendedLogReader reader(path);
    FAIL() << "an inflated CLX5 footer count was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path.string()),
              std::string::npos)
        << error.what();
  }
}

// ---- in-model SEIR ---------------------------------------------------------

class DiseaseModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pop::PopulationConfig config;
    config.personCount = 3000;
    config.seed = 808;
    population_ =
        new pop::SyntheticPopulation(pop::SyntheticPopulation::generate(config));
  }
  static void TearDownTestSuite() {
    delete population_;
    population_ = nullptr;
  }

  DiseaseStats run(int ranks, double beta = 0.01, std::uint32_t weeks = 1) {
    std::filesystem::remove_all(dir_);
    ModelConfig config;
    config.logDirectory = dir_;
    config.rankCount = ranks;
    config.weeks = weeks;
    config.scheduleSeed = 321;
    DiseaseConfig disease;
    disease.beta = beta;
    disease.seedCount = 5;
    disease.seed = 777;
    DiseaseStats stats;
    runModel(*population_, config, disease, stats);
    return stats;
  }

  /// All CLX5 transitions across rank files, sorted canonically.
  std::vector<ExtendedEvent> loadTransitions() const {
    std::vector<ExtendedEvent> all;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() != ".clx5") {
        continue;
      }
      ExtendedLogReader reader(entry.path());
      auto chunk = reader.readAll();
      std::move(chunk.begin(), chunk.end(), std::back_inserter(all));
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.base != b.base) return a.base < b.base;
      return a.extras < b.extras;
    });
    return all;
  }

  static pop::SyntheticPopulation* population_;
  testsupport::ScratchDir scratch_{"chisimnet_disease"};
  const std::filesystem::path& dir_ = scratch_.path();
};

pop::SyntheticPopulation* DiseaseModelTest::population_ = nullptr;

TEST_F(DiseaseModelTest, EpidemicSpreadsAndIsAccounted) {
  const DiseaseStats stats = run(2);
  EXPECT_EQ(stats.seeded, 5u);
  EXPECT_GT(stats.infections, 10u);
  EXPECT_GT(stats.peakInfectious, 0u);
  EXPECT_EQ(stats.finalStates.size(), population_->persons().size());

  // Accounting: everyone not susceptible was seeded or infected.
  std::uint64_t touched = 0;
  for (std::uint8_t state : stats.finalStates) {
    touched += state != static_cast<std::uint8_t>(SeirState::kSusceptible);
  }
  EXPECT_EQ(touched, stats.seeded + stats.infections);
  EXPECT_GT(stats.attackRate(), 0.0);
  EXPECT_LE(stats.attackRate(), 1.0);
}

TEST_F(DiseaseModelTest, RealizationIndependentOfRankCount) {
  const DiseaseStats one = run(1);
  const auto transitionsOne = loadTransitions();
  const DiseaseStats four = run(4);
  const auto transitionsFour = loadTransitions();

  EXPECT_EQ(one.infections, four.infections);
  EXPECT_EQ(one.hourlyInfectious, four.hourlyInfectious);
  EXPECT_EQ(one.finalStates, four.finalStates);
  EXPECT_EQ(transitionsOne, transitionsFour);
}

TEST_F(DiseaseModelTest, HigherBetaInfectsMore) {
  const DiseaseStats mild = run(2, 0.001);
  const DiseaseStats severe = run(2, 0.05);
  EXPECT_GT(severe.infections, mild.infections);
}

TEST_F(DiseaseModelTest, ZeroBetaOnlySeedsProgress) {
  const DiseaseStats stats = run(2, 0.0, 2);
  EXPECT_EQ(stats.infections, 0u);
  EXPECT_EQ(stats.seeded, 5u);
  // Seeds recover after latent+infectious hours.
  EXPECT_EQ(stats.recovered, 5u);
  EXPECT_EQ(stats.peakInfectious, 5u);
}

TEST_F(DiseaseModelTest, TransitionLogSupportsExactContactTracing) {
  run(3);
  const auto transitions = loadTransitions();
  ASSERT_FALSE(transitions.empty());

  // Build the infection forest from the log.
  std::unordered_map<std::uint32_t, std::uint32_t> infectedBy;
  std::vector<std::uint32_t> seeds;
  for (const ExtendedEvent& entry : transitions) {
    const auto newState = static_cast<SeirState>(entry.extras[0]);
    if (newState == SeirState::kExposed) {
      ASSERT_NE(entry.extras[1], kNoInfector);
      infectedBy[entry.base.person] = entry.extras[1];
    } else if (newState == SeirState::kInfectious && entry.base.start == 0) {
      seeds.push_back(entry.base.person);
    }
  }
  EXPECT_EQ(seeds.size(), 5u);

  // Every case traces back to a seed in finitely many hops.
  std::size_t traced = 0;
  for (const auto& [person, infector] : infectedBy) {
    std::uint32_t cursor = person;
    int hops = 0;
    while (infectedBy.contains(cursor)) {
      cursor = infectedBy.at(cursor);
      ASSERT_LT(++hops, 10000) << "cycle in infection forest";
    }
    EXPECT_NE(std::find(seeds.begin(), seeds.end(), cursor), seeds.end())
        << "case " << person << " does not trace to a seed";
    ++traced;
  }
  EXPECT_GT(traced, 0u);
}

TEST_F(DiseaseModelTest, ProgressionTimingMatchesConfig) {
  run(2, 0.01, 2);
  const auto transitions = loadTransitions();
  // For each person, E at hour h must be followed by I at exactly h+latent.
  std::unordered_map<std::uint32_t, table::Hour> exposedAt;
  for (const ExtendedEvent& entry : transitions) {
    const auto newState = static_cast<SeirState>(entry.extras[0]);
    if (newState == SeirState::kExposed) {
      exposedAt[entry.base.person] = entry.base.start;
    } else if (newState == SeirState::kInfectious && entry.base.start != 0) {
      const auto it = exposedAt.find(entry.base.person);
      ASSERT_NE(it, exposedAt.end());
      EXPECT_EQ(entry.base.start - it->second, 24u);
    }
  }
}

}  // namespace
}  // namespace chisimnet::abm
