#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "chisimnet/abm/disease.hpp"
#include "chisimnet/abm/migration.hpp"
#include "chisimnet/abm/model.hpp"
#include "chisimnet/abm/place_partition.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/pop/schedule.hpp"
#include "hourly_oracle.hpp"
#include "support.hpp"

namespace chisimnet::abm {
namespace {

class AbmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pop::PopulationConfig config;
    config.personCount = 3000;
    config.seed = 2017;
    population_ =
        new pop::SyntheticPopulation(pop::SyntheticPopulation::generate(config));
  }
  static void TearDownTestSuite() {
    delete population_;
    population_ = nullptr;
  }

  ModelConfig modelConfig(int ranks, std::uint32_t weeks = 1) const {
    ModelConfig config;
    config.logDirectory = dir_;
    config.rankCount = ranks;
    config.weeks = weeks;
    config.scheduleSeed = 777;
    return config;
  }

  /// All logged events across rank files, canonically sorted.
  std::vector<table::Event> loadSorted() const {
    const auto files = elog::listLogFiles(dir_);
    std::vector<table::Event> events;
    for (const auto& file : files) {
      elog::ChunkedLogReader reader(file);
      const auto chunk = reader.readAll();
      events.insert(events.end(), chunk.begin(), chunk.end());
    }
    std::sort(events.begin(), events.end());
    return events;
  }

  /// Every regular file in `dir` (CLG5 and CLX5 alike), name -> raw bytes.
  static std::map<std::string, std::string> readRawFiles(
      const std::filesystem::path& dir) {
    std::map<std::string, std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      out[entry.path().filename().string()] = bytes.str();
    }
    return out;
  }

  static pop::SyntheticPopulation* population_;
  testsupport::ScratchDir scratch_{"chisimnet_abm"};
  const std::filesystem::path& dir_ = scratch_.path();
};

pop::SyntheticPopulation* AbmTest::population_ = nullptr;

TEST(MigrationBatchCodec, Cmb2BatchBytesArePinned) {
  // One batch with one migrant carrying a two-stint week: magic "CMB2",
  // hour, next-event hint, flags, migrant count, then per migrant its
  // cursor words and stint count followed by the 8-byte stint rows.
  MigrationBatch batch;
  batch.hour = 7;
  batch.nextEventHint = 9;
  batch.flags = kBatchFlagShutdown;
  MigrantRecord record;
  record.person = 42;
  record.weekIndex = 0;
  record.stintIndex = 1;
  record.stints.resize(2);
  record.stints[0].startHour = 0;
  record.stints[0].endHour = 8;
  record.stints[0].activity = 1;
  record.stints[0].place = 100;
  record.stints[1].startHour = 8;
  record.stints[1].endHour = 168;
  record.stints[1].activity = 2;
  record.stints[1].place = 200;
  batch.migrants.push_back(record);
  const std::vector<unsigned char> want{
      0x43, 0x4D, 0x42, 0x32, 0x07, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x08, 0x01, 0x00, 0x64, 0x00, 0x00, 0x00,
      0x08, 0xA8, 0x02, 0x00, 0xC8, 0x00, 0x00, 0x00};
  const std::vector<std::byte> bytes = encodeMigrationBatch(batch);
  ASSERT_EQ(bytes.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), want[i]) << "byte " << i;
  }
  const MigrationBatch back = decodeMigrationBatch(bytes, 7);
  EXPECT_EQ(back.nextEventHint, 9u);
  EXPECT_EQ(back.flags, kBatchFlagShutdown);
  ASSERT_EQ(back.migrants.size(), 1u);
  EXPECT_EQ(back.migrants[0].person, 42u);
  EXPECT_EQ(back.migrants[0].stintIndex, 1u);
  EXPECT_EQ(back.migrants[0].stints, record.stints);
  EXPECT_THROW(decodeMigrationBatch(bytes, 8), std::runtime_error);
}

TEST_F(AbmTest, PlacePartitionCoversAllPlaces) {
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kNeighborhood, PartitionStrategy::kRoundRobin}) {
    const auto placeRank = assignPlacesToRanks(*population_, 4, strategy);
    ASSERT_EQ(placeRank.size(), population_->places().size());
    for (int rank : placeRank) {
      EXPECT_GE(rank, 0);
      EXPECT_LT(rank, 4);
    }
  }
}

TEST_F(AbmTest, NeighborhoodPartitionKeepsHoodsTogether) {
  const auto placeRank =
      assignPlacesToRanks(*population_, 3, PartitionStrategy::kNeighborhood);
  std::vector<int> hoodRank(population_->neighborhoodCount(), -1);
  for (const pop::Place& place : population_->places()) {
    int& expected = hoodRank[place.neighborhood];
    if (expected == -1) {
      expected = placeRank[place.id];
    }
    EXPECT_EQ(placeRank[place.id], expected)
        << "place " << place.id << " split from its neighborhood";
  }
}

TEST_F(AbmTest, SingleRankPutsEverythingOnRankZero) {
  const auto placeRank =
      assignPlacesToRanks(*population_, 1, PartitionStrategy::kNeighborhood);
  for (int rank : placeRank) {
    EXPECT_EQ(rank, 0);
  }
}

TEST_F(AbmTest, RunProducesOneLogFilePerRank) {
  const ModelStats stats = runModel(*population_, modelConfig(4));
  const auto files = elog::listLogFiles(dir_);
  EXPECT_EQ(files.size(), 4u);
  EXPECT_GT(stats.eventsLogged, 0u);
  EXPECT_EQ(stats.simulatedHours, pop::kHoursPerWeek);
  EXPECT_EQ(stats.perRankEvents.size(), 4u);
  EXPECT_GT(stats.logBytes, stats.eventsLogged * 20);  // 20B payload + framing
}

TEST_F(AbmTest, EventsMatchSchedulesExactly) {
  // The union of logged events must equal every person's schedule stints.
  runModel(*population_, modelConfig(2));
  const auto logged = loadSorted();

  const pop::ScheduleGenerator generator(*population_, 777);
  std::vector<table::Event> expected;
  for (const pop::Person& person : population_->persons()) {
    for (const pop::ScheduleEntry& stint :
         generator.weeklySchedule(person.id, 0)) {
      expected.push_back(table::Event{stint.start, stint.end, person.id,
                                      stint.activity, stint.place});
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(logged, expected);
}

TEST_F(AbmTest, LoggedEventsIndependentOfRankCount) {
  std::vector<std::vector<table::Event>> runs;
  for (int ranks : {1, 2, 5}) {
    std::filesystem::remove_all(dir_);
    runModel(*population_, modelConfig(ranks));
    runs.push_back(loadSorted());
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST_F(AbmTest, LoggedEventsIndependentOfPartitionStrategy) {
  ModelConfig config = modelConfig(3);
  runModel(*population_, config);
  const auto neighborhood = loadSorted();

  std::filesystem::remove_all(dir_);
  config.strategy = PartitionStrategy::kRoundRobin;
  runModel(*population_, config);
  EXPECT_EQ(loadSorted(), neighborhood);
}

TEST_F(AbmTest, NeighborhoodPartitionMigratesLessThanRoundRobin) {
  ModelConfig config = modelConfig(4);
  const ModelStats spatial = runModel(*population_, config);

  std::filesystem::remove_all(dir_);
  config.strategy = PartitionStrategy::kRoundRobin;
  const ModelStats naive = runModel(*population_, config);

  EXPECT_LT(spatial.migrations, naive.migrations);
  EXPECT_LT(spatial.migrationFraction(), naive.migrationFraction());
  // Total movement (local + migrating) is identical either way.
  EXPECT_EQ(spatial.migrations + spatial.localMoves,
            naive.migrations + naive.localMoves);
}

TEST_F(AbmTest, MultiWeekRunCoversAllWeeks) {
  const ModelStats stats = runModel(*population_, modelConfig(2, 2));
  EXPECT_EQ(stats.simulatedHours, 2 * pop::kHoursPerWeek);
  const auto events = loadSorted();
  // There are events in both weeks.
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const auto& e) {
    return e.start < pop::kHoursPerWeek;
  }));
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const auto& e) {
    return e.start >= pop::kHoursPerWeek;
  }));
  // No event crosses the simulation horizon.
  for (const table::Event& event : events) {
    EXPECT_LE(event.end, 2 * pop::kHoursPerWeek);
    EXPECT_LT(event.start, event.end);
  }
}

TEST_F(AbmTest, EventCountsScaleWithPaperRate) {
  // Paper §III: ~5 activity changes per person per day => entries/person/day
  // in the low single digits.
  const ModelStats stats = runModel(*population_, modelConfig(2));
  const double entriesPerPersonDay =
      static_cast<double>(stats.eventsLogged) /
      (static_cast<double>(population_->persons().size()) * 7.0);
  EXPECT_GT(entriesPerPersonDay, 2.0);
  EXPECT_LT(entriesPerPersonDay, 9.0);
}

TEST_F(AbmTest, InitialAgentsSumToPopulation) {
  const ModelStats stats = runModel(*population_, modelConfig(4));
  std::uint64_t total = 0;
  for (std::uint64_t count : stats.perRankInitialAgents) {
    total += count;
  }
  EXPECT_EQ(total, population_->persons().size());
}

// ---------------------------------------------------------------------------
// Differential grid: the event-driven core against the hourly oracle
// (tests/hourly_oracle.hpp). The hard invariant is byte identity — for a
// given (population, scheduleSeed, disease.seed, rankCount), every rank's
// CLG5 (and CLX5 when the disease layer is on) file must be byte-for-byte
// identical between the two.
// ---------------------------------------------------------------------------

TEST_F(AbmTest, DifferentialGridBytesIdenticalAcrossCores) {
  for (const std::uint64_t scheduleSeed : {777u, 31u}) {
    for (const int ranks : {1, 2, 4}) {
      ModelConfig config = modelConfig(ranks);
      config.scheduleSeed = scheduleSeed;
      std::filesystem::remove_all(dir_);
      const ModelStats referenceStats = runHourlyOracle(*population_, config);
      const auto reference = readRawFiles(dir_);
      EXPECT_EQ(referenceStats.hoursActive, referenceStats.simulatedHours);
      EXPECT_EQ(referenceStats.peakQueueDepth, 0u);

      std::filesystem::remove_all(dir_);
      const ModelStats stats = runModel(*population_, config);
      const auto actual = readRawFiles(dir_);
      ASSERT_EQ(actual.size(), reference.size())
          << "ranks=" << ranks << " seed=" << scheduleSeed;
      for (const auto& [name, bytes] : reference) {
        const auto it = actual.find(name);
        ASSERT_NE(it, actual.end()) << name;
        EXPECT_EQ(it->second, bytes)
            << name << " differs from the oracle at ranks=" << ranks
            << " seed=" << scheduleSeed;
      }
      EXPECT_EQ(stats.eventsLogged, referenceStats.eventsLogged);
      EXPECT_EQ(stats.migrations, referenceStats.migrations);
      EXPECT_EQ(stats.localMoves, referenceStats.localMoves);
      EXPECT_EQ(stats.agentHours, referenceStats.agentHours);
      EXPECT_EQ(stats.logBytes, referenceStats.logBytes);
      EXPECT_LE(stats.hoursActive, stats.simulatedHours);
      EXPECT_GT(stats.peakQueueDepth, 0u);
    }
  }
}

TEST_F(AbmTest, DifferentialGridWithDiseaseBytesIdenticalAcrossCores) {
  for (const std::uint64_t diseaseSeed : {99u, 5u}) {
    for (const int ranks : {1, 2, 4}) {
      DiseaseConfig disease;
      disease.beta = 0.02;  // brisk epidemic: progressions and exposures
      disease.latentHours = 12;
      disease.infectiousHours = 48;
      disease.seed = diseaseSeed;
      const ModelConfig config = modelConfig(ranks);

      std::filesystem::remove_all(dir_);
      DiseaseStats referenceDisease;
      const ModelStats referenceStats =
          runHourlyOracle(*population_, config, disease, referenceDisease);
      const auto reference = readRawFiles(dir_);
      EXPECT_GT(referenceDisease.infections, 0u)
          << "grid config too mild to exercise transmission";

      std::filesystem::remove_all(dir_);
      DiseaseStats diseaseStats;
      const ModelStats stats =
          runModel(*population_, config, disease, diseaseStats);
      const auto actual = readRawFiles(dir_);
      ASSERT_EQ(actual.size(), reference.size())
          << "ranks=" << ranks << " diseaseSeed=" << diseaseSeed;
      for (const auto& [name, bytes] : reference) {
        const auto it = actual.find(name);
        ASSERT_NE(it, actual.end()) << name;
        EXPECT_EQ(it->second, bytes)
            << name << " differs from the oracle at ranks=" << ranks
            << " diseaseSeed=" << diseaseSeed;
      }
      EXPECT_EQ(stats.eventsLogged, referenceStats.eventsLogged);
      EXPECT_EQ(stats.migrations, referenceStats.migrations);
      EXPECT_EQ(stats.localMoves, referenceStats.localMoves);
      EXPECT_EQ(stats.agentHours, referenceStats.agentHours);
      EXPECT_EQ(diseaseStats.seeded, referenceDisease.seeded);
      EXPECT_EQ(diseaseStats.infections, referenceDisease.infections);
      EXPECT_EQ(diseaseStats.recovered, referenceDisease.recovered);
      EXPECT_EQ(diseaseStats.peakInfectious, referenceDisease.peakInfectious);
      EXPECT_EQ(diseaseStats.peakHour, referenceDisease.peakHour);
      EXPECT_EQ(diseaseStats.hourlyInfectious,
                referenceDisease.hourlyInfectious);
      EXPECT_EQ(diseaseStats.finalStates, referenceDisease.finalStates);
    }
  }
}

TEST_F(AbmTest, EventCoreSkipsQuietHoursWithoutDisease) {
  // With no epidemic, hours where no stint ends anywhere are skipped
  // outright; the active-hour count is what the step loop actually visited.
  const ModelStats stats = runModel(*population_, modelConfig(2));
  EXPECT_GT(stats.hoursActive, 0u);
  EXPECT_LE(stats.hoursActive, stats.simulatedHours);
  EXPECT_GT(stats.peakQueueDepth, 0u);
  // Every pending event is bounded by the resident population.
  EXPECT_LE(stats.peakQueueDepth, population_->persons().size());
}

TEST_F(AbmTest, RejectsBadConfig) {
  ModelConfig config = modelConfig(0);
  EXPECT_THROW(runModel(*population_, config), std::invalid_argument);
  config = modelConfig(1);
  config.weeks = 0;
  EXPECT_THROW(runModel(*population_, config), std::invalid_argument);
}

TEST_F(AbmTest, RejectsEmptyLogDirectory) {
  ModelConfig config = modelConfig(1);
  config.logDirectory.clear();
  EXPECT_THROW(runModel(*population_, config), std::invalid_argument);
}

TEST_F(AbmTest, RejectsLogDirectoryThatIsAFile) {
  std::filesystem::create_directories(dir_);
  const auto file = dir_ / "not_a_directory";
  { std::ofstream out(file); }
  ModelConfig config = modelConfig(1);
  config.logDirectory = file;
  EXPECT_THROW(runModel(*population_, config), std::invalid_argument);
}

}  // namespace
}  // namespace chisimnet::abm
