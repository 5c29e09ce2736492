#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chisimnet/abm/disease.hpp"
#include "chisimnet/abm/event_core.hpp"
#include "chisimnet/abm/model.hpp"
#include "chisimnet/abm/sim_checkpoint.hpp"
#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/extended.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/pop/schedule.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

/// Crash-safe simulation suite (label abm-ckpt): checkpoint codec round
/// trips, cursor/RNG state reconstruction, manifest commit + garbage
/// collection and validation failures, torn-log rejection and quarantine,
/// graceful shutdown, bounds checks on crafted resume input, and the
/// acceptance grid — kill a run at an exact fault-site ordinal for every
/// (rank count, disease) combination, resume it, and require the final
/// CLG5/CLX5 bytes to match a run that was never interrupted.

namespace chisimnet::abm {
namespace {

using runtime::FaultAction;
using runtime::FaultPlan;
using runtime::FaultSpec;
using table::Event;
using table::Hour;

class AbmCkptTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pop::PopulationConfig config;
    config.personCount = 2000;
    config.seed = 2017;
    population_ =
        new pop::SyntheticPopulation(pop::SyntheticPopulation::generate(config));
  }
  static void TearDownTestSuite() {
    delete population_;
    population_ = nullptr;
  }

  void SetUp() override { clearShutdownRequest(); }
  void TearDown() override { clearShutdownRequest(); }

  ModelConfig baseConfig(int ranks, const std::string& logs) const {
    ModelConfig config;
    config.logDirectory = root_ / logs;
    config.rankCount = ranks;
    config.weeks = 1;
    config.scheduleSeed = 777;
    return config;
  }

  /// Every regular file in `dir`, name -> raw bytes (CLG5 and CLX5 alike).
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

  static void expectSameBytes(const std::filesystem::path& got,
                              const std::filesystem::path& want,
                              const std::string& label) {
    const auto gotFiles = readRawFiles(got);
    const auto wantFiles = readRawFiles(want);
    ASSERT_EQ(gotFiles.size(), wantFiles.size()) << label;
    for (const auto& [name, bytes] : wantFiles) {
      auto it = gotFiles.find(name);
      ASSERT_NE(it, gotFiles.end()) << label << ": missing " << name;
      EXPECT_TRUE(it->second == bytes)
          << label << ": " << name << " differs ("
          << it->second.size() << " vs " << bytes.size() << " bytes)";
    }
  }

  static pop::SyntheticPopulation* population_;
  testsupport::ScratchDir scratch_{"chisimnet_ckpt"};
  const std::filesystem::path& root_ = scratch_.path();
};

pop::SyntheticPopulation* AbmCkptTest::population_ = nullptr;

RankCheckpoint sampleCheckpoint(bool disease) {
  RankCheckpoint ckpt;
  ckpt.hour = 96;
  ckpt.diseaseEnabled = disease;
  ckpt.outcome.events = 1234;
  ckpt.outcome.migrationsOut = 56;
  ckpt.outcome.localMoves = 789;
  ckpt.outcome.initialAgents = 500;
  ckpt.outcome.logBytes = 24680;
  ckpt.outcome.infections = disease ? 17 : 0;
  ckpt.outcome.hoursProcessed = 95;
  ckpt.outcome.peakQueueDepth = 321;
  ckpt.residents = {{3, 0, 4, disease ? 2u : 0u, disease ? Hour{40} : Hour{0}},
                    {9, 1, 0, 0, 0},
                    {200, 0, 11, disease ? 1u : 0u, disease ? Hour{90} : Hour{0}}};
  ckpt.calendar = {{96, {9, 3}}, {100, {200}}, {167, {3, 9, 200}}};
  ckpt.logBytes = 2048;
  ckpt.logEntries = 100;
  ckpt.logFlushCount = 3;
  ckpt.logCache = {Event{90, 96, 3, 1, 44}, Event{95, 96, 9, 0, 2}};
  if (disease) {
    ckpt.clxBytes = 512;
    ckpt.clxEntries = 12;
    ckpt.clxBuffer = {elog::ExtendedEvent{Event{88, 96, 3, 1, 44}, {2, 9}}};
    ckpt.progressions = {{120, {3}}, {130, {200}}};
    ckpt.hourlyInfectious.assign(96, 0);
    for (Hour h = 40; h < 96; ++h) {
      ckpt.hourlyInfectious[h] = 1 + h % 3;
    }
  }
  return ckpt;
}

void expectEqualCheckpoints(const RankCheckpoint& got,
                            const RankCheckpoint& want) {
  EXPECT_EQ(got.hour, want.hour);
  EXPECT_EQ(got.diseaseEnabled, want.diseaseEnabled);
  EXPECT_EQ(got.outcome.events, want.outcome.events);
  EXPECT_EQ(got.outcome.migrationsOut, want.outcome.migrationsOut);
  EXPECT_EQ(got.outcome.localMoves, want.outcome.localMoves);
  EXPECT_EQ(got.outcome.initialAgents, want.outcome.initialAgents);
  EXPECT_EQ(got.outcome.logBytes, want.outcome.logBytes);
  EXPECT_EQ(got.outcome.infections, want.outcome.infections);
  EXPECT_EQ(got.outcome.hoursProcessed, want.outcome.hoursProcessed);
  EXPECT_EQ(got.outcome.peakQueueDepth, want.outcome.peakQueueDepth);
  ASSERT_EQ(got.residents.size(), want.residents.size());
  for (std::size_t i = 0; i < want.residents.size(); ++i) {
    EXPECT_EQ(got.residents[i].person, want.residents[i].person);
    EXPECT_EQ(got.residents[i].weekIndex, want.residents[i].weekIndex);
    EXPECT_EQ(got.residents[i].stintIndex, want.residents[i].stintIndex);
    EXPECT_EQ(got.residents[i].state, want.residents[i].state);
    EXPECT_EQ(got.residents[i].since, want.residents[i].since);
  }
  ASSERT_EQ(got.calendar.size(), want.calendar.size());
  for (std::size_t i = 0; i < want.calendar.size(); ++i) {
    EXPECT_EQ(got.calendar[i].hour, want.calendar[i].hour);
    EXPECT_EQ(got.calendar[i].persons, want.calendar[i].persons);
  }
  EXPECT_EQ(got.logBytes, want.logBytes);
  EXPECT_EQ(got.logEntries, want.logEntries);
  EXPECT_EQ(got.logFlushCount, want.logFlushCount);
  EXPECT_EQ(got.logCache, want.logCache);
  EXPECT_EQ(got.clxBytes, want.clxBytes);
  EXPECT_EQ(got.clxEntries, want.clxEntries);
  ASSERT_EQ(got.clxBuffer.size(), want.clxBuffer.size());
  for (std::size_t i = 0; i < want.clxBuffer.size(); ++i) {
    EXPECT_EQ(got.clxBuffer[i].base, want.clxBuffer[i].base);
    EXPECT_EQ(got.clxBuffer[i].extras, want.clxBuffer[i].extras);
  }
  ASSERT_EQ(got.progressions.size(), want.progressions.size());
  for (std::size_t i = 0; i < want.progressions.size(); ++i) {
    EXPECT_EQ(got.progressions[i].hour, want.progressions[i].hour);
    EXPECT_EQ(got.progressions[i].persons, want.progressions[i].persons);
  }
  EXPECT_EQ(got.hourlyInfectious, want.hourlyInfectious);
}

// ---- codec property tests ----

TEST_F(AbmCkptTest, RankCheckpointRoundTripsWithDisease) {
  const RankCheckpoint want = sampleCheckpoint(true);
  const auto bytes = encodeRankCheckpoint(want);
  expectEqualCheckpoints(decodeRankCheckpoint(bytes), want);
}

TEST_F(AbmCkptTest, RankCheckpointRoundTripsWithoutDisease) {
  const RankCheckpoint want = sampleCheckpoint(false);
  const auto bytes = encodeRankCheckpoint(want);
  expectEqualCheckpoints(decodeRankCheckpoint(bytes), want);
}

TEST_F(AbmCkptTest, DecodeRejectsTrailingAndTruncatedBytes) {
  auto bytes = encodeRankCheckpoint(sampleCheckpoint(true));
  auto longer = bytes;
  longer.push_back(std::byte{0});
  EXPECT_THROW(decodeRankCheckpoint(longer), std::exception);
  bytes.pop_back();
  EXPECT_THROW(decodeRankCheckpoint(bytes), std::exception);
}

TEST_F(AbmCkptTest, SavedRankFileRoundTripsAndRejectsCorruption) {
  const RankCheckpoint want = sampleCheckpoint(true);
  saveRankCheckpoint(root_, 3, want);
  expectEqualCheckpoints(loadRankCheckpoint(root_, 3, want.hour), want);
  // Wrong hour: the file on disk is for hour 96.
  EXPECT_THROW(loadRankCheckpoint(root_, 3, want.hour + 24), std::exception);
  // Flip one body byte: the CRC frame must reject it.
  const auto file = root_ / "rank_0003.96.abmc";
  ASSERT_TRUE(std::filesystem::exists(file));
  {
    std::fstream patch(file,
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(40);
    char byte = 0;
    patch.seekg(40);
    patch.get(byte);
    byte = static_cast<char>(byte ^ 0x5A);
    patch.seekp(40);
    patch.put(byte);
  }
  EXPECT_THROW(loadRankCheckpoint(root_, 3, want.hour), std::exception);
}

TEST_F(AbmCkptTest, ManifestCommitGarbageCollectsSupersededFiles) {
  RankCheckpoint old = sampleCheckpoint(false);
  old.hour = 48;
  saveRankCheckpoint(root_, 0, old);
  saveRankCheckpoint(root_, 1, old);
  // An orphaned tmp from a crash mid-save must be swept too.
  { std::ofstream(root_ / "rank_0000.tmp") << "torn"; }

  RankCheckpoint fresh = sampleCheckpoint(false);
  fresh.hour = 96;
  saveRankCheckpoint(root_, 0, fresh);
  saveRankCheckpoint(root_, 1, fresh);
  commitSimManifest(root_, SimManifest{96, 2, 0xDEADBEEF, 4});

  const auto manifest = loadSimManifest(root_);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->hour, 96u);
  EXPECT_EQ(manifest->rankCount, 2);
  EXPECT_EQ(manifest->configHash, 0xDEADBEEFu);
  EXPECT_EQ(manifest->checkpointsWritten, 4u);
  EXPECT_FALSE(std::filesystem::exists(root_ / "rank_0000.48.abmc"));
  EXPECT_FALSE(std::filesystem::exists(root_ / "rank_0001.48.abmc"));
  EXPECT_FALSE(std::filesystem::exists(root_ / "rank_0000.tmp"));
  EXPECT_TRUE(std::filesystem::exists(root_ / "rank_0000.96.abmc"));
  EXPECT_TRUE(std::filesystem::exists(root_ / "rank_0001.96.abmc"));
}

TEST_F(AbmCkptTest, LoadSimResumeValidatesRankCountAndConfigHash) {
  // sampleCheckpoint fits a 2000-person, two-week run.
  const Hour hours = 2 * pop::kHoursPerWeek;
  EXPECT_FALSE(loadSimResume(root_, 2, 7, 2000, hours).has_value());

  RankCheckpoint ckpt = sampleCheckpoint(false);
  saveRankCheckpoint(root_, 0, ckpt);
  saveRankCheckpoint(root_, 1, ckpt);
  commitSimManifest(root_, SimManifest{96, 2, 7, 1});

  EXPECT_THROW(loadSimResume(root_, 4, 7, 2000, hours), std::exception);
  EXPECT_THROW(loadSimResume(root_, 2, 8, 2000, hours), std::exception);
  const auto resume = loadSimResume(root_, 2, 7, 2000, hours);
  ASSERT_TRUE(resume.has_value());
  ASSERT_EQ(resume->ranks.size(), 2u);
  EXPECT_EQ(resume->ranks[0].hour, 96u);
}

// ---- crafted resume input ----
//
// Each case is a CRC-valid rank file whose contents do not fit the run it
// is resumed into. Resume must fail with a typed error before any rank
// starts (no log file is opened), with no crash and no allocation sized by
// the bad field.

class AbmCkptResumeInputTest : public AbmCkptTest {
 protected:
  static constexpr int kRanks = 2;

  /// A checkpoint that fits the one-week, 2000-person run below.
  static RankCheckpoint fittingCheckpoint() {
    RankCheckpoint ckpt = sampleCheckpoint(false);
    for (AgentSnapshot& agent : ckpt.residents) {
      agent.weekIndex = 0;
    }
    return ckpt;
  }

  ModelConfig resumeConfig() const {
    ModelConfig config = baseConfig(kRanks, "logs");
    config.checkpointDir = root_ / "ckpt";
    config.resume = true;
    return config;
  }

  /// Commits `ckpt` as every rank's state under a manifest that matches
  /// resumeConfig() in everything but `hour`.
  void commit(const RankCheckpoint& ckpt, Hour hour) const {
    const ModelConfig config = resumeConfig();
    for (int rank = 0; rank < kRanks; ++rank) {
      saveRankCheckpoint(config.checkpointDir, rank, ckpt);
    }
    commitSimManifest(
        config.checkpointDir,
        SimManifest{hour, kRanks,
                    simConfigHash(population_->persons().size(),
                                  population_->places().size(), config,
                                  nullptr),
                    1});
  }

  /// Resumes and requires a typed error mentioning `reason`, raised before
  /// any rank opened its log.
  void expectRejected(const std::string& reason) const {
    const ModelConfig config = resumeConfig();
    try {
      runModel(*population_, config);
      ADD_FAILURE() << "resume accepted a checkpoint with " << reason;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(reason), std::string::npos)
          << error.what();
    }
    EXPECT_TRUE(elog::listLogFiles(config.logDirectory).empty());
  }
};

TEST_F(AbmCkptResumeInputTest, RejectsPersonOutsideThePopulation) {
  RankCheckpoint ckpt = fittingCheckpoint();
  ckpt.residents.back().person = 2000;  // the population is 0..1999
  commit(ckpt, 96);
  expectRejected("names person 2000");
}

TEST_F(AbmCkptResumeInputTest, RejectsWeekOutsideTheRun) {
  RankCheckpoint ckpt = fittingCheckpoint();
  ckpt.residents.front().weekIndex = 1;  // a one-week run has week 0 only
  commit(ckpt, 96);
  expectRejected("in week 1 of a 1-week run");
}

TEST_F(AbmCkptResumeInputTest, RejectsBucketCountBeyondTheFileSize) {
  // Body layout up to the activity calendar: hour u32, disease flag u32,
  // eight u64 outcome counters, resident count u32, then 12 bytes per
  // resident (disease off); the calendar's bucket count follows.
  const RankCheckpoint ckpt = fittingCheckpoint();
  std::vector<std::byte> body = encodeRankCheckpoint(ckpt);
  const std::size_t countAt = 4 + 4 + 8 * 8 + 4 + 12 * ckpt.residents.size();
  ASSERT_LT(countAt + 4, body.size());
  ASSERT_EQ(static_cast<std::uint32_t>(body[countAt]), ckpt.calendar.size());
  for (std::size_t i = 0; i < 4; ++i) {
    body[countAt + i] = std::byte{0xFF};  // 2^32 - 1 buckets
  }
  commit(ckpt, 96);
  for (int rank = 0; rank < kRanks; ++rank) {
    char name[32];
    std::snprintf(name, sizeof(name), "rank_%04d.96.abmc", rank);
    std::ofstream out(resumeConfig().checkpointDir / name,
                      std::ios::binary | std::ios::trunc);
    util::writeU32(out, 0x434D4241u);  // "ABMC"
    util::writeU32(out, 1);            // version
    util::writeU32(out, util::crc32(body));
    util::writeBytes(out, body);
  }
  EXPECT_THROW(decodeRankCheckpoint(body), std::runtime_error);
  expectRejected("more calendar buckets");
}

TEST_F(AbmCkptResumeInputTest, RejectsBucketHourPastTheHorizon) {
  RankCheckpoint ckpt = fittingCheckpoint();
  ckpt.calendar.back().hour = pop::kHoursPerWeek + 1;
  commit(ckpt, 96);
  expectRejected("activity bucket at hour 169");
}

TEST_F(AbmCkptResumeInputTest, RejectsBucketHourBeforeTheCheckpoint) {
  RankCheckpoint ckpt = fittingCheckpoint();
  ckpt.calendar.front().hour = 95;
  commit(ckpt, 96);
  expectRejected("activity bucket at hour 95");
}

TEST_F(AbmCkptResumeInputTest, RejectsProgressionBucketAtTheHorizon) {
  // Progressions fire at hours [checkpoint, horizon): the last epidemic
  // step runs at horizon - 1.
  RankCheckpoint ckpt = sampleCheckpoint(true);
  for (AgentSnapshot& agent : ckpt.residents) {
    agent.weekIndex = 0;
  }
  ckpt.progressions.back().hour = pop::kHoursPerWeek;
  commit(ckpt, 96);
  try {
    loadSimResume(resumeConfig().checkpointDir, kRanks,
                  simConfigHash(population_->persons().size(),
                                population_->places().size(), resumeConfig(),
                                nullptr),
                  population_->persons().size(), pop::kHoursPerWeek);
    ADD_FAILURE() << "resume accepted a progression at the horizon";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("progression bucket at hour 168"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(AbmCkptResumeInputTest, RejectsManifestHourPastTheHorizon) {
  RankCheckpoint ckpt = fittingCheckpoint();
  ckpt.hour = 500;
  ckpt.calendar.clear();
  commit(ckpt, 500);
  expectRejected("past this run's horizon");
}

TEST_F(AbmCkptTest, StintCursorRebuildsFromCoordinates) {
  const pop::ScheduleGenerator generator(*population_, 777);
  for (table::PersonId person : {0u, 17u, 523u, 1999u}) {
    pop::StintCursor walked(generator, person, 0);
    for (int steps = 0; steps < 12; ++steps) {
      // A cursor rebuilt from its (person, weekIndex, stintIndex)
      // coordinates — all a checkpoint stores — must see the same stint.
      pop::StintCursor rebuilt(
          person, generator.packedWeek(person, walked.weekIndex()),
          walked.index());
      EXPECT_EQ(rebuilt.current(), walked.current());
      walked.advance(generator, walked.current().end);
    }
  }
}

TEST_F(AbmCkptTest, RngStateRoundTripResumesDrawSequence) {
  util::Rng rng(12345);
  for (int i = 0; i < 100; ++i) {
    rng.next();
  }
  const auto saved = rng.state();
  std::vector<std::uint64_t> want;
  for (int i = 0; i < 64; ++i) {
    want.push_back(rng.next());
  }
  util::Rng restored = util::Rng::fromState(saved);
  for (std::uint64_t value : want) {
    EXPECT_EQ(restored.next(), value);
  }
}

TEST_F(AbmCkptTest, CalendarQueueRebuildsFromBucketSnapshots) {
  CalendarQueue queue(200);
  queue.push(5, 11);
  queue.push(5, 22);
  queue.push(9, 33);
  queue.push(150, 44);

  // Snapshot buckets >= hour 5 exactly as writeCheckpoint does, rebuild a
  // fresh queue from them, and require identical occupancy and FIFO order.
  std::vector<HourBucket> buckets;
  for (Hour h = 5; h <= 200; ++h) {
    if (!queue.bucket(h).empty()) {
      buckets.push_back({h, queue.bucket(h)});
    }
  }
  CalendarQueue rebuilt(200);
  for (const auto& bucket : buckets) {
    for (table::PersonId person : bucket.persons) {
      rebuilt.push(bucket.hour, person);
    }
  }
  EXPECT_EQ(rebuilt.pending(), queue.pending());
  for (Hour h = 0; h <= 200; ++h) {
    EXPECT_EQ(rebuilt.bucket(h), queue.bucket(h)) << "hour " << h;
  }
}

// ---- torn-log detection ----

TEST_F(AbmCkptTest, ResumeOffsetMustLandOnChunkBoundary) {
  const auto path = root_ / "rank_0000.clg5";
  std::uint64_t boundary = 0;
  {
    elog::ChunkedLogWriter writer(path);
    const std::vector<Event> chunk = {Event{0, 3, 1, 0, 5},
                                      Event{1, 4, 2, 1, 6}};
    writer.writeChunk(chunk);
    boundary = writer.bytesWritten();
    writer.writeChunk(chunk);
    writer.close();
  }
  // On a boundary: accepted, and the file truncates back to it.
  {
    elog::ChunkedLogWriter resumed(path, elog::LogCompression::kRaw,
                                   elog::ChunkedLogWriter::ResumeAt{boundary});
    resumed.close();
  }
  EXPECT_EQ(std::filesystem::file_size(path) > 0, true);
  // Off a boundary: rejected.
  EXPECT_THROW(elog::ChunkedLogWriter(
                   path, elog::LogCompression::kRaw,
                   elog::ChunkedLogWriter::ResumeAt{boundary + 1}),
               std::exception);
}

// ---- the acceptance grid ----

struct GridCell {
  int ranks;
  bool disease;
};

TEST_F(AbmCkptTest, KillAndResumeIsByteIdenticalAcrossGrid) {
  const std::vector<GridCell> grid = {
      {1, false}, {2, false}, {4, false}, {1, true}, {2, true}, {4, true},
  };
  int cell = 0;
  for (const GridCell& g : grid) {
    const std::string label = "cell" + std::to_string(cell) + "_r" +
                              std::to_string(g.ranks) +
                              (g.disease ? "_disease" : "");
    ++cell;
    DiseaseConfig disease;
    DiseaseStats diseaseStats;

    // Uninterrupted reference run.
    ModelConfig clean = baseConfig(g.ranks, label + "_clean");
    if (g.disease) {
      runModel(*population_, clean, disease, diseaseStats);
    } else {
      runModel(*population_, clean);
    }

    // Same run, checkpointing every 24 h, killed by an injected throw at
    // the exact simulated-hour ordinal 100 (abm.step fires once per rank
    // per hour with ordinal = the hour).
    ModelConfig crash = baseConfig(g.ranks, label + "_crash");
    crash.checkpointDir = root_ / (label + "_ckpt");
    crash.checkpointEveryHours = 24;
    {
      FaultPlan plan;
      plan.at("abm.step", FaultSpec{FaultAction::kThrow, 100});
      runtime::fault::ScopedFaultPlan scoped(plan);
      if (g.disease) {
        EXPECT_THROW(runModel(*population_, crash, disease, diseaseStats),
                     std::exception)
            << label;
      } else {
        EXPECT_THROW(runModel(*population_, crash), std::exception) << label;
      }
    }
    // The kill left torn, detectably-unfinished log files behind.
    EXPECT_THROW(
        elog::ChunkedLogReader(elog::logFilePath(crash.logDirectory, 0))
            .readAll(),
        std::exception)
        << label;
    const auto manifest = loadSimManifest(crash.checkpointDir);
    ASSERT_TRUE(manifest.has_value()) << label;
    EXPECT_GE(manifest->hour, 24u) << label;
    EXPECT_LE(manifest->hour, 100u) << label;

    // Resume (no fault plan) and require byte identity with the reference.
    crash.resume = true;
    ModelStats stats;
    if (g.disease) {
      DiseaseStats resumedDisease;
      stats = runModel(*population_, crash, disease, resumedDisease);
      EXPECT_EQ(resumedDisease.infections, diseaseStats.infections) << label;
      EXPECT_EQ(resumedDisease.finalStates, diseaseStats.finalStates) << label;
      EXPECT_EQ(resumedDisease.hourlyInfectious, diseaseStats.hourlyInfectious)
          << label;
    } else {
      stats = runModel(*population_, crash);
    }
    EXPECT_TRUE(stats.resumed) << label;
    EXPECT_EQ(stats.hoursReplayed, manifest->hour) << label;
    EXPECT_FALSE(stats.interrupted) << label;
    EXPECT_GE(stats.checkpointsWritten, manifest->checkpointsWritten) << label;
    expectSameBytes(crash.logDirectory, clean.logDirectory, label);
  }
}

TEST_F(AbmCkptTest, KillInsideCheckpointWriteFallsBackToPreviousCheckpoint) {
  // The event core checkpoints at the first *active* hour past due, so the
  // checkpoint hours depend on the activity pattern; two probe runs find
  // them. A clean checkpointed run ends with its last checkpoint in the
  // manifest; a second run killed at the top of that hour, before it
  // checkpoints, leaves the one before.
  ModelConfig clean = baseConfig(2, "clean");
  runModel(*population_, clean);

  ModelConfig probe = baseConfig(2, "probe");
  probe.checkpointDir = root_ / "probe_ckpt";
  probe.checkpointEveryHours = 24;
  const ModelStats probed = runModel(*population_, probe);
  ASSERT_GE(probed.checkpointsWritten, 2u);
  const auto last = loadSimManifest(probe.checkpointDir);
  ASSERT_TRUE(last.has_value());

  std::filesystem::remove_all(probe.checkpointDir);
  probe.logDirectory = root_ / "probe_killed";
  {
    FaultPlan plan;
    plan.at("abm.step", FaultSpec{FaultAction::kThrow, last->hour});
    runtime::fault::ScopedFaultPlan scoped(plan);
    EXPECT_THROW(runModel(*population_, probe), std::exception);
  }
  const auto previous = loadSimManifest(probe.checkpointDir);
  ASSERT_TRUE(previous.has_value());
  ASSERT_LT(previous->hour, last->hour);

  // Throw inside the last checkpoint's write: the previous manifest must
  // survive untouched and carry the resume.
  ModelConfig crash = baseConfig(2, "crash");
  crash.checkpointDir = root_ / "ckpt";
  crash.checkpointEveryHours = 24;
  {
    FaultPlan plan;
    plan.at("abm.ckpt.write", FaultSpec{FaultAction::kThrow, last->hour});
    runtime::fault::ScopedFaultPlan scoped(plan);
    EXPECT_THROW(runModel(*population_, crash), std::exception);
  }
  const auto manifest = loadSimManifest(crash.checkpointDir);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->hour, previous->hour);
  EXPECT_EQ(manifest->checkpointsWritten, previous->checkpointsWritten);

  crash.resume = true;
  const ModelStats stats = runModel(*population_, crash);
  EXPECT_TRUE(stats.resumed);
  EXPECT_EQ(stats.hoursReplayed, previous->hour);
  expectSameBytes(crash.logDirectory, clean.logDirectory, "ckpt-write-kill");
}

TEST_F(AbmCkptTest, KillInsideMigrationSendResumesByteIdentical) {
  ModelConfig clean = baseConfig(4, "clean");
  runModel(*population_, clean);

  ModelConfig crash = baseConfig(4, "crash");
  crash.checkpointDir = root_ / "ckpt";
  crash.checkpointEveryHours = 24;
  {
    FaultPlan plan;
    plan.at("abm.migrate.send", FaultSpec{FaultAction::kThrow, 60});
    runtime::fault::ScopedFaultPlan scoped(plan);
    EXPECT_THROW(runModel(*population_, crash), std::exception);
  }
  crash.resume = true;
  const ModelStats stats = runModel(*population_, crash);
  EXPECT_TRUE(stats.resumed);
  expectSameBytes(crash.logDirectory, clean.logDirectory, "migrate-send-kill");
}

TEST_F(AbmCkptTest, TornLogsFromKilledRunAreQuarantinedBySynthesis) {
  ModelConfig crash = baseConfig(2, "crash");
  crash.checkpointDir = root_ / "ckpt";
  crash.checkpointEveryHours = 24;
  {
    FaultPlan plan;
    plan.at("abm.step", FaultSpec{FaultAction::kThrow, 100});
    runtime::fault::ScopedFaultPlan scoped(plan);
    EXPECT_THROW(runModel(*population_, crash), std::exception);
  }
  const auto files = elog::listLogFiles(crash.logDirectory);
  ASSERT_EQ(files.size(), 2u);
  // Footer-less files must be rejected outright by the strict reader...
  for (const auto& file : files) {
    EXPECT_THROW(elog::ChunkedLogReader(file).readAll(), std::exception);
  }
  // ...and quarantined (not silently truncated) by the degrade-mode loader
  // the synthesis pipeline uses.
  std::vector<elog::QuarantinedFile> quarantined;
  const auto events =
      elog::loadEventsQuarantining(files, 0, 0xFFFFFFFFu, quarantined);
  EXPECT_EQ(events.size(), 0u);
  ASSERT_EQ(quarantined.size(), 2u);
  for (const auto& entry : quarantined) {
    EXPECT_NE(entry.reason.find("footer"), std::string::npos) << entry.reason;
  }
}

TEST_F(AbmCkptTest, GracefulShutdownCheckpointsAndResumes) {
  ModelConfig clean = baseConfig(2, "clean");
  DiseaseConfig disease;
  DiseaseStats cleanDisease;
  runModel(*population_, clean, disease, cleanDisease);

  // A shutdown request pending at the first hour: the ranks agree through
  // the migration-exchange flag, checkpoint, close cleanly, and report the
  // interruption instead of finishing the horizon.
  ModelConfig stopped = baseConfig(2, "stopped");
  stopped.checkpointDir = root_ / "ckpt";
  stopped.checkpointEveryHours = 0;  // only on shutdown
  requestShutdown();
  DiseaseStats ignored;
  const ModelStats interrupted =
      runModel(*population_, stopped, disease, ignored);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.checkpointsWritten, 1u);
  const auto manifest = loadSimManifest(stopped.checkpointDir);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_LT(manifest->hour, 168u);

  clearShutdownRequest();
  stopped.resume = true;
  DiseaseStats resumedDisease;
  const ModelStats stats =
      runModel(*population_, stopped, disease, resumedDisease);
  EXPECT_TRUE(stats.resumed);
  EXPECT_FALSE(stats.interrupted);
  EXPECT_EQ(resumedDisease.infections, cleanDisease.infections);
  expectSameBytes(stopped.logDirectory, clean.logDirectory, "graceful");
}

TEST_F(AbmCkptTest, ResumeRejectsChangedConfig) {
  ModelConfig crash = baseConfig(2, "crash");
  crash.checkpointDir = root_ / "ckpt";
  crash.checkpointEveryHours = 24;
  {
    FaultPlan plan;
    plan.at("abm.step", FaultSpec{FaultAction::kThrow, 100});
    runtime::fault::ScopedFaultPlan scoped(plan);
    EXPECT_THROW(runModel(*population_, crash), std::exception);
  }
  // Different schedule seed: the config hash no longer matches.
  ModelConfig reseeded = crash;
  reseeded.resume = true;
  reseeded.scheduleSeed = 778;
  EXPECT_THROW(runModel(*population_, reseeded), std::exception);
  // Different rank count: the checkpoint set is per-rank state.
  ModelConfig reranked = crash;
  reranked.resume = true;
  reranked.rankCount = 4;
  EXPECT_THROW(runModel(*population_, reranked), std::exception);
}

TEST_F(AbmCkptTest, ResumeWithEmptyCheckpointDirStartsFresh) {
  ModelConfig clean = baseConfig(2, "clean");
  runModel(*population_, clean);

  ModelConfig config = baseConfig(2, "fresh");
  config.checkpointDir = root_ / "ckpt_empty";
  config.resume = true;  // nothing there yet: falls back to a fresh start
  const ModelStats stats = runModel(*population_, config);
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(stats.hoursReplayed, 0u);
  expectSameBytes(config.logDirectory, clean.logDirectory, "fresh-fallback");
}

TEST_F(AbmCkptTest, CheckpointConfigValidation) {
  ModelConfig config = baseConfig(1, "logs");
  config.checkpointEveryHours = 24;  // without a checkpointDir
  EXPECT_THROW(runModel(*population_, config), std::invalid_argument);
  config.checkpointEveryHours = 0;
  config.resume = true;  // likewise
  EXPECT_THROW(runModel(*population_, config), std::invalid_argument);
}

}  // namespace
}  // namespace chisimnet::abm
