#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

/// Executor-abstraction tests: the message-passing backend must run the
/// exact same stage driver as the shared-memory backend — same adjacency
/// bit-for-bit, same unified SynthesisReport counters, with the comm byte
/// accounting and per-stage timings populated (previously all-zero on the
/// standalone distributed path).

namespace chisimnet::net {
namespace {

using table::Event;

class DistributedSynthesisTest : public ::testing::Test {
 protected:
  /// When byPlace is set, events land in the file owning their place (as
  /// real per-rank logs do) so whole-file batching is exactly additive.
  std::vector<std::filesystem::path> writeRandomLogs(std::uint64_t seed,
                                                     std::size_t events,
                                                     int files,
                                                     bool byPlace = false) {
    util::Rng rng(seed);
    std::vector<std::vector<Event>> buffers(files);
    for (std::size_t i = 0; i < events; ++i) {
      const auto start = static_cast<table::Hour>(rng.uniformBelow(96));
      const Event event{
          start, start + 1 + static_cast<table::Hour>(rng.uniformBelow(8)),
          static_cast<table::PersonId>(rng.uniformBelow(80)),
          static_cast<table::ActivityId>(rng.uniformBelow(5)),
          static_cast<table::PlaceId>(rng.uniformBelow(20))};
      buffers[byPlace ? event.place % static_cast<std::uint32_t>(files)
                      : i % files]
          .push_back(event);
    }
    std::vector<std::filesystem::path> paths;
    for (int f = 0; f < files; ++f) {
      const auto path = elog::logFilePath(scratch_.path(), f);
      elog::ChunkedLogWriter writer(path);
      writer.writeChunk(buffers[f]);
      writer.close();
      paths.push_back(path);
    }
    return paths;
  }

  testsupport::ScratchDir scratch_{"chisimnet_dist"};
};

TEST(CollocationSerialization, RoundTrip) {
  util::Rng rng(5);
  std::vector<Event> events;
  for (int i = 0; i < 60; ++i) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(48));
    events.push_back(Event{start,
                           start + 1 + static_cast<table::Hour>(rng.uniformBelow(5)),
                           static_cast<table::PersonId>(rng.uniformBelow(15)),
                           0, 7});
  }
  const sparse::CollocationMatrix original(7, events, 0, 48);
  const auto bytes = original.toBytes();
  const sparse::CollocationMatrix copy =
      sparse::CollocationMatrix::fromBytes(bytes);
  ASSERT_EQ(copy.place(), original.place());
  ASSERT_EQ(copy.personCount(), original.personCount());
  ASSERT_EQ(copy.nnz(), original.nnz());
  ASSERT_EQ(copy.sliceHours(), original.sliceHours());
  ASSERT_EQ(copy.occupiedHours(), original.occupiedHours());
  for (std::size_t row = 0; row < original.personCount(); ++row) {
    EXPECT_EQ(copy.personAt(row), original.personAt(row));
    const auto a = original.hoursAt(row);
    const auto b = copy.hoursAt(row);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(CollocationSerialization, TruncationDetected) {
  const std::vector<Event> events{{0, 3, 1, 0, 7}, {1, 4, 2, 0, 7}};
  const sparse::CollocationMatrix matrix(7, events, 0, 8);
  auto bytes = matrix.toBytes();
  bytes.pop_back();
  EXPECT_THROW(sparse::CollocationMatrix::fromBytes(bytes), std::runtime_error);
}

TEST(CollocationSerialization, InflatedCountIsRejected) {
  // A 24-byte frame declaring 2^40 persons must be refused by the bound on
  // the bytes that follow, before any vector is sized from the count.
  util::ByteWriter frame;
  frame.u32(7);   // place
  frame.u32(8);   // slice hours
  frame.u64(std::uint64_t{1} << 40);  // persons
  frame.u64(0);   // nnz
  const std::vector<std::byte> bytes = frame.take();
  ASSERT_EQ(bytes.size(), 24u);
  EXPECT_THROW(sparse::CollocationMatrix::fromBytes(bytes), std::runtime_error);
}

TEST(CollocationOccupancy, OccupiedHoursCountsDistinctHours) {
  // Persons 1 and 2 overlap hours [0,3); person 3 alone at hour 5.
  const std::vector<Event> events{{0, 3, 1, 0, 7}, {0, 3, 2, 0, 7},
                                  {5, 6, 3, 0, 7}};
  const sparse::CollocationMatrix matrix(7, events, 0, 8);
  EXPECT_EQ(matrix.nnz(), 7u);
  EXPECT_EQ(matrix.occupiedHours(), 4u);  // hours 0,1,2,5
}

class ExecutorRankSweep
    : public DistributedSynthesisTest,
      public ::testing::WithParamInterface<unsigned> {};

TEST_P(ExecutorRankSweep, MatchesSharedMemoryBackend) {
  const auto files = writeRandomLogs(GetParam(), 800, 3);

  SynthesisConfig config;
  config.windowStart = 0;
  config.windowEnd = 96;
  config.workers = GetParam();

  NetworkSynthesizer shared(config);
  const auto reference = shared.synthesizeAdjacency(files);

  config.backend = SynthesisBackend::kMessagePassing;
  NetworkSynthesizer mp(config);
  const auto distributed = mp.synthesizeAdjacency(files);

  EXPECT_EQ(distributed.toTriplets(), reference.toTriplets());

  // One report type serves both backends, counter for counter.
  const SynthesisReport& report = mp.report();
  EXPECT_EQ(report.backend, SynthesisBackend::kMessagePassing);
  EXPECT_EQ(report.edges, reference.edgeCount());
  EXPECT_EQ(report.logEntriesLoaded, shared.report().logEntriesLoaded);
  EXPECT_EQ(report.placesProcessed, shared.report().placesProcessed);
  EXPECT_EQ(report.collocationNnz, shared.report().collocationNnz);
  EXPECT_EQ(report.batches, shared.report().batches);
  EXPECT_EQ(report.partitionLoads.size(), config.workers);

  // Comm accounting: the MP path moves bytes, the shared path moves none.
  EXPECT_GT(report.bytesScattered, 0u);
  EXPECT_GT(report.bytesReturned, 0u);
  EXPECT_EQ(shared.report().bytesScattered, 0u);
  EXPECT_EQ(shared.report().bytesReturned, 0u);

  // Per-stage seconds are measured for the MP path (previously all-zero).
  EXPECT_GT(report.collocationSeconds + report.adjacencySeconds, 0.0);
  EXPECT_GT(report.totalSeconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExecutorRankSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST_F(DistributedSynthesisTest, BatchingAndPrefetchWorkOnMessagePassing) {
  // filesPerBatch and prefetch were silently ignored by the old standalone
  // distributed path; through the unified driver they must work and report.
  const auto files = writeRandomLogs(13, 900, 6, /*byPlace=*/true);
  SynthesisConfig config;
  config.windowEnd = 96;
  config.workers = 3;
  NetworkSynthesizer shared(config);
  const auto reference = shared.synthesizeAdjacency(files);

  config.backend = SynthesisBackend::kMessagePassing;
  for (const std::size_t filesPerBatch : {std::size_t{1}, std::size_t{3}}) {
    config.filesPerBatch = filesPerBatch;
    NetworkSynthesizer mp(config);
    const auto adjacency = mp.synthesizeAdjacency(files);
    const std::string label = "filesPerBatch " + std::to_string(filesPerBatch);
    EXPECT_EQ(adjacency.toTriplets(), reference.toTriplets()) << label;
    const SynthesisReport& report = mp.report();
    EXPECT_EQ(report.batches,
              (files.size() + filesPerBatch - 1) / filesPerBatch)
        << label;
    EXPECT_GT(report.loadSeconds, 0.0) << label;
    EXPECT_GE(report.loadOverlappedSeconds, 0.0) << label;
  }
}

TEST_F(DistributedSynthesisTest, InMemoryTableWorksOnMessagePassing) {
  const auto files = writeRandomLogs(21, 400, 2);
  const table::EventTable events = elog::loadEvents(files, 0, 96);
  const auto reference = bruteForceAdjacency(events, 0, 96).toTriplets();
  SynthesisConfig config;
  config.windowEnd = 96;
  config.backend = SynthesisBackend::kMessagePassing;
  // Beside 3 ranks: a single rank's run and an odd rank count.
  for (const unsigned workers : {1u, 3u, 5u}) {
    config.workers = workers;
    NetworkSynthesizer mp(config);
    EXPECT_EQ(mp.synthesizeAdjacency(events).toTriplets(), reference)
        << workers << " ranks";
    EXPECT_EQ(mp.report().reduceMergedSums, workers) << workers << " ranks";
  }
}

TEST_F(DistributedSynthesisTest, WindowRestrictsResult) {
  const auto files = writeRandomLogs(42, 500, 2);
  SynthesisConfig narrow;
  narrow.windowStart = 10;
  narrow.windowEnd = 20;
  narrow.workers = 3;
  narrow.backend = SynthesisBackend::kMessagePassing;
  NetworkSynthesizer mp(narrow);
  const auto narrowResult = mp.synthesizeAdjacency(files);

  narrow.backend = SynthesisBackend::kSharedMemory;
  NetworkSynthesizer shared(narrow);
  EXPECT_EQ(narrowResult.toTriplets(),
            shared.synthesizeAdjacency(files).toTriplets());
}

TEST_F(DistributedSynthesisTest, AllAdjacencyMethodsAgree) {
  const auto files = writeRandomLogs(9, 600, 2);
  const auto reference =
      bruteForceAdjacency(elog::loadEvents(files, 0, 96), 0, 96);
  SynthesisConfig config;
  config.windowEnd = 96;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  NetworkSynthesizer localRun(config);
  EXPECT_EQ(localRun.synthesizeAdjacency(files).toTriplets(),
            reference.toTriplets());
  const auto& report = localRun.report();
  // Kernel stats travel over the wire beside the triplet runs.
  EXPECT_GT(report.kernelDensePlaces + report.kernelHashPlaces, 0u);
  EXPECT_GE(report.kernelPairHourUpdates, report.kernelGlobalEmits);
}

TEST(MpProtocol, RetiredMergeRunsCommandIsRejected) {
  // Command id 4 once ran a reduce-tree level. A stray frame carrying it
  // (say, from an older root) must fail the CHISIM_CHECK on unknown
  // commands, not be misread as another stage's body.
  util::ByteWriter writer;
  writer.u64(1);  // the retired body's run token
  writer.u32(0);  // and its pair count
  const std::vector<std::byte> body = writer.take();
  static_assert(mp::kCmdMergeShard == 5, "command ids are never renumbered");
  try {
    mp::executeSynthesisCommand(mp::StageParams{}, 4, body);
    FAIL() << "retired command 4 was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("CHISIM_CHECK"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("unknown synthesis executor "
                                             "command 4"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(DistributedSynthesisTest, RejectsBadInputs) {
  SynthesisConfig config;
  config.backend = SynthesisBackend::kMessagePassing;
  {
    NetworkSynthesizer mp(config);
    EXPECT_THROW(mp.synthesizeAdjacency(std::vector<std::filesystem::path>{}),
                 std::invalid_argument);
  }
  config.windowStart = config.windowEnd = 5;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
}

TEST_F(DistributedSynthesisTest, CorruptFileSurfacesOnMessagePassing) {
  auto files = writeRandomLogs(55, 300, 3);
  {
    std::ofstream corrupt(files[1], std::ios::binary | std::ios::trunc);
    corrupt << "not a clg5 file";
  }
  SynthesisConfig config;
  config.windowEnd = 96;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  NetworkSynthesizer mp(config);
  EXPECT_THROW(mp.synthesizeAdjacency(files), std::exception);
}

}  // namespace
}  // namespace chisimnet::net
