#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>

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

TEST(PlaceWeights, WeighsByNnzOverOccupiedHours) {
  // Place 7: persons 1 and 2 overlap hours [0,3) and person 3 is alone at
  // hour 5, so nnz 7 over 4 occupied hours (0,1,2,5). Place 8: person 5's
  // two rows overlap at hour 1; head counts 1,2,1 give nnz 4 over 3 hours,
  // one more than the matrix, which counts the duplicate presence once.
  // Place 9 lies outside the window and gets no weight.
  const std::vector<Event> rows{{0, 3, 1, 0, 7}, {0, 3, 2, 0, 7},
                                {5, 6, 3, 0, 7}, {0, 2, 5, 0, 8},
                                {1, 3, 5, 0, 8}, {9, 12, 4, 0, 9}};
  const table::EventTable events(rows);
  const table::PlaceIndex index = events.buildPlaceIndex();
  const PlaceWeights weighed = weighPlaces(events, index, 0, 8);
  EXPECT_EQ(weighed.groups, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(weighed.weights, (std::vector<std::uint64_t>{7 * 7 / 4, 4 * 4 / 3}));
  EXPECT_EQ(sparse::buildCollocationMatrix(events, index, 0, 0, 8).nnz(), 7u);
  EXPECT_EQ(sparse::buildCollocationMatrix(events, index, 1, 0, 8).nnz(), 3u);
}

/// Stage 5 under a budget: each worker sum writes at most one run file per
/// batch (shared) or per command (mp), however often it flushes, and the
/// sink adopts every run of a file under that file's one new name.
TEST(SpillFiles, EachWorkerSumWritesOneRunFile) {
  util::Rng rng(8);
  std::vector<Event> rows;
  for (int i = 0; i < 900; ++i) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(40));
    rows.push_back(Event{
        start, start + 1 + static_cast<table::Hour>(rng.uniformBelow(6)),
        static_cast<table::PersonId>(rng.uniformBelow(200)), 0,
        static_cast<table::PlaceId>(rng.uniformBelow(30))});
  }
  const table::EventTable events(rows);
  const table::PlaceIndex index = events.buildPlaceIndex();
  const PlaceWeights weighed = weighPlaces(events, index, 0, 48);
  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    const std::string label(backendName(backend));
    testsupport::ScratchDir spill("chisimnet_dist_sum_files_" + label);
    SynthesisConfig config;
    config.windowEnd = 48;
    config.workers = 3;
    config.backend = backend;
    config.memoryBudgetBytes = 32 << 10;  // flush after (nearly) every place
    config.spillDir = spill.path();
    config.mergeRowsPerShard = 16;
    // The sink comes first, as in a run: its startup sweep would take the
    // sums' unrenamed files for husks.
    sparse::SpillingAccumulator::Options options;
    options.dir = spill.path();
    options.rowsPerShard = 16;
    sparse::SpillingAccumulator sink(options);
    const std::unique_ptr<SynthesisExecutor> executor = makeExecutor(config);
    executor->mapAdjacency(events, index, weighed.groups,
                           executor->repartition(weighed.weights));
    std::size_t sumFiles = 0;
    for (const auto& entry : std::filesystem::directory_iterator(spill.path())) {
      EXPECT_TRUE(entry.path().filename().string().starts_with("sum."))
          << label << " " << entry.path();
      ++sumFiles;
    }
    EXPECT_GE(sumFiles, 1u) << label;
    EXPECT_LE(sumFiles, config.workers) << label;
    executor->reduceInto(sink);
    std::set<std::filesystem::path> adopted;
    for (const sparse::SpillRunInfo& run : sink.liveRuns()) {
      adopted.insert(run.file);
    }
    EXPECT_EQ(adopted.size(), sumFiles) << label;
    EXPECT_GT(sink.liveRuns().size(), 2 * sumFiles) << label;
  }
}

/// Merge owners by weight: eight shards whose run triplets fall like
/// upper-triangular rows (15, 13, ..., 1). Round robin over four owners
/// would load them 22:18:14:10; LPT gives each 16. Equal weights go to the
/// lower shard first, and each owner's list ascends.
TEST(MergeOwners, LptBalancesUpperTriangularShards) {
  std::vector<sparse::SpillingAccumulator::ShardRunGroup> groups;
  for (std::uint32_t shard = 0; shard < 8; ++shard) {
    sparse::SpillRunInfo run;
    run.triplets = 15 - 2 * shard;
    groups.push_back({shard, {run, sparse::SpillRunInfo{}}});
  }
  const auto owners = assignMergeOwners(groups, 4);
  ASSERT_EQ(owners.size(), 4u);
  for (const std::vector<std::size_t>& mine : owners) {
    std::uint64_t load = 0;
    for (const std::size_t g : mine) {
      load += groups[g].runs.front().triplets;
    }
    EXPECT_EQ(load, 16u);
    EXPECT_TRUE(std::is_sorted(mine.begin(), mine.end()));
  }
  EXPECT_EQ(owners[0], (std::vector<std::size_t>{0, 7}));

  // Ties: three equal groups over two owners; shard 0 goes first.
  groups.resize(3);
  for (auto& group : groups) {
    group.runs = {sparse::SpillRunInfo{}};
    group.runs.front().triplets = 5;
  }
  EXPECT_EQ(assignMergeOwners(groups, 2),
            (std::vector<std::vector<std::size_t>>{{0, 2}, {1}}));
  // More owners than groups: the rest idle.
  EXPECT_EQ(assignMergeOwners(groups, 5).size(), 5u);
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
  // Command id 4 once ran a reduce-tree level and id 1 a collocation-only
  // stage whose matrices returned to the root. A stray frame carrying
  // either (say, from an older root) must fail the CHISIM_CHECK on unknown
  // commands, not be misread as another stage's body.
  util::ByteWriter writer;
  writer.u64(1);  // the retired body's run token
  writer.u32(0);  // and its pair count
  const std::vector<std::byte> body = writer.take();
  static_assert(mp::kCmdAdjacency == 2 && mp::kCmdStop == 3 &&
                    mp::kCmdMergeShard == 5,
                "command ids are never renumbered");
  for (const std::uint32_t retired : {1u, 4u}) {
    try {
      mp::executeSynthesisCommand(mp::StageParams{}, retired, body);
      FAIL() << "retired command " << retired << " was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("CHISIM_CHECK"),
                std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what())
                    .find("unknown synthesis executor command " +
                          std::to_string(retired)),
                std::string::npos)
          << error.what();
    }
  }
}

/// A fused adjacency body as the root scatters it: [runToken u64]
/// [groupCount u32][groupCount × eventCount u32][event rows, group order].
std::vector<std::byte> fusedAdjacencyBody(
    const std::vector<std::vector<Event>>& groups) {
  util::ByteWriter writer;
  writer.u64(1);
  writer.u32(static_cast<std::uint32_t>(groups.size()));
  for (const std::vector<Event>& group : groups) {
    writer.u32(static_cast<std::uint32_t>(group.size()));
  }
  for (const std::vector<Event>& group : groups) {
    writer.rows(group);
  }
  return writer.take();
}

mp::StageParams fusedParams(table::Hour windowEnd) {
  mp::StageParams params;
  params.windowEnd = windowEnd;
  params.splitRows = 1;
  return params;
}

TEST(CollocationSerialization, RoundTrip) {
  // Event rows leave the root and come back only as the counts of the
  // matrices the worker built and their summed x·xᵀ, which must match a
  // local build of the same places.
  util::Rng rng(5);
  std::vector<std::vector<Event>> groups(2);
  for (int i = 0; i < 60; ++i) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(48));
    const table::PlaceId place = i % 3 == 0 ? 9 : 7;
    groups[place == 9].push_back(Event{
        start, start + 1 + static_cast<table::Hour>(rng.uniformBelow(5)),
        static_cast<table::PersonId>(rng.uniformBelow(15)), 0, place});
  }
  std::vector<Event> all;
  std::uint64_t expectedNnz = 0;
  for (const std::vector<Event>& group : groups) {
    expectedNnz +=
        sparse::CollocationMatrix(group.front().place, group, 0, 48).nnz();
    all.insert(all.end(), group.begin(), group.end());
  }

  const std::vector<std::byte> reply = mp::executeSynthesisCommand(
      fusedParams(48), mp::kCmdAdjacency, fusedAdjacencyBody(groups));
  util::ByteReader in(reply, "adjacency reply");
  in.f64();  // busy seconds
  EXPECT_EQ(in.u64(), 2u);
  EXPECT_EQ(in.u64(), expectedNnz);
  for (int stat = 0; stat < 5; ++stat) {
    in.u64();  // kernel stats and peak local bytes
  }
  ASSERT_EQ(in.u32(), 1u);
  const mp::RunRef run = mp::takeRunRef(in);
  in.expectEnd();
  EXPECT_FALSE(run.isFile());
  EXPECT_EQ(run.inlineRun,
            bruteForceAdjacency(table::EventTable(all), 0, 48).toTriplets());
}

/// A budgeted adjacency command flushes its sum many times, and every
/// flush goes to the command's one run file: the reply's file runs are
/// extents of it, back to back, and it is the only file the command left.
TEST(CollocationSerialization, AnAdjacencyCommandWritesOneRunFile) {
  testsupport::ScratchDir scratch("chisimnet_dist_one_run_file");
  util::Rng rng(6);
  std::vector<std::vector<Event>> groups(10);
  std::vector<Event> all;
  // 25 of 40 persons together for at least 17 hours: a place's 300 pairs
  // alone pass the 4 KiB (256-row) floor of the flush threshold.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto first = static_cast<table::PersonId>(rng.uniformBelow(40));
    for (table::PersonId i = 0; i < 25; ++i) {
      const auto start = static_cast<table::Hour>(rng.uniformBelow(4));
      groups[g].push_back(Event{
          start, start + 20 + static_cast<table::Hour>(rng.uniformBelow(6)),
          (first + i) % 40, 0, static_cast<table::PlaceId>(g)});
    }
    all.insert(all.end(), groups[g].begin(), groups[g].end());
  }
  mp::StageParams params = fusedParams(48);
  params.spillThresholdBytes = 1;  // flush after every place
  params.spillDir = scratch.path().string();
  params.splitRows = 8;
  const std::vector<std::byte> reply = mp::executeSynthesisCommand(
      params, mp::kCmdAdjacency, fusedAdjacencyBody(groups));
  util::ByteReader in(reply, "adjacency reply");
  for (int field = 0; field < 8; ++field) {
    in.u64();  // busy seconds, counts, kernel stats, peak local bytes
  }
  const std::uint32_t refs = in.u32();
  std::vector<sparse::SpillRunInfo> runs;
  std::vector<sparse::AdjacencyTriplet> rows;
  for (std::uint32_t r = 0; r < refs; ++r) {
    const mp::RunRef ref = mp::takeRunRef(in);
    ASSERT_TRUE(ref.isFile());
    runs.push_back(ref.run);
    sparse::SpillRunReader reader(ref.run);
    sparse::AdjacencyTriplet triplet;
    while (reader.next(triplet)) {
      rows.push_back(triplet);
    }
  }
  in.expectEnd();
  ASSERT_GT(runs.size(), groups.size());
  std::uint64_t end = 0;
  for (const sparse::SpillRunInfo& run : runs) {
    EXPECT_EQ(run.file, scratch.path() / "sum.t1.0.spl");
    EXPECT_EQ(run.offset, end);
    end += run.bytes;
  }
  EXPECT_EQ(end, std::filesystem::file_size(runs.front().file));
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    ++files;
  }
  EXPECT_EQ(files, 1u);
  // Summed over the runs, the rows are the command's whole x·xᵀ.
  sparse::SymmetricAdjacency sum(64);
  for (const sparse::AdjacencyTriplet& triplet : rows) {
    sum.add(triplet.i, triplet.j, triplet.weight);
  }
  EXPECT_EQ(sum.toTriplets(),
            bruteForceAdjacency(table::EventTable(all), 0, 48).toTriplets());
}

TEST(CollocationSerialization, TruncationDetected) {
  // Place 7 with persons 1 and 2, place 9 with person 3: 2 places, 3 + 3 +
  // 2 nnz. Every cut of the body is a typed error from the bounded reader.
  const std::vector<std::byte> body =
      fusedAdjacencyBody({{{0, 3, 1, 0, 7}, {1, 4, 2, 0, 7}}, {{0, 2, 3, 0, 9}}});
  const mp::StageParams params = fusedParams(8);
  const std::vector<std::byte> reply =
      mp::executeSynthesisCommand(params, mp::kCmdAdjacency, body);
  util::ByteReader in(reply, "adjacency reply");
  in.f64();  // busy seconds
  EXPECT_EQ(in.u64(), 2u);
  EXPECT_EQ(in.u64(), 8u);
  const std::span<const std::byte> whole(body);
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_THROW(mp::executeSynthesisCommand(params, mp::kCmdAdjacency,
                                             whole.first(cut)),
                 std::runtime_error)
        << "cut at byte " << cut;
  }
}

TEST(CollocationSerialization, InflatedCountIsRejected) {
  // A group or event count of 2^32-1 must be refused by the bound on the
  // bytes that follow, before any vector is sized from the count.
  const std::vector<std::byte> body =
      fusedAdjacencyBody({{{0, 3, 1, 0, 7}, {1, 4, 2, 0, 7}}, {{0, 2, 3, 0, 9}}});
  const auto inflated = [&body](std::size_t offset) {
    std::vector<std::byte> copy = body;
    std::fill_n(copy.begin() + static_cast<std::ptrdiff_t>(offset), 4,
                std::byte{0xFF});
    return copy;
  };
  const mp::StageParams params = fusedParams(8);
  EXPECT_THROW(mp::executeSynthesisCommand(params, mp::kCmdAdjacency,
                                           inflated(8)),
               std::runtime_error)
      << "group count 2^32-1";
  EXPECT_THROW(mp::executeSynthesisCommand(params, mp::kCmdAdjacency,
                                           inflated(12)),
               std::runtime_error)
      << "event count 2^32-1";
}

TEST(MpTraffic, EachEventRowIsScatteredOnce) {
  // The root sends each place's rows once, to the rank that owns the
  // place; no matrix crosses the wire in either direction.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const testsupport::FuzzCase fuzz = testsupport::makeCase(seed);
    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;
    config.backend = SynthesisBackend::kMessagePassing;
    NetworkSynthesizer mp(config);
    EXPECT_EQ(mp.synthesizeAdjacency(fuzz.events).toTriplets(),
              bruteForceAdjacency(fuzz.events, fuzz.windowStart,
                                  fuzz.windowEnd)
                  .toTriplets())
        << "seed " << seed;
    const SynthesisReport& report = mp.report();
    // One command per rank: frame header, run token and group count; one
    // event count per place.
    const std::uint64_t framing =
        config.workers * (mp::kCommandHeaderBytes + 8 + 4) +
        4 * report.placesProcessed;
    EXPECT_LE(report.bytesScattered,
              fuzz.events.size() * sizeof(table::Event) + framing)
        << "seed " << seed;
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
