#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

/// Randomized differential harness for the synthesis pipeline: seeded random
/// event tables — varying person/place counts, window edges, and adversarial
/// intervals (zero-length, out-of-window, window-edge-crossing) — written to
/// place-partitioned CLG5 files like real per-rank logs, then synthesized
/// across backends, worker counts, file batchings and memory budgets, and
/// compared edge-for-edge against bruteForceAdjacency.

namespace chisimnet::net {
namespace {

using table::Event;
using table::Hour;

using testsupport::expectEqualAdjacency;
using testsupport::FuzzCase;
using testsupport::ScratchDir;
using testsupport::writePlacePartitionedFiles;

/// An adversarial seeded case: zero-length intervals, intervals wholly
/// outside the window, and intervals straddling either window edge.
FuzzCase makeCase(std::uint64_t seed) {
  util::Rng rng(seed * 2654435761u + 17);
  FuzzCase out;
  const auto persons =
      static_cast<std::uint32_t>(8 + rng.uniformBelow(48));
  const auto places = static_cast<std::uint32_t>(2 + rng.uniformBelow(11));
  const Hour horizon = static_cast<Hour>(24 + rng.uniformBelow(48));
  out.windowStart = static_cast<Hour>(rng.uniformBelow(horizon / 3 + 1));
  out.windowEnd =
      out.windowStart + 4 + static_cast<Hour>(rng.uniformBelow(horizon));
  const std::size_t count = 60 + rng.uniformBelow(140);

  for (std::size_t i = 0; i < count; ++i) {
    Hour start = static_cast<Hour>(rng.uniformBelow(horizon));
    Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(9));
    switch (rng.uniformBelow(10)) {
      case 0:  // zero-length interval: contributes no presence hours
        end = start;
        break;
      case 1:  // fully after the window
        start = out.windowEnd + static_cast<Hour>(rng.uniformBelow(8));
        end = start + 1 + static_cast<Hour>(rng.uniformBelow(5));
        break;
      case 2:  // fully before the window (when there is room)
        if (out.windowStart > 1) {
          end = static_cast<Hour>(1 + rng.uniformBelow(out.windowStart - 1));
          start = static_cast<Hour>(rng.uniformBelow(end));
        }
        break;
      case 3:  // straddles the left window edge
        start = static_cast<Hour>(
            out.windowStart - std::min<Hour>(out.windowStart,
                                             1 + static_cast<Hour>(
                                                     rng.uniformBelow(4))));
        end = out.windowStart + 1 + static_cast<Hour>(rng.uniformBelow(6));
        break;
      case 4:  // straddles the right window edge
        start = out.windowEnd - std::min<Hour>(out.windowEnd,
                                               1 + static_cast<Hour>(
                                                       rng.uniformBelow(4)));
        end = out.windowEnd + 1 + static_cast<Hour>(rng.uniformBelow(6));
        break;
      case 5:  // spans the whole window
        start = static_cast<Hour>(
            rng.uniformBelow(out.windowStart + 1));
        end = out.windowEnd + static_cast<Hour>(rng.uniformBelow(4));
        break;
      default:
        break;  // generic in-horizon interval
    }
    out.events.append(Event{
        start, end, static_cast<table::PersonId>(rng.uniformBelow(persons)),
        static_cast<table::ActivityId>(rng.uniformBelow(5)),
        static_cast<table::PlaceId>(rng.uniformBelow(places))});
  }
  return out;
}

class SynthesisFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthesisFuzz, PipelineEqualsBruteForceAcrossConfigs) {
  const std::uint64_t seed = GetParam();
  const FuzzCase fuzz = makeCase(seed);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;

  // In-memory path first (no file machinery involved).
  config.workers = 3;
  {
    NetworkSynthesizer synthesizer(config);
    expectEqualAdjacency(synthesizer.synthesizeAdjacency(fuzz.events),
                         reference, "in-memory seed " + std::to_string(seed));
  }

  // File path: place-partitioned per-rank logs, batching varied by seed.
  ScratchDir scratch("chisimnet_fuzz_" + std::to_string(seed));
  const int fileCount = 3 + static_cast<int>(seed % 3);
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), fileCount);
  const std::size_t batchChoices[] = {0, 1, 2};
  config.filesPerBatch = batchChoices[seed % 3];

  for (const unsigned workers : {1u, 2u, 7u}) {
    config.workers = workers;
    NetworkSynthesizer synthesizer(config);
    const auto adjacency = synthesizer.synthesizeAdjacency(files);
    expectEqualAdjacency(adjacency, reference,
                         "seed " + std::to_string(seed) + " workers " +
                             std::to_string(workers));
    // The report must agree with the reference result regardless of how
    // the load was pipelined.
    const SynthesisReport& report = synthesizer.report();
    EXPECT_EQ(report.edges, reference.edgeCount());
    EXPECT_GE(report.loadOverlappedSeconds, 0.0);
    // The local-coordinate kernel and the root fold: the counters must be
    // self-consistent.
    EXPECT_GT(report.reduceMergedSums, 0u);
    EXPECT_LE(report.kernelDensePlaces + report.kernelHashPlaces,
              report.placesProcessed);
    EXPECT_LE(report.kernelGlobalEmits, report.kernelPairHourUpdates);
  }

  // Same seeds through the message-passing executor: both backends and the
  // brute force must agree edge-for-edge.
  config.backend = SynthesisBackend::kMessagePassing;
  for (const unsigned workers : {1u, 3u}) {
    config.workers = workers;
    NetworkSynthesizer synthesizer(config);
    expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                         "mp seed " + std::to_string(seed) + " workers " +
                             std::to_string(workers));
    EXPECT_GT(synthesizer.report().bytesScattered, 0u);
  }

  // Memory-budget axis: the disk-spilling accumulator is a perf/footprint
  // knob, never an output knob. A tight budget (forces spills every few
  // batches) and a pathological one (the 4 KiB threshold floor: spill on
  // practically every batch) must both stay bit-identical to the brute
  // force, per backend. A budgeted run finishes on disk: the streaming
  // file writer must produce the same CADJ bytes as saving the reference —
  // across the merge-shard width axis. 0 (auto) collapses fuzz-case person
  // counts into one shard; 16 rows per shard exercises a multi-segment
  // merge plan. The width is a perf knob only, never an output knob.
  const std::filesystem::path dense = scratch.path() / "dense.cadj";
  sparse::saveAdjacency(reference, dense);
  std::ifstream b(dense, std::ios::binary);
  const std::string bytesB((std::istreambuf_iterator<char>(b)),
                           std::istreambuf_iterator<char>());
  for (const std::uint64_t budget : {std::uint64_t{32} * 1024,
                                     std::uint64_t{1}}) {
    for (const SynthesisBackend backend :
         {SynthesisBackend::kSharedMemory,
          SynthesisBackend::kMessagePassing}) {
      config.backend = backend;
      config.workers = backend == SynthesisBackend::kSharedMemory ? 7u : 3u;
      config.memoryBudgetBytes = budget;
      const std::string label = "seed " + std::to_string(seed) + " " +
                                backendName(backend) + " budget " +
                                std::to_string(budget);
      for (const std::uint32_t rowsPerShard : {0u, 16u}) {
        config.mergeRowsPerShard = rowsPerShard;
        const std::string shardLabel =
            label + " merge-rows " + std::to_string(rowsPerShard);
        const std::filesystem::path streamed =
            scratch.path() / ("streamed_" + shardLabel + ".cadj");
        NetworkSynthesizer streaming(config);
        const std::uint64_t edges =
            streaming.synthesizeToFile(files, streamed);
        EXPECT_EQ(edges, reference.edgeCount()) << shardLabel;
        expectEqualAdjacency(sparse::loadAdjacency(streamed), reference,
                             shardLabel);
        std::ifstream a(streamed, std::ios::binary);
        const std::string bytesA((std::istreambuf_iterator<char>(a)),
                                 std::istreambuf_iterator<char>());
        EXPECT_EQ(bytesA, bytesB) << shardLabel;
        const SynthesisReport& report = streaming.report();
        EXPECT_EQ(report.reduceShardsUsed, config.workers) << shardLabel;
        EXPECT_EQ(report.memoryBudgetBytes, budget) << shardLabel;
        EXPECT_GT(report.spillRunsWritten, 0u) << shardLabel;
        // Budget ceiling, floor-aware: sub-threshold budgets are clamped
        // to the 4 KiB spill-threshold floor, so the enforceable cap is
        // max(budget, a few multiples of the floor).
        EXPECT_LE(report.peakAccumulatorBytes,
                  std::max<std::uint64_t>(budget, 16 * 1024))
            << shardLabel;
      }
      config.mergeRowsPerShard = 0;
    }
  }
  config.memoryBudgetBytes = 0;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisFuzz,
                         ::testing::Range<std::uint64_t>(0, 100));

/// Process-transport column: the same differential check with the mp
/// backend's workers in separate OS processes. A seed subset — each case
/// forks real workers, so the full 100-seed sweep would dominate the
/// suite's wall clock for no added coverage of the (seed-independent)
/// transport.
class SynthesisFuzzProcess : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SynthesisFuzzProcess, ProcessTransportEqualsBruteForce) {
  const std::uint64_t seed = GetParam();
  const FuzzCase fuzz = makeCase(seed);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_fuzz_proc_" + std::to_string(seed));
  const int fileCount = 3 + static_cast<int>(seed % 3);
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), fileCount);

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.workers = 2 + static_cast<unsigned>(seed % 2);
  config.filesPerBatch = seed % 3;
  NetworkSynthesizer synthesizer(config);
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "process seed " + std::to_string(seed));
  EXPECT_EQ(synthesizer.report().ranksLost, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisFuzzProcess,
                         ::testing::Range<std::uint64_t>(0, 8));

/// Satellite: filesPerBatch in {1, 3, all} over the same on-disk log set
/// must produce identical adjacencies and consistent report counters.
TEST(SynthesisBatching, BatchSizeInvariantOverSameLogSet) {
  for (const std::uint64_t seed : {3u, 11u, 27u}) {
    const FuzzCase fuzz = makeCase(seed + 1000);
    ScratchDir scratch("chisimnet_batch_eq_" + std::to_string(seed));
    const auto files =
        writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);

    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;

    config.filesPerBatch = 0;  // all files, one batch
    NetworkSynthesizer whole(config);
    const auto wholeAdjacency = whole.synthesizeAdjacency(files);
    const SynthesisReport wholeReport = whole.report();
    EXPECT_EQ(wholeReport.batches, 1u);

    for (const SynthesisBackend backend :
         {SynthesisBackend::kSharedMemory,
          SynthesisBackend::kMessagePassing}) {
      for (const std::size_t filesPerBatch :
           {std::size_t{1}, std::size_t{3}}) {
        config.backend = backend;
        config.filesPerBatch = filesPerBatch;
        NetworkSynthesizer batched(config);
        const auto adjacency = batched.synthesizeAdjacency(files);
        const SynthesisReport& report = batched.report();
        const std::string label =
            "seed " + std::to_string(seed) + " " + backendName(backend) +
            " filesPerBatch " + std::to_string(filesPerBatch);
        expectEqualAdjacency(adjacency, wholeAdjacency, label);
        EXPECT_EQ(report.logEntriesLoaded, wholeReport.logEntriesLoaded)
            << label;
        EXPECT_EQ(report.placesProcessed, wholeReport.placesProcessed)
            << label;
        EXPECT_EQ(report.collocationNnz, wholeReport.collocationNnz)
            << label;
        EXPECT_EQ(report.edges, wholeReport.edges) << label;
        EXPECT_EQ(report.batches,
                  (files.size() + filesPerBatch - 1) / filesPerBatch)
            << label;
      }
    }
  }
}

/// Degrade-mode differential check: corrupt one input file per seed and
/// require the degraded run to equal the brute force over exactly the
/// surviving files — on both backends — with the
/// quarantine report naming the corrupted file.
TEST(SynthesisBatching, DegradedRunEqualsBruteForceOverSurvivors) {
  for (const std::uint64_t seed : {2u, 19u, 38u}) {
    const FuzzCase fuzz = makeCase(seed + 5000);
    ScratchDir scratch("chisimnet_fuzz_degrade_" + std::to_string(seed));
    const int fileCount = 4 + static_cast<int>(seed % 3);
    auto files =
        writePlacePartitionedFiles(fuzz.events, scratch.path(), fileCount);
    const std::size_t victim = seed % files.size();
    // Halving the file destroys the footer, so the whole file quarantines.
    std::filesystem::resize_file(files[victim],
                                 std::filesystem::file_size(files[victim]) /
                                     2);
    std::vector<std::filesystem::path> survivors = files;
    survivors.erase(survivors.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    const auto reference = bruteForceAdjacency(
        elog::loadEvents(survivors, fuzz.windowStart, fuzz.windowEnd),
        fuzz.windowStart, fuzz.windowEnd);

    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;
    config.filesPerBatch = 1 + seed % 2;
    config.faultPolicy = FaultPolicy::kDegrade;
    for (const SynthesisBackend backend :
         {SynthesisBackend::kSharedMemory,
          SynthesisBackend::kMessagePassing}) {
      config.backend = backend;
      NetworkSynthesizer synthesizer(config);
      const auto adjacency = synthesizer.synthesizeAdjacency(files);
      const std::string label = "degrade seed " + std::to_string(seed) +
                                " " + backendName(backend);
      expectEqualAdjacency(adjacency, reference, label);
      const SynthesisReport& report = synthesizer.report();
      ASSERT_EQ(report.quarantined.size(), 1u) << label;
      EXPECT_EQ(report.quarantined[0].file, files[victim]) << label;
      EXPECT_FALSE(report.quarantined[0].reason.empty()) << label;
    }
  }
}

/// A decode failure inside the background loader must surface on the
/// consumer thread as a normal exception, not crash the process.
TEST(SynthesisBatching, CorruptFileSurfacesAsException) {
  const FuzzCase fuzz = makeCase(77);
  ScratchDir scratch("chisimnet_fuzz_corrupt");
  auto files = writePlacePartitionedFiles(fuzz.events, scratch.path(), 3);
  {
    std::ofstream corrupt(files[1], std::ios::binary | std::ios::trunc);
    corrupt << "not a clg5 file";
  }
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 2;
  config.filesPerBatch = 1;
  NetworkSynthesizer synthesizer(config);
  EXPECT_THROW(synthesizer.synthesizeAdjacency(files), std::exception);
}

}  // namespace
}  // namespace chisimnet::net

/// The process-transport cases re-enter this binary for their workers, so
/// the worker hook must run before gtest takes over.
int main(int argc, char** argv) {
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
