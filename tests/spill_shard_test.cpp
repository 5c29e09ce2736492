#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/checkpoint.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

/// Sharded external-merge suite: the shard merge plan (straddler splitting,
/// empty and single-row shards, unknown-range runs), per-shard segment
/// merges whose concatenation must be byte-identical to a one-shard
/// loser-tree CADJ, a torn run inside an owner's merge, the orphaned-.tmp
/// fresh-start sweep, end-to-end byte identity across shard counts and
/// backends, the extended checkpoint manifest (key ranges + merge
/// segments), cross-mode resume under a sharded merge, and
/// kill-during-merge resume that re-merges only the unfinished shards.

namespace chisimnet::sparse {
namespace {

using testsupport::ScratchDir;

/// A strictly key-ascending random run: distinct (i, j) pairs, sorted.
std::vector<AdjacencyTriplet> makeRun(util::Rng& rng, std::size_t size,
                                      std::uint32_t personSpace) {
  std::map<std::uint64_t, std::uint64_t> byKey;
  while (byKey.size() < size) {
    const auto a = static_cast<std::uint32_t>(rng.uniformBelow(personSpace));
    const auto b = static_cast<std::uint32_t>(rng.uniformBelow(personSpace));
    if (a == b) {
      continue;
    }
    byKey[packPair(a, b)] += 1 + rng.uniformBelow(100);
  }
  std::vector<AdjacencyTriplet> run;
  run.reserve(byKey.size());
  for (const auto& [key, weight] : byKey) {
    run.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  return run;
}

std::vector<AdjacencyTriplet> bruteForceSum(
    const std::vector<std::vector<AdjacencyTriplet>>& runs) {
  std::map<std::uint64_t, std::uint64_t> sum;
  for (const auto& run : runs) {
    for (const AdjacencyTriplet& triplet : run) {
      sum[packPair(triplet.i, triplet.j)] += triplet.weight;
    }
  }
  std::vector<AdjacencyTriplet> merged;
  merged.reserve(sum.size());
  for (const auto& [key, weight] : sum) {
    merged.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  return merged;
}

std::vector<AdjacencyTriplet> drain(TripletSource& source) {
  std::vector<AdjacencyTriplet> out;
  AdjacencyTriplet triplet;
  while (source.next(triplet)) {
    out.push_back(triplet);
  }
  return out;
}

std::string fileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---- shard merge plan ----

TEST(ShardMergePlanTest, StraddlingRunsAreSplitShardPure) {
  ScratchDir scratch("chisimnet_shard_plan_straddle");
  util::Rng rng(101);
  // Row space 64 over 4-row shards: runs from whole-space spills straddle
  // many shard boundaries. (64 persons cap out at C(64,2) = 2016 distinct
  // pairs; stay well below so makeRun terminates.)
  const std::vector<AdjacencyTriplet> adds = makeRun(rng, 1500, 64);

  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.rowsPerShard = 4;
  SpillingAccumulator accumulator(options);
  // Adopted whole-space runs (e.g. written at a coarser shard width)
  // straddle many 4-row shards; kept runs written by spillAll are
  // shard-pure by construction. Mix both so the plan has to split and
  // regroup.
  std::vector<std::vector<AdjacencyTriplet>> slices =
      testsupport::sortedSlices(adds, adds.size() / 5);
  for (std::size_t n = 0; n < slices.size(); ++n) {
    if (n % 2 == 0) {
      SpillRunWriter writer(scratch.path() /
                            ("w0.x" + std::to_string(n) + ".spl"));
      writer.append(std::span<const AdjacencyTriplet>(slices[n]));
      accumulator.adoptRunFile(writer.finish());
    } else {
      accumulator.addSortedRun(std::move(slices[n]));
      accumulator.spillAll();
    }
  }
  const auto plan = accumulator.buildShardMergePlan();
  ASSERT_FALSE(plan.empty());
  std::uint32_t previousShard = 0;
  bool first = true;
  for (const auto& group : plan) {
    EXPECT_TRUE(first || group.shard > previousShard) << "ascending shards";
    previousShard = group.shard;
    first = false;
    for (const SpillRunInfo& run : group.runs) {
      EXPECT_EQ(run.shardOf(options.rowsPerShard),
                static_cast<std::int64_t>(group.shard))
          << run.file;
    }
  }
  // liveRuns() reflects the split set the plan references.
  EXPECT_GT(accumulator.stats().runsSplit, 0u);
  std::size_t planned = 0;
  for (const auto& group : plan) {
    planned += group.runs.size();
  }
  EXPECT_EQ(planned, accumulator.liveRuns().size());

  EXPECT_EQ(testsupport::mergePlanRows(plan, scratch.path()),
            bruteForceSum({adds}));
}

TEST(ShardMergePlanTest, EmptyAndSingleRowShards) {
  ScratchDir scratch("chisimnet_shard_plan_sparse_rows");
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.rowsPerShard = 1;  // every row its own shard
  SpillingAccumulator accumulator(options);
  // Rows 2, 7 and 40 only: shards in between stay empty and absent.
  const std::vector<AdjacencyTriplet> want = {
      AdjacencyTriplet{2, 90, 1}, AdjacencyTriplet{7, 8, 2},
      AdjacencyTriplet{7, 9, 3}, AdjacencyTriplet{40, 41, 4}};
  accumulator.addSortedRun(std::vector<AdjacencyTriplet>(want));
  accumulator.spillAll();
  const auto plan = accumulator.buildShardMergePlan();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].shard, 2u);
  EXPECT_EQ(plan[1].shard, 7u);
  EXPECT_EQ(plan[2].shard, 40u);
  EXPECT_EQ(testsupport::mergePlanRows(plan, scratch.path()), want);
}

TEST(ShardMergePlanTest, EmptyAccumulatorYieldsEmptyPlan) {
  ScratchDir scratch("chisimnet_shard_plan_empty");
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  EXPECT_TRUE(accumulator.buildShardMergePlan().empty());
}

// ---- segment concatenation vs the serial merge ----

TEST(ShardMergeTest, SegmentsConcatenateByteIdenticalToSerialCadj) {
  ScratchDir scratch("chisimnet_shard_concat");
  util::Rng rng(107);
  // 96 persons allow C(96,2) = 4560 distinct pairs; stay below that.
  const std::vector<AdjacencyTriplet> adds = makeRun(rng, 3000, 96);

  const auto feed = [&](SpillingAccumulator& accumulator) {
    for (std::vector<AdjacencyTriplet>& slice :
         testsupport::sortedSlices(adds, adds.size() / 7)) {
      accumulator.addSortedRun(std::move(slice));
      accumulator.spillAll();
    }
  };

  // Serial reference: at the default shard width every run falls in one
  // shard, so one loser tree merges them all; its rows go into a CADJ.
  const std::filesystem::path serialOut = scratch.path() / "serial.cadj";
  {
    SpillingAccumulator::Options options;
    options.dir = scratch.path() / "serial";
    SpillingAccumulator accumulator(options);
    feed(accumulator);
    std::vector<ShardSegment> segments;
    saveTriplets(
        testsupport::drainAccumulator(accumulator, options.dir, &segments),
        serialOut);
    ASSERT_EQ(segments.size(), 1u);
  }
  const std::string serialBytes = fileBytes(serialOut);

  SpillingAccumulator::Options options;
  options.dir = scratch.path() / "sharded";
  options.rowsPerShard = 16;  // 96-row space -> several shards
  SpillingAccumulator accumulator(options);
  feed(accumulator);
  const auto plan = accumulator.buildShardMergePlan();
  ASSERT_GT(plan.size(), 1u);
  const std::filesystem::path out = scratch.path() / "sharded.cadj";
  StreamingTripletWriter writer(out);
  for (const auto& group : plan) {
    const ShardSegment segment = mergeShardRuns(
        group.shard, group.runs,
        options.dir / ("seg." + std::to_string(group.shard) + ".cseg"));
    writer.appendSegmentFile(segment);
  }
  writer.finish();
  EXPECT_EQ(fileBytes(out), serialBytes);
}

/// A run torn at rest fails its owner's merge with the run's file and
/// byte offset in the error, not a short segment. The tear is in the
/// second frame, so the run's recorded extent now ends past the file and
/// its reader refuses it before the merge streams a row; no segment is
/// left under its real name.
TEST(ShardMergeTest, TruncatedRunFailsTheOwnerMerge) {
  ScratchDir scratch("chisimnet_shard_merge_trunc");
  util::Rng rng(109);
  std::vector<SpillRunInfo> runs;
  for (int n = 0; n < 3; ++n) {
    const std::vector<AdjacencyTriplet> run =
        makeRun(rng, n == 1 ? kSpillFrameTriplets + 5000 : 500, 1u << 16);
    SpillRunWriter writer(scratch.path() /
                          ("run." + std::to_string(n) + ".spl"));
    writer.append(std::span<const AdjacencyTriplet>(run));
    runs.push_back(writer.finish());
  }
  const std::filesystem::path torn = runs[1].file;
  std::filesystem::resize_file(torn, std::filesystem::file_size(torn) - 1000);
  const std::filesystem::path segmentFile = scratch.path() / "seg.0.cseg";
  try {
    mergeShardRuns(0, runs, segmentFile);
    FAIL() << "a truncated run should fail the shard merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(torn.string()), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
  EXPECT_FALSE(std::filesystem::exists(segmentFile));
}

/// 70 tiny one-shard runs with overlapping keys: the owner merges them in
/// bounded passes (never more than kMergeFanIn readers plus one writer
/// open), the segment equals the brute-force sum and one loser tree over
/// all 70 runs, the inputs are untouched, and no pass file is left.
TEST(ShardMergeTest, BoundedPassesMatchOneWideMerge) {
  ScratchDir scratch("chisimnet_shard_bounded_passes");
  util::Rng rng(113);
  std::vector<std::vector<AdjacencyTriplet>> rows;
  std::vector<SpillRunInfo> runs;
  for (int n = 0; n < 70; ++n) {
    rows.push_back(makeRun(rng, 1 + rng.uniformBelow(40), 30));
    SpillRunWriter writer(scratch.path() /
                          ("run." + std::to_string(n) + ".spl"));
    writer.append(std::span<const AdjacencyTriplet>(rows.back()));
    runs.push_back(writer.finish());
  }
  std::map<std::string, std::string> inputBytes;
  for (const SpillRunInfo& run : runs) {
    inputBytes[run.file.string()] = fileBytes(run.file);
  }
  std::vector<AdjacencyTriplet> wide;
  {
    std::vector<std::unique_ptr<TripletSource>> readers;
    for (const SpillRunInfo& run : runs) {
      readers.push_back(std::make_unique<SpillRunReader>(run.file));
    }
    TripletMerger merger(std::move(readers));
    wide = drain(merger);
  }
  EXPECT_EQ(wide, bruteForceSum(rows));

  ShardSegment segment;
  {
    const testsupport::OpenFileHeadroom headroom(
        static_cast<int>(kMergeFanIn) + 1);
    segment = mergeShardRuns(0, runs, scratch.path() / "seg.0.t9.cseg");
  }
  EXPECT_EQ(testsupport::segmentRows(segment), wide);
  // A first pass of 8 leaves 63 runs, one full pass leaves 32.
  EXPECT_EQ(segment.mergePasses, 2u);
  EXPECT_GT(segment.mergePassBytes, 0u);

  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".p"), std::string::npos) << name;
    ++files;
  }
  EXPECT_EQ(files, runs.size() + 1);  // the inputs and the segment
  for (const auto& [file, bytes] : inputBytes) {
    EXPECT_EQ(fileBytes(file), bytes) << file;
  }
}

// ---- fresh-start GC of orphaned .tmp run files ----

TEST(SpillGcTest, FreshStartSweepsOrphanedTmpRuns) {
  ScratchDir scratch("chisimnet_shard_tmp_sweep");
  // A SIGKILL during spill-write leaves a complete-but-unrenamed .tmp; a
  // fresh (non-checkpoint) accumulator over the same directory must sweep
  // it instead of letting husks accumulate across restarts.
  const std::filesystem::path orphan = scratch.path() / "run.3.spl.tmp";
  {
    std::ofstream husk(orphan, std::ios::binary);
    husk << "torn spill write";
  }
  // Foreign prefixes are not ours to clean.
  const std::filesystem::path foreign = scratch.path() / "other.1.spl.tmp";
  {
    std::ofstream keep(foreign, std::ios::binary);
    keep << "different prefix";
  }
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_TRUE(std::filesystem::exists(foreign));
  // The sweep must not disturb numbering of real runs.
  accumulator.addSortedRun({AdjacencyTriplet{1, 2, 3}});
  accumulator.spillAll();
  ASSERT_EQ(accumulator.liveRuns().size(), 1u);
  EXPECT_EQ(testsupport::drainAccumulator(accumulator, scratch.path()),
            (std::vector<AdjacencyTriplet>{AdjacencyTriplet{1, 2, 3}}));
}

}  // namespace
}  // namespace chisimnet::sparse

namespace chisimnet::net {
namespace {

using runtime::FaultAction;
using runtime::FaultInjected;
using runtime::FaultPlan;
using runtime::FaultSpec;
using table::Event;
using table::Hour;

using testsupport::FuzzCase;
using testsupport::ScratchDir;
using testsupport::writePlacePartitionedFiles;

/// Larger than the shared case (40+ persons, 200+ events) so spills split
/// across several row-range shards.
FuzzCase makeCase(std::uint64_t seed) {
  util::Rng rng(seed * 2654435761u + 17);
  FuzzCase out;
  const auto persons = static_cast<std::uint32_t>(40 + rng.uniformBelow(80));
  const auto places = static_cast<std::uint32_t>(4 + rng.uniformBelow(10));
  out.windowStart = static_cast<Hour>(rng.uniformBelow(8));
  out.windowEnd =
      out.windowStart + 24 + static_cast<Hour>(rng.uniformBelow(48));
  const std::size_t count = 200 + rng.uniformBelow(200);
  for (std::size_t i = 0; i < count; ++i) {
    const Hour start = static_cast<Hour>(rng.uniformBelow(out.windowEnd + 8));
    const Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(9));
    out.events.append(Event{
        start, end, static_cast<table::PersonId>(rng.uniformBelow(persons)),
        static_cast<table::ActivityId>(rng.uniformBelow(5)),
        static_cast<table::PlaceId>(rng.uniformBelow(places))});
  }
  return out;
}

std::string fileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---- byte identity across shard counts and backends ----

/// Acceptance: the final CADJ must be byte-identical across merge owner
/// counts (the workers, a single owner included) and both backends — and
/// identical to saveAdjacency of the unbudgeted dense result.
TEST(ShardedSynthesisTest, ByteIdenticalAcrossShardCountsAndBackends) {
  const FuzzCase fuzz = makeCase(301);
  ScratchDir scratch("chisimnet_shard_synth_identity");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;

  // Reference bytes: the unbudgeted dense result through saveAdjacency.
  const std::filesystem::path densePath = scratch.path() / "dense.cadj";
  {
    NetworkSynthesizer dense(config);
    sparse::saveAdjacency(dense.synthesizeAdjacency(files), densePath);
  }
  const std::string want = fileBytes(densePath);

  config.memoryBudgetBytes = std::uint64_t{32} << 20;
  config.mergeRowsPerShard = 8;  // small rows force a multi-shard layout
  int variant = 0;
  for (const SynthesisBackend backend :
       {SynthesisBackend::kSharedMemory, SynthesisBackend::kMessagePassing}) {
    for (const unsigned workers : {1u, 3u, 5u}) {
      const std::string label = std::string(backendName(backend)) +
                                " owners " + std::to_string(workers);
      config.backend = backend;
      config.workers = workers;
      ScratchDir spill("chisimnet_shard_synth_identity_spill_" +
                       std::to_string(variant));
      config.spillDir = spill.path();
      const std::filesystem::path out =
          scratch.path() / ("v" + std::to_string(variant) + ".cadj");
      ++variant;
      NetworkSynthesizer synthesizer(config);
      synthesizer.synthesizeToFile(files, out);
      EXPECT_EQ(fileBytes(out), want) << label;
      const SynthesisReport& report = synthesizer.report();
      EXPECT_EQ(report.reduceShardsUsed, workers) << label;
      EXPECT_GT(report.mergeSegmentsWritten, 0u) << label;
      EXPECT_GE(report.mergeSeconds, report.mergeCriticalSeconds) << label;
    }
  }
}

// ---- checkpoint manifest: key ranges + merge segments ----

TEST(ShardedCheckpointTest, ManifestRoundTripsRangesAndMergeSegments) {
  ScratchDir scratch("chisimnet_shard_manifest");
  const auto spillDir = scratch.path() / "spill";
  std::filesystem::create_directories(spillDir);
  sparse::SpillRunInfo run;
  {
    sparse::SpillRunWriter writer(spillDir / "run.0.spl");
    writer.append(sparse::AdjacencyTriplet{3, 9, 5});
    writer.append(sparse::AdjacencyTriplet{7, 8, 2});
    run = writer.finish();
  }
  // A fake segment file the manifest references; only identity fields are
  // round-tripped here, content is irrelevant.
  {
    std::ofstream segment(spillDir / "seg.0.cseg", std::ios::binary);
    segment << "payload";
  }
  std::ofstream(spillDir / "seg.9.cseg") << "orphan";      // GC target
  std::ofstream(spillDir / "seg.4.cseg.tmp") << "husk";    // GC target

  CheckpointManifest manifest;
  manifest.filesConsumed = 2;
  manifest.batchesDone = 1;
  manifest.configHash = 0xC0FFEE;
  manifest.spillRuns.push_back(run);
  manifest.mergeSegments.push_back(
      sparse::ShardSegment{0, "seg.0.cseg", 2, 32, 0xABCD1234});
  saveCheckpoint(scratch.path(), manifest, spillDir);

  const auto loaded = loadCheckpointManifest(scratch.path());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->spillRuns.size(), 1u);
  EXPECT_EQ(loaded->spillRuns[0].firstKey, run.firstKey);
  EXPECT_EQ(loaded->spillRuns[0].lastKey, run.lastKey);
  ASSERT_EQ(loaded->mergeSegments.size(), 1u);
  EXPECT_EQ(loaded->mergeSegments[0].shard, 0u);
  EXPECT_EQ(loaded->mergeSegments[0].file, "seg.0.cseg");
  EXPECT_EQ(loaded->mergeSegments[0].triplets, 2u);
  EXPECT_EQ(loaded->mergeSegments[0].bytes, 32u);
  EXPECT_EQ(loaded->mergeSegments[0].crc, 0xABCD1234u);
  // GC: the referenced segment survives; the orphan and .tmp husk go.
  EXPECT_TRUE(std::filesystem::exists(spillDir / "seg.0.cseg"));
  EXPECT_FALSE(std::filesystem::exists(spillDir / "seg.9.cseg"));
  EXPECT_FALSE(std::filesystem::exists(spillDir / "seg.4.cseg.tmp"));
}

// ---- kill during the sharded merge ----

/// Acceptance: kill the run between per-shard segments (spill.shard site),
/// resume, and require (a) byte-identical output and (b) that only the
/// unfinished shards were re-merged — the checkpointed segments splice in.
TEST(ShardedSynthesisTest, KillDuringMergeResumesOnlyUnfinishedShards) {
  const FuzzCase fuzz = makeCase(303);
  ScratchDir scratch("chisimnet_shard_kill_merge");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  ScratchDir checkpoints("chisimnet_shard_kill_merge_ckpt");

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 2;
  config.filesPerBatch = 2;
  config.memoryBudgetBytes = std::uint64_t{32} << 20;
  config.mergeRowsPerShard = 8;

  // Reference: uninterrupted sharded run, no checkpointing.
  const std::filesystem::path referencePath = scratch.path() / "ref.cadj";
  std::uint64_t totalSegments = 0;
  {
    NetworkSynthesizer reference(config);
    reference.synthesizeToFile(files, referencePath);
    totalSegments = reference.report().mergeSegmentsWritten;
  }
  const std::string want = fileBytes(referencePath);

  ASSERT_GE(totalSegments, 4u) << "case must leave unfinished shards after "
                                  "every owner dies";

  config.checkpointDir = checkpoints.path();
  {
    // Arm every hit from 2 on: the executor keeps surviving owners merging
    // after one throws, so a single-hit fault would let them finish the
    // whole plan before the exception surfaces. With all later hits armed,
    // each owner dies right after its next checkpointed segment — at most
    // one extra segment per concurrently-running owner completes.
    FaultPlan plan;
    for (std::uint64_t hit = 2; hit <= 64; ++hit) {
      plan.at("spill.shard",
              FaultSpec{.action = FaultAction::kThrow, .hit = hit});
    }
    runtime::fault::ScopedFaultPlan scoped(plan);
    NetworkSynthesizer interrupted(config);
    EXPECT_THROW(
        interrupted.synthesizeToFile(files, scratch.path() / "dead.cadj"),
        FaultInjected);
  }
  // The manifest names the finished segments: at least the two that
  // checkpointed before the first throw, but not the full plan.
  const auto manifest = loadCheckpointManifest(checkpoints.path());
  ASSERT_TRUE(manifest.has_value());
  const std::size_t finished = manifest->mergeSegments.size();
  ASSERT_GE(finished, 2u);
  ASSERT_LT(finished, totalSegments);
  for (const sparse::ShardSegment& segment : manifest->mergeSegments) {
    EXPECT_TRUE(std::filesystem::exists(checkpoints.path() / "spill" /
                                        segment.file))
        << segment.file;
  }

  config.resume = true;
  const std::filesystem::path resumedPath = scratch.path() / "resumed.cadj";
  NetworkSynthesizer resumed(config);
  resumed.synthesizeToFile(files, resumedPath);
  EXPECT_EQ(fileBytes(resumedPath), want);
  const SynthesisReport& report = resumed.report();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.mergeSegmentsReused, finished);
  EXPECT_GT(report.mergeSegmentsWritten, 0u);
  EXPECT_EQ(report.mergeSegmentsWritten + report.mergeSegmentsReused,
            totalSegments);
}

// ---- cross-mode resume under the sharded merge ----

/// An unbudgeted checkpoint resumed into a budgeted sharded-merge run, and
/// a budgeted checkpoint resumed into an unbudgeted run: both must
/// reproduce the uninterrupted bytes. The budget and shard width stay
/// outside the config hash, so the cross-mode switch is legal.
TEST(ShardedSynthesisTest, CrossModeResumeUnderShardedMerge) {
  const FuzzCase fuzz = makeCase(307);
  ScratchDir scratch("chisimnet_shard_cross_mode");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);

  SynthesisConfig base;
  base.windowStart = fuzz.windowStart;
  base.windowEnd = fuzz.windowEnd;
  base.workers = 2;
  base.filesPerBatch = 2;

  // Reference bytes from the unbudgeted dense path.
  const std::filesystem::path densePath = scratch.path() / "dense.cadj";
  {
    NetworkSynthesizer dense(base);
    sparse::saveAdjacency(dense.synthesizeAdjacency(files), densePath);
  }
  const std::string want = fileBytes(densePath);

  // dense checkpoint -> sharded budgeted resume.
  {
    ScratchDir checkpoints("chisimnet_shard_cross_mode_d2s");
    SynthesisConfig config = base;
    config.checkpointDir = checkpoints.path();
    {
      FaultPlan plan;
      plan.at("driver.batch",
              FaultSpec{.action = FaultAction::kThrow, .hit = 2});
      runtime::fault::ScopedFaultPlan scoped(plan);
      NetworkSynthesizer interrupted(config);
      EXPECT_THROW(interrupted.synthesizeAdjacency(files), FaultInjected);
    }
    config.resume = true;
    config.memoryBudgetBytes = std::uint64_t{32} << 20;
    config.mergeRowsPerShard = 8;
    const std::filesystem::path out = scratch.path() / "d2s.cadj";
    NetworkSynthesizer resumed(config);
    resumed.synthesizeToFile(files, out);
    EXPECT_EQ(fileBytes(out), want) << "dense -> sharded spill";
    EXPECT_GT(resumed.report().mergeSegmentsWritten, 0u);
  }

  // sharded spill checkpoint -> dense resume (the runs must fold into the
  // dense map).
  {
    ScratchDir checkpoints("chisimnet_shard_cross_mode_s2d");
    SynthesisConfig config = base;
    config.checkpointDir = checkpoints.path();
    config.memoryBudgetBytes = std::uint64_t{32} << 20;
    config.mergeRowsPerShard = 8;
    {
      FaultPlan plan;
      plan.at("driver.batch",
              FaultSpec{.action = FaultAction::kThrow, .hit = 2});
      runtime::fault::ScopedFaultPlan scoped(plan);
      NetworkSynthesizer interrupted(config);
      EXPECT_THROW(
          interrupted.synthesizeToFile(files, scratch.path() / "dead.cadj"),
          FaultInjected);
    }
    config.resume = true;
    config.memoryBudgetBytes = 0;
    config.mergeRowsPerShard = 0;
    const std::filesystem::path out = scratch.path() / "s2d.cadj";
    NetworkSynthesizer resumed(config);
    sparse::saveAdjacency(resumed.synthesizeAdjacency(files), out);
    EXPECT_EQ(fileBytes(out), want) << "sharded spill -> dense";
  }
}

/// The unbudgeted checkpoint writes its dense sum as runs split at the
/// merge-shard boundaries, so a budgeted resume with the same workers (and
/// so the same shard width) adopts every run shard-pure: the merge plan
/// splits nothing.
TEST(ShardedSynthesisTest, BudgetedResumeOfUnboundedCheckpointSplitsNoRuns) {
  const FuzzCase fuzz = makeCase(311);
  ScratchDir scratch("chisimnet_shard_resume_no_split");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);
  ScratchDir checkpoints("chisimnet_shard_resume_no_split_ckpt");

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.filesPerBatch = 2;
  config.mergeRowsPerShard = 8;  // several shards at fuzz-case sizes
  const std::filesystem::path densePath = scratch.path() / "dense.cadj";
  {
    NetworkSynthesizer dense(config);
    sparse::saveAdjacency(dense.synthesizeAdjacency(files), densePath);
  }

  config.checkpointDir = checkpoints.path();
  {
    FaultPlan plan;
    plan.at("driver.batch",
            FaultSpec{.action = FaultAction::kThrow, .hit = 2});
    runtime::fault::ScopedFaultPlan scoped(plan);
    NetworkSynthesizer interrupted(config);
    EXPECT_THROW(interrupted.synthesizeAdjacency(files), FaultInjected);
  }
  const auto manifest = loadCheckpointManifest(checkpoints.path());
  ASSERT_TRUE(manifest.has_value());
  ASSERT_GT(manifest->spillRuns.size(), 1u) << "expected a multi-shard sum";

  config.resume = true;
  config.memoryBudgetBytes = std::uint64_t{32} << 20;
  const std::filesystem::path out = scratch.path() / "resumed.cadj";
  NetworkSynthesizer resumed(config);
  resumed.synthesizeToFile(files, out);
  EXPECT_EQ(fileBytes(out), fileBytes(densePath));
  EXPECT_TRUE(resumed.report().resumed);
  EXPECT_EQ(resumed.report().spillRunsSplit, 0u);
}

}  // namespace
}  // namespace chisimnet::net
