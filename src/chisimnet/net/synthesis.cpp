#include "chisimnet/net/synthesis.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <system_error>
#include <utility>

#include <unistd.h>

#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/elog/prefetch.hpp"
#include "chisimnet/net/checkpoint.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/runtime/stream_transport.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::net {

namespace {

/// Unique-per-instance suffix for auto-resolved temp spill directories
/// (several synthesizers can coexist in one test process).
std::uint64_t nextSpillDirSerial() {
  static std::atomic<std::uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

sparse::SpillingAccumulator::Options sinkOptions(
    const SynthesisConfig& config) {
  sparse::SpillingAccumulator::Options options;
  options.dir = config.spillDir;
  options.budgetBytes = config.memoryBudgetBytes;
  // Checkpoint manifests reference live run files by name, so superseded
  // runs (split straddlers, merge-pass inputs) must stay on disk until the
  // next manifest stops naming them.
  options.deferDeletes = !config.checkpointDir.empty();
  // The sink's row-range shards are the merge shards, so its spills are
  // shard-pure too.
  options.rowsPerShard = resolvedMergeRowsPerShard(config);
  return options;
}

/// synthesizeAdjacency holds the whole result in memory, so a budget has
/// nothing to bound there: a budgeted run finishes on disk.
void requireUnbudgeted(const SynthesisConfig& config) {
  CHISIM_REQUIRE(config.memoryBudgetBytes == 0,
                 "a memory-budgeted run finishes on disk: call "
                 "synthesizeToFile, not synthesizeAdjacency or "
                 "synthesizeGraph");
}

void foldSpillStats(SynthesisReport& report, const sparse::SpillStats& stats) {
  report.spillRunsWritten = stats.runsWritten;
  report.spilledTriplets = stats.spilledTriplets;
  report.spilledBytes = stats.spilledBytes;
  report.spillRunsRestored = stats.runsRestored;
  report.peakAccumulatorBytes = stats.peakResidentBytes;
  report.peakStage5Bytes = stats.peakWorkerBytes;
  report.spillRunsSplit = stats.runsSplit;
}

}  // namespace

std::uint32_t resolvedMergeRowsPerShard(
    const SynthesisConfig& config) noexcept {
  if (config.mergeRowsPerShard != 0) {
    return config.mergeRowsPerShard;
  }
  // 2^18 rows divided across the merge owners: every owner gets multiple
  // fine shards to balance over once the population crosses 2^18, while
  // small runs still collapse to a single shard.
  constexpr std::uint32_t kRowsPerOwnerShard = 1u << 18;
  return std::max<std::uint32_t>(
      1, kRowsPerOwnerShard / std::max(1u, config.workers));
}

NetworkSynthesizer::NetworkSynthesizer(SynthesisConfig config)
    : config_(config) {
  CHISIM_REQUIRE(config.windowStart < config.windowEnd,
                 "time window must be non-empty");
  CHISIM_REQUIRE(config.workers >= 1, "need at least one worker");
  CHISIM_REQUIRE(config.commandMaxAttempts >= 1,
                 "commandMaxAttempts must be >= 1");
  CHISIM_REQUIRE(
      config.faultPolicy == FaultPolicy::kDegrade ||
          config.maxQuarantinedFiles == 0,
      "a quarantine limit requires --fault-policy degrade; under failfast "
      "the first corrupt file aborts the run anyway");
  CHISIM_REQUIRE(!config.resume || !config.checkpointDir.empty(),
                 "resume requires a checkpoint directory");
  CHISIM_REQUIRE(config.transport == MpTransport::kInProcess ||
                     config.backend == SynthesisBackend::kMessagePassing,
                 "--transport process/tcp requires --backend mp");
  CHISIM_REQUIRE(config.maxRespawns >= 0, "maxRespawns must be >= 0");
  CHISIM_REQUIRE(config.heartbeatMs >= 1, "heartbeatMs must be >= 1");
  CHISIM_REQUIRE(config.connectTimeoutMs >= 1,
                 "connectTimeoutMs must be >= 1");
  CHISIM_REQUIRE(config.connectRetries >= 0, "connectRetries must be >= 0");
  CHISIM_REQUIRE(config.transport == MpTransport::kInProcess ||
                     config.faultPolicy != FaultPolicy::kDegrade ||
                     config.commandTimeoutMs > 0,
                 "the process/tcp transport under --fault-policy degrade "
                 "requires --command-timeout-ms > 0: a crashed worker never "
                 "replies, so without a deadline the root hangs instead of "
                 "recovering");
  CHISIM_REQUIRE(config.tcpListen.empty() ||
                     config.transport == MpTransport::kTcp,
                 "--tcp-listen requires --transport tcp");
  if (!config.tcpListen.empty()) {
    // External workers must be told where to dial: no ephemeral port.
    runtime::parseHostPort(config.tcpListen);
  }
  // Resolve the spill directory. A checkpointing run pins it under the
  // checkpoint directory so a resumed run (possibly a different process,
  // possibly a different budget) finds the manifest's run files without
  // extra flags. Otherwise a budgeted run — or any MP run, whose replies
  // auto-spill when they would exceed the payload cap — gets a private
  // temp directory that this instance removes on destruction.
  if (config_.spillDir.empty()) {
    if (!config_.checkpointDir.empty()) {
      config_.spillDir = config_.checkpointDir / "spill";
    } else if (config_.memoryBudgetBytes > 0 ||
               config_.backend == SynthesisBackend::kMessagePassing) {
      ownedSpillDir_ =
          std::filesystem::temp_directory_path() /
          ("chisim-spill-" + std::to_string(::getpid()) + "-" +
           std::to_string(nextSpillDirSerial()));
      config_.spillDir = ownedSpillDir_;
    }
  }
  executor_ = makeExecutor(config_);
}

NetworkSynthesizer::~NetworkSynthesizer() {
  if (!ownedSpillDir_.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(ownedSpillDir_, ignored);
  }
}

void NetworkSynthesizer::processBatch(const table::EventTable& events,
                                      sparse::SymmetricAdjacency* dense,
                                      sparse::SpillingAccumulator* sink) {
  CHISIM_REQUIRE((dense != nullptr) != (sink != nullptr),
                 "processBatch needs exactly one accumulation target");
  util::WallTimer timer;

  // Stage 2: subset the slice and group its rows by place. The input table
  // has already been window-filtered on load.
  runtime::fault::hit("driver.subset");
  const table::PlaceIndex placeIndex = events.buildPlaceIndex();
  report_.subsetSeconds += timer.seconds();
  timer.reset();

  // Stage 3: the root weighs every place group from its event rows, so the
  // partition exists before any matrix does and nothing returns to the
  // root between building a matrix and multiplying it.
  const PlaceWeights weighed = weighPlaces(
      events, placeIndex, config_.windowStart, config_.windowEnd);
  report_.collocationSeconds += timer.seconds();
  timer.reset();

  // Stage 4: partition the place groups across workers by weight — the
  // step §IV.A.3 calls crucial for even load balance.
  runtime::fault::hit("driver.partition");
  const runtime::Partition partition =
      executor_->repartition(weighed.weights);
  report_.partitionSeconds += timer.seconds();
  report_.partitionImbalance = partition.imbalance();
  report_.partitionLoads = partition.loads;
  timer.reset();

  // Stage 5: each worker builds the collocation matrices of its place
  // groups and adds each x·xᵀ to its own sum; the sums stay inside the
  // executor until the reduce.
  runtime::fault::hit("driver.adjacency");
  const CollocationCounts built = executor_->mapAdjacency(
      events, placeIndex, weighed.groups, partition);
  report_.placesProcessed += built.places;
  report_.collocationNnz += built.nnz;
  report_.adjacencySeconds += timer.seconds();
  report_.adjacencyBusyImbalance = executor_->adjacencyBusyImbalance();
  timer.reset();

  // Stage 6: fold the worker sums into the running result — one after
  // another into the dense map, or under a memory budget into the spilling
  // accumulator, which adopts worker run files and keeps their sorted
  // remainders in place of merging maps.
  runtime::fault::hit("driver.reduce");
  if (dense != nullptr) {
    executor_->reduce(*dense);
  } else {
    executor_->reduceInto(*sink);
  }
  report_.reduceSeconds += timer.seconds();
  const ReduceStats& reduceStats = executor_->lastReduceStats();
  report_.reduceMergedSums += reduceStats.mergedSums;
  report_.reduceCriticalSeconds += reduceStats.criticalSeconds;

  // Kernel counters ride on the result (merged up the reduce alongside the
  // weights), so they are cumulative across batches: copy, don't add.
  const sparse::AdjacencyKernelStats& kernel =
      dense != nullptr ? dense->kernelStats() : sink->kernelStats();
  report_.kernelDensePlaces = kernel.densePlaces;
  report_.kernelHashPlaces = kernel.hashPlaces;
  report_.kernelPairHourUpdates = kernel.pairHourUpdates;
  report_.kernelGlobalEmits = kernel.globalEmits;
}

void NetworkSynthesizer::runFilePipeline(
    const std::vector<std::filesystem::path>& logFiles,
    sparse::SymmetricAdjacency* dense, sparse::SpillingAccumulator* sink) {
  CHISIM_REQUIRE(!logFiles.empty(), "no log files given");
  beginReport();
  restoredSegments_.clear();

  const bool checkpointing = !config_.checkpointDir.empty();

  std::uint64_t filesConsumed = 0;
  if (config_.resume) {
    // Adjacency summation is order-independent u64 addition and the
    // checkpointed runs are the accumulated sum itself, so restoring them
    // and replaying only the remaining batches reproduces the
    // uninterrupted run bit for bit — in either accumulation mode,
    // regardless of which mode wrote the checkpoint (the budget is a perf
    // knob outside the config hash).
    const auto manifest = loadCheckpointManifest(config_.checkpointDir);
    CHISIM_CHECK(manifest.has_value(), "no checkpoint to resume from in " +
                                           config_.checkpointDir.string());
    CHISIM_CHECK(
        manifest->configHash == checkpointConfigHash(config_, logFiles),
        "checkpoint in " + config_.checkpointDir.string() +
            " was written by a different config or file list; refusing to "
            "resume into a corrupted result");
    CHISIM_CHECK(manifest->filesConsumed <= logFiles.size(),
                 "checkpoint cursor is beyond the given file list");
    for (sparse::SpillRunInfo run : manifest->spillRuns) {
      run.file = config_.spillDir / run.file;
      if (sink != nullptr) {
        // Keep the manifest's file names: renaming would break a second
        // resume if this run dies before its first checkpoint.
        sink->restoreRunFile(run);
      } else {
        // Fold the runs into the dense map (duplicate pairs across runs
        // sum on add).
        sparse::SpillRunReader reader(run);
        sparse::AdjacencyTriplet triplet;
        while (reader.next(triplet)) {
          dense->add(triplet.i, triplet.j, triplet.weight);
        }
      }
    }
    // Merge segments completed by a previous life (killed during the
    // sharded merge): remembered so synthesizeToFile can splice the
    // validated segment instead of re-merging its shard. Processing any
    // further batch invalidates them (finishBatch clears the list).
    if (sink != nullptr) {
      restoredSegments_ = manifest->mergeSegments;
    }
    filesConsumed = manifest->filesConsumed;
    report_.batches = manifest->batchesDone;
    report_.quarantined = manifest->quarantined;
    report_.resumed = true;
    report_.filesSkippedByResume = filesConsumed;
    FaultEvent event;
    event.kind = FaultEvent::Kind::kResume;
    event.batch = manifest->batchesDone;
    event.detail = "resumed after file " + std::to_string(filesConsumed) +
                   " of " + std::to_string(logFiles.size());
    report_.faults.push_back(std::move(event));
  }
  // Every batch after the cursor is decoded from its log files, which the
  // config hash pins by name.
  const std::vector<std::filesystem::path> remaining(
      logFiles.begin() + static_cast<std::ptrdiff_t>(filesConsumed),
      logFiles.end());

  // Two-stage pipeline: a background loader decodes batch k+1 while this
  // thread runs stages 2-6 on batch k.
  elog::PrefetchingLoader::Options options;
  options.windowStart = config_.windowStart;
  options.windowEnd = config_.windowEnd;
  options.filesPerBatch = config_.filesPerBatch;
  options.decodeThreads = config_.workers;
  options.quarantineCorrupt = config_.faultPolicy == FaultPolicy::kDegrade;
  elog::PrefetchingLoader loader(remaining, options);
  while (std::optional<elog::LoadedBatch> batch = loader.next()) {
    report_.logEntriesLoaded += batch->table.size();
    processBatch(batch->table, dense, sink);

    // Bookkeeping: fold in quarantine entries and executor recovery
    // events, enforce the quarantine limit, and persist the checkpoint. The
    // driver.batch fault site fires last, i.e. after the checkpoint — a
    // kThrow there models a crash between batches, which the
    // kill-and-resume tests exploit.
    filesConsumed += batch->filesInBatch;
    ++report_.batches;
    // New data supersedes any merge segments restored from a checkpoint:
    // their shards' run sets just changed.
    restoredSegments_.clear();
    for (elog::QuarantinedFile& entry : batch->quarantined) {
      FaultEvent event;
      event.kind = FaultEvent::Kind::kFileQuarantined;
      event.batch = report_.batches;
      event.detail = entry.file.string() + ": " + entry.reason;
      report_.faults.push_back(std::move(event));
      report_.quarantined.push_back(std::move(entry));
    }
    CHISIM_CHECK(
        config_.maxQuarantinedFiles == 0 ||
            report_.quarantined.size() <= config_.maxQuarantinedFiles,
        std::to_string(report_.quarantined.size()) +
            " input files quarantined, more than the configured limit of " +
            std::to_string(config_.maxQuarantinedFiles));
    foldExecutorFaults();
    if (checkpointing) {
      CheckpointManifest manifest;
      manifest.filesConsumed = filesConsumed;
      manifest.batchesDone = report_.batches;
      manifest.configHash = checkpointConfigHash(config_, logFiles);
      manifest.quarantined = report_.quarantined;
      // Persist the accumulated sum as sorted run files, each durable via
      // tmp+rename before the manifest naming them is written: the sink
      // writes the runs it kept in memory and names its live runs; the
      // dense map is written as runs split at the merge-shard boundaries,
      // so a budgeted resume adopts them shard-pure.
      if (sink != nullptr) {
        sink->spillAll();
        manifest.spillRuns = sink->liveRuns();
      } else {
        manifest.spillRuns = sparse::writeShardRuns(
            config_.spillDir /
                ("dense." + std::to_string(filesConsumed) + ".0.spl"),
            dense->toTriplets(config_.workers),
            resolvedMergeRowsPerShard(config_));
      }
      saveCheckpoint(config_.checkpointDir, manifest, config_.spillDir);
      if (sink != nullptr) {
        // Compaction inputs superseded by this manifest can go only now;
        // deleting them earlier would break resume from the previous one.
        for (const std::filesystem::path& retired :
             sink->takeRetiredFiles()) {
          std::error_code ignored;
          std::filesystem::remove(retired, ignored);
        }
      }
      ++report_.checkpointsWritten;
      FaultEvent event;
      event.kind = FaultEvent::Kind::kCheckpoint;
      event.batch = report_.batches;
      event.detail =
          "checkpoint after file " + std::to_string(filesConsumed);
      report_.faults.push_back(std::move(event));
    }
    runtime::fault::hit("driver.batch");
  }
  const elog::PrefetchStats stats = loader.stats();
  report_.loadSeconds = stats.decodeSeconds;
  report_.loadExposedSeconds = stats.exposedSeconds;
  report_.loadOverlappedSeconds =
      std::max(0.0, stats.decodeSeconds - stats.exposedSeconds);
  report_.prefetchMeanOccupancy = stats.meanOccupancy;
  report_.prefetchPeakOccupancy = stats.peakOccupancy;
  report_.bytesScattered = executor_->bytesScattered();
  report_.bytesReturned = executor_->bytesReturned();
}

sparse::SymmetricAdjacency NetworkSynthesizer::synthesizeAdjacency(
    const std::vector<std::filesystem::path>& logFiles) {
  requireUnbudgeted(config_);
  util::WallTimer total;
  sparse::SymmetricAdjacency result(1024);
  runFilePipeline(logFiles, &result, nullptr);
  report_.edges = result.edgeCount();
  report_.totalSeconds = total.seconds();
  return result;
}

sparse::SymmetricAdjacency NetworkSynthesizer::synthesizeAdjacency(
    const table::EventTable& events) {
  requireUnbudgeted(config_);
  util::WallTimer total;
  beginReport();
  report_.logEntriesLoaded = events.size();
  sparse::SymmetricAdjacency result(1024);
  processBatch(events, &result, nullptr);
  report_.batches = 1;
  foldExecutorFaults();
  report_.edges = result.edgeCount();
  report_.bytesScattered = executor_->bytesScattered();
  report_.bytesReturned = executor_->bytesReturned();
  report_.totalSeconds = total.seconds();
  return result;
}

void NetworkSynthesizer::beginReport() {
  report_ = SynthesisReport{};
  report_.backend = config_.backend;
  report_.memoryBudgetBytes = config_.memoryBudgetBytes;
  executor_->resetTransferCounters();
}

void NetworkSynthesizer::foldExecutorFaults() {
  for (FaultEvent& event : executor_->drainFaultEvents()) {
    event.batch = report_.batches;
    if (event.kind == FaultEvent::Kind::kCommandRetry) {
      ++report_.commandRetries;
    } else if (event.kind == FaultEvent::Kind::kRankLost) {
      ++report_.ranksLost;
    } else if (event.kind == FaultEvent::Kind::kWorkerRespawn) {
      ++report_.workersRespawned;
    } else if (event.kind == FaultEvent::Kind::kWorkerReconnect) {
      ++report_.workersReconnected;
    }
    report_.faults.push_back(std::move(event));
  }
}

std::uint64_t NetworkSynthesizer::synthesizeToFile(
    const std::vector<std::filesystem::path>& logFiles,
    const std::filesystem::path& outPath) {
  CHISIM_REQUIRE(config_.memoryBudgetBytes > 0,
                 "synthesizeToFile requires a memory budget (it exists so "
                 "the result never has to fit in memory)");
  util::WallTimer total;
  sparse::SpillingAccumulator sink(sinkOptions(config_));
  runFilePipeline(logFiles, nullptr, &sink);
  // Stage-6 tail: the live runs are merged shard by shard on the
  // executor's owners (the `workers` threads or ranks) and the segments
  // spliced into `outPath` in ascending shard order.
  report_.reduceShardsUsed = config_.workers;
  const bool checkpointing = !config_.checkpointDir.empty();
  // The plan routes every live run to its row-range shard, splitting
  // straddlers; under deferDeletes the split inputs stay on disk so the
  // previous manifest remains resumable until the next one is written.
  std::vector<sparse::SpillingAccumulator::ShardRunGroup> plan =
      sink.buildShardMergePlan();

  // Segments completed by a previous life: splice them instead of
  // re-merging their shards. Validation here is existence plus recorded
  // size; content integrity is re-verified by CRC at splice time.
  std::map<std::uint32_t, sparse::ShardSegment> completed;
  for (sparse::ShardSegment& segment : restoredSegments_) {
    segment.file = config_.spillDir / segment.file;
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(segment.file, ec);
    if (ec || size != segment.bytes) {
      continue;  // half-written husk: its shard re-merges from the runs
    }
    completed.emplace(segment.shard, std::move(segment));
  }
  report_.mergeSegmentsReused = completed.size();
  restoredSegments_.clear();

  std::vector<sparse::SpillingAccumulator::ShardRunGroup> todo;
  todo.reserve(plan.size());
  for (sparse::SpillingAccumulator::ShardRunGroup& group : plan) {
    if (!completed.contains(group.shard)) {
      todo.push_back(std::move(group));
    }
  }

  const auto buildManifest = [&]() {
    CheckpointManifest manifest;
    manifest.filesConsumed = logFiles.size();
    manifest.batchesDone = report_.batches;
    manifest.configHash = checkpointConfigHash(config_, logFiles);
    manifest.quarantined = report_.quarantined;
    manifest.spillRuns = sink.liveRuns();
    for (const auto& [shard, done] : completed) {
      manifest.mergeSegments.push_back(done);
    }
    return manifest;
  };

  // Pre-merge checkpoint, written at this serial point so the spill-dir GC
  // cannot race owner threads: it references the post-split runs and the
  // reused segments, and sweeps everything else — previous-life merge
  // husks, superseded segments, and the split straddler originals the
  // previous manifest needed. Mid-merge checkpoints below skip the sweep
  // (gcSpillDir=false): a GC there would delete other owners' in-flight
  // .cseg.tmp files and freshly renamed segments its manifest predates.
  if (checkpointing) {
    saveCheckpoint(config_.checkpointDir, buildManifest(), config_.spillDir);
    ++report_.checkpointsWritten;
  }
  // The new manifest (or, without checkpointing, nothing) references the
  // split originals no longer — drop them now.
  for (const std::filesystem::path& retired : sink.takeRetiredFiles()) {
    std::error_code ignored;
    std::filesystem::remove(retired, ignored);
  }
  // The sink's counters are final here; the owners' merge passes add to
  // them as segments land.
  foldSpillStats(report_, sink.stats());

  // Per-segment checkpoint: after each shard lands, persist the manifest
  // so a killed merge resumes with only the unfinished shards. The runs
  // stay listed (and on disk) even for finished shards — a resume
  // re-validates segments against them and re-merges any that fail. The
  // spill.shard fault site fires after the checkpoint, modeling a crash
  // between segments.
  const auto onSegment = [&](const sparse::ShardSegment& segment) {
    completed.emplace(segment.shard, segment);
    ++report_.mergeSegmentsWritten;
    report_.mergeSeconds += segment.mergeSeconds;
    report_.spillCompactions += segment.mergePasses;
    report_.spilledBytes += segment.mergePassBytes;
    report_.mergePassBytes += segment.mergePassBytes;
    if (checkpointing) {
      saveCheckpoint(config_.checkpointDir, buildManifest(), config_.spillDir,
                     /*gcSpillDir=*/false);
      ++report_.checkpointsWritten;
    }
    runtime::fault::hit("spill.shard");
  };

  util::WallTimer mergeWall;
  std::vector<sparse::ShardSegment> merged;
  if (!todo.empty()) {
    merged = executor_->mergeSpillShards(todo, onSegment);
    // Retries and respawns during the merge belong in the report too.
    foldExecutorFaults();
  }
  // Modeled parallel merge time: the busiest owner's summed thread-CPU
  // seconds (reused segments cost nothing this run, so they don't count).
  std::map<unsigned, double> perOwner;
  for (const sparse::ShardSegment& segment : merged) {
    perOwner[segment.owner] += segment.mergeSeconds;
  }
  for (const auto& [owner, seconds] : perOwner) {
    report_.mergeCriticalSeconds =
        std::max(report_.mergeCriticalSeconds, seconds);
  }

  // Splice: ascending shard order over disjoint ascending key ranges is
  // the globally sorted stream, so the concatenation is byte-identical to
  // saveTriplets of the in-memory result (same rows, same framing).
  // appendSegmentFile re-verifies each segment's CRC as it copies.
  util::WallTimer splice;
  sparse::StreamingTripletWriter writer(outPath);
  for (const auto& [shard, segment] : completed) {
    writer.appendSegmentFile(segment);
  }
  const std::uint64_t edges = writer.finish();
  report_.spliceSeconds = splice.seconds();
  report_.mergeWallSeconds = mergeWall.seconds();
  report_.edges = edges;
  report_.totalSeconds = total.seconds();
  return edges;
}

graph::Graph NetworkSynthesizer::synthesizeGraph(
    const std::vector<std::filesystem::path>& logFiles) {
  const sparse::SymmetricAdjacency adjacency = synthesizeAdjacency(logFiles);
  return graph::Graph::fromTriplets(adjacency.toTriplets(config_.workers));
}

graph::Graph NetworkSynthesizer::synthesizeGraph(
    const table::EventTable& events) {
  const sparse::SymmetricAdjacency adjacency = synthesizeAdjacency(events);
  return graph::Graph::fromTriplets(adjacency.toTriplets(config_.workers));
}

PlaceWeights weighPlaces(const table::EventTable& events,
                         const table::PlaceIndex& index,
                         table::Hour windowStart, table::Hour windowEnd) {
  const std::span<const table::Hour> start = events.startColumn();
  const std::span<const table::Hour> end = events.endColumn();
  PlaceWeights weighed;
  std::vector<std::pair<table::Hour, table::Hour>> spans;
  for (std::size_t group = 0; group < index.placeIds.size(); ++group) {
    spans.clear();
    std::uint64_t nnz = 0;
    for (const table::RowIndex row : index.groupRows(group)) {
      const table::Hour from = std::max(start[row], windowStart);
      const table::Hour to = std::min(end[row], windowEnd);
      if (from < to) {
        spans.emplace_back(from, to);
        nnz += to - from;
      }
    }
    if (nnz == 0) {
      continue;  // no presence inside the window: no matrix, no work
    }
    // Occupied hours (head count > 0) are the union of the spans.
    std::sort(spans.begin(), spans.end());
    std::uint64_t occupied = 0;
    table::Hour covered = 0;
    for (const auto& [from, to] : spans) {
      const table::Hour first = std::max(from, covered);
      if (first < to) {
        occupied += to - first;
        covered = to;
      }
    }
    weighed.groups.push_back(group);
    weighed.weights.push_back(std::max<std::uint64_t>(1, nnz * nnz / occupied));
  }
  return weighed;
}

sparse::SymmetricAdjacency bruteForceAdjacency(const table::EventTable& events,
                                               table::Hour windowStart,
                                               table::Hour windowEnd) {
  // (place, hour) -> set of persons present; dedup handled by the set.
  std::map<std::pair<table::PlaceId, table::Hour>, std::set<table::PersonId>>
      presence;
  for (std::uint64_t row = 0; row < events.size(); ++row) {
    const table::Event event = events.row(row);
    const table::Hour from = std::max(event.start, windowStart);
    const table::Hour to = std::min(event.end, windowEnd);
    for (table::Hour hour = from; hour < to; ++hour) {
      presence[{event.place, hour}].insert(event.person);
    }
  }
  sparse::SymmetricAdjacency adjacency;
  for (const auto& [key, persons] : presence) {
    for (auto a = persons.begin(); a != persons.end(); ++a) {
      for (auto b = std::next(a); b != persons.end(); ++b) {
        adjacency.add(*a, *b, 1);
      }
    }
  }
  return adjacency;
}

}  // namespace chisimnet::net
