#include "chisimnet/net/executor.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>

#include "chisimnet/runtime/partition.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::net {

runtime::Partition SynthesisExecutor::repartition(
    std::span<const std::uint64_t> weights) const {
  return runtime::partitionGreedyLpt(weights, config_.workers);
}

SharedMemoryExecutor::SharedMemoryExecutor(const SynthesisConfig& config)
    : SynthesisExecutor(config), cluster_(config.workers) {}

CollocationCounts SharedMemoryExecutor::mapAdjacency(
    const table::EventTable& events, const table::PlaceIndex& index,
    std::span<const std::size_t> groups, const runtime::Partition& partition) {
  // Unbudgeted, each worker sums into its own map and reduce() folds the
  // maps. Under a budget each worker sums into its own SpillingSum, which
  // flushes at an eighth of its budget share — the sink keeps the other
  // half of the budget for the runs it holds in memory — and each flush is
  // split at the merge-shard boundaries, so every run is routed to its
  // shard owner at write time. All of a worker's flushes in a batch go to
  // one run file, whose name carries worker and batch indices so adopted
  // files from earlier batches are never overwritten.
  const bool budgeted = config_.memoryBudgetBytes > 0;
  mapSums_.clear();
  spillSums_.clear();
  if (budgeted) {
    CHISIM_REQUIRE(!config_.spillDir.empty(),
                   "memory budget requires a spill directory");
    const std::uint64_t threshold = std::max<std::uint64_t>(
        config_.memoryBudgetBytes / (8 * std::max(1u, config_.workers)), 1);
    const std::uint32_t splitRows = resolvedMergeRowsPerShard(config_);
    for (unsigned w = 0; w < config_.workers; ++w) {
      spillSums_.push_back(std::make_unique<sparse::SpillingSum>(
          config_.spillDir,
          "w" + std::to_string(w) + ".b" + std::to_string(batchCounter_) +
              ".",
          threshold, splitRows));
    }
  } else {
    for (unsigned w = 0; w < config_.workers; ++w) {
      mapSums_.push_back(std::make_unique<sparse::SymmetricAdjacency>(1024));
    }
  }
  ++batchCounter_;
  std::vector<CollocationCounts> counts(config_.workers);
  // Each matrix is multiplied as soon as its worker has built it.
  cluster_.applyPartitioned(partition, [&](std::size_t item, unsigned worker) {
    const sparse::CollocationMatrix matrix = sparse::buildCollocationMatrix(
        events, index, groups[item], config_.windowStart, config_.windowEnd);
    ++counts[worker].places;
    counts[worker].nnz += matrix.nnz();
    if (budgeted) {
      spillSums_[worker]->addCollocation(matrix);
    } else {
      mapSums_[worker]->addCollocation(matrix);
    }
  });
  busyImbalance_ = cluster_.busyImbalance();
  if (budgeted) {
    // Each worker sorts its own remainder, as an mp rank does, so the
    // root's drain is no serial sort per worker.
    remainders_.assign(config_.workers, {});
    cluster_.applyDynamic(config_.workers, [&](std::size_t w, unsigned) {
      remainders_[w] = spillSums_[w]->drainInMemory();
    });
  }
  CollocationCounts total;
  for (const CollocationCounts& worker : counts) {
    total.places += worker.places;
    total.nnz += worker.nnz;
  }
  return total;
}

void SharedMemoryExecutor::reduce(sparse::SymmetricAdjacency& result) {
  CHISIM_REQUIRE(config_.memoryBudgetBytes == 0,
                 "budgeted stage 5 must reduce into a spilling accumulator");
  // Paper §IV.A step 6: the root adds the worker sums into the result one
  // after another, releasing each map as soon as it has been folded. Each
  // fold grows the result for the union and then inserts on every worker
  // thread; only one worker map is released per fold, as in the serial
  // fold, so the peak stays the result plus the maps not yet folded.
  lastReduce_ = ReduceStats{};
  lastReduce_.mergedSums = mapSums_.size();
  util::WallTimer timer;
  for (std::unique_ptr<sparse::SymmetricAdjacency>& sum : mapSums_) {
    result.merge(*sum, config_.workers);
    sum.reset();
  }
  lastReduce_.criticalSeconds = timer.seconds();
  mapSums_.clear();
}

void SharedMemoryExecutor::reduceInto(sparse::SpillingAccumulator& sink) {
  CHISIM_REQUIRE(config_.memoryBudgetBytes > 0,
                 "reduceInto requires a memory budget");
  lastReduce_ = ReduceStats{};
  lastReduce_.mergedSums = spillSums_.size();
  // The worker buffers lived beside the sink's kept runs; their summed
  // historical peaks are reported as the (pessimistic) stage-5 transient.
  std::uint64_t workerPeak = 0;
  util::WallTimer timer;
  for (std::size_t w = 0; w < spillSums_.size(); ++w) {
    sparse::SpillingSum& sum = *spillSums_[w];
    for (const sparse::SpillRunInfo& run : sum.takeRuns()) {
      sink.adoptRunFile(run);  // already on disk: ownership moves, no copy
    }
    sink.addSortedRun(std::move(remainders_[w]));  // kept as it is, no hash
    sink.addKernelStats(sum.kernelStats());
    workerPeak += sum.peakBytes();
  }
  lastReduce_.criticalSeconds = timer.seconds();
  sink.noteWorkerPeak(workerPeak);
  spillSums_.clear();
  remainders_.clear();
}

std::vector<sparse::ShardSegment> SharedMemoryExecutor::mergeSpillShards(
    const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
    const std::function<void(const sparse::ShardSegment&)>& onSegment) {
  CHISIM_REQUIRE(!config_.spillDir.empty(),
                 "sharded merge requires a spill directory");
  // Stable ownership by weight (assignMergeOwners); each owner merges its
  // groups in ascending shard order. One cluster item per owner, so the
  // owners run concurrently while a shard's merge stays single-threaded
  // (segment bytes never depend on scheduling).
  const unsigned owners = config_.workers;
  const std::vector<std::vector<std::size_t>> byOwner =
      assignMergeOwners(groups, owners);
  std::vector<sparse::ShardSegment> segments(groups.size());
  std::mutex mutex;
  cluster_.applyDynamic(owners, [&](std::size_t owner, unsigned) {
    for (const std::size_t g : byOwner[owner]) {
      const sparse::SpillingAccumulator::ShardRunGroup& group = groups[g];
      const std::filesystem::path segmentFile =
          config_.spillDir / ("seg." + std::to_string(group.shard) + ".cseg");
      sparse::ShardSegment segment =
          sparse::mergeShardRuns(group.shard, group.runs, segmentFile);
      segment.owner = static_cast<unsigned>(owner);
      const std::lock_guard<std::mutex> lock(mutex);
      segments[g] = segment;
      onSegment(segment);
    }
  });
  return segments;
}

double SharedMemoryExecutor::adjacencyBusyImbalance() const noexcept {
  return busyImbalance_;
}

std::vector<std::vector<std::size_t>> assignMergeOwners(
    const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
    std::size_t owners) {
  std::vector<std::uint64_t> weights(groups.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const sparse::SpillRunInfo& run : groups[g].runs) {
      weights[g] += run.triplets;
    }
  }
  // Groups come in ascending shard order and the LPT sort is stable, so
  // equal weights go to the lower shard first.
  std::vector<std::vector<std::size_t>> byOwner =
      runtime::partitionGreedyLpt(weights, owners).assignment;
  for (std::vector<std::size_t>& mine : byOwner) {
    std::sort(mine.begin(), mine.end());
  }
  return byOwner;
}

std::unique_ptr<SynthesisExecutor> makeExecutor(const SynthesisConfig& config) {
  if (config.backend == SynthesisBackend::kMessagePassing) {
    return std::make_unique<MessagePassingExecutor>(config);
  }
  return std::make_unique<SharedMemoryExecutor>(config);
}

}  // namespace chisimnet::net
