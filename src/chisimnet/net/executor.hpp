#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "chisimnet/net/mp_protocol.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/runtime/cluster.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/partition.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/table/event_table.hpp"

/// Pluggable dispatch substrate for synthesis stages 2-6 (paper §IV.A).
///
/// The paper presents one synthesis algorithm with two dispatch substrates:
/// a SNOW fork cluster (shared memory) for a single node and Rmpi ranks
/// (message passing) for larger clusters. NetworkSynthesizer owns the
/// stage sequencing, batching, prefetch, and timing; a SynthesisExecutor
/// owns only how each stage's work reaches the workers and how results
/// come back. One driver, two backends — the message-passing path inherits
/// batching, prefetch, and per-stage timing from the driver instead of
/// reimplementing the pipeline.
///
/// Stage protocol, called by the driver once per batch, in order, after it
/// has grouped the rows by place (stage 2) and weighed the groups (stage 3):
///   repartition   stage 4: weight-based partition of the place groups
///   mapAdjacency  stage 5: each worker gets the event rows of its place
///                 groups, builds each collocation matrix x and adds
///                 A_l = x·xᵀ to its sum; matrices never leave the worker
///   reduce        stage 6: fold the worker sums into the running result

namespace chisimnet::runtime {
class StreamTransport;
}  // namespace chisimnet::runtime

namespace chisimnet::net {

/// What the workers of one mapAdjacency built.
struct CollocationCounts {
  std::uint64_t places = 0;  ///< collocation matrices built
  std::uint64_t nnz = 0;     ///< their summed person-hours
};

/// Size and timing of one stage-6 reduce.
struct ReduceStats {
  std::uint64_t mergedSums = 0;  ///< worker sums folded into the result
  /// Wall seconds of the root fold: a fold on several threads is timed by
  /// the clock the batch waits on, not by one thread's CPU.
  double criticalSeconds = 0.0;
};

class SynthesisExecutor {
 public:
  explicit SynthesisExecutor(const SynthesisConfig& config)
      : config_(config) {}
  virtual ~SynthesisExecutor() = default;

  SynthesisExecutor(const SynthesisExecutor&) = delete;
  SynthesisExecutor& operator=(const SynthesisExecutor&) = delete;

  virtual SynthesisBackend backend() const noexcept = 0;

  /// Stage 4: partition the weighed place groups across workers. The
  /// root computes it before any event row leaves it.
  virtual runtime::Partition repartition(
      std::span<const std::uint64_t> weights) const;

  /// Stage 5: partition item k is place group groups[k] of `index`. Each
  /// worker builds the collocation matrix of every group in its bin from
  /// the group's rows of `events` and adds its x·xᵀ to the worker's sum
  /// right away. Message passing ships each group's rows once, to its
  /// owner; shared memory reads them in place. The sums stay inside the
  /// executor — in memory (shared) or as sorted triplet runs returned by
  /// the ranks (message passing) — until the following reduce() folds
  /// them. Returns what the workers built.
  virtual CollocationCounts mapAdjacency(
      const table::EventTable& events, const table::PlaceIndex& index,
      std::span<const std::size_t> groups,
      const runtime::Partition& partition) = 0;

  /// Stage 6: fold the worker sums held since mapAdjacency into `result`,
  /// one after another at the root (paper §IV.A step 6).
  virtual void reduce(sparse::SymmetricAdjacency& result) = 0;

  /// Stage 6 under a memory budget: hand the worker sums to the
  /// disk-spilling cross-batch accumulator instead of a dense map. Worker
  /// spill runs transfer as files (adopted by the sink, never rebuilt in
  /// memory) and in-memory remainders as sorted runs the sink keeps; each
  /// backend also reports its stage-5 worker peak bytes through
  /// sink.noteWorkerPeak(), surfaced separately from the budget-enforced
  /// accumulator peak.
  virtual void reduceInto(sparse::SpillingAccumulator& sink) = 0;

  /// Stage-6 tail under a budget: merge each row-range shard's spill runs
  /// into a sorted CADJ payload segment, the shards distributed across
  /// this substrate's workers/ranks by assignMergeOwners so no single
  /// thread funnels the external merge. `onSegment` fires once
  /// per completed segment, never concurrently — the driver checkpoints
  /// from it mid-merge. Returns one segment per group, in unspecified
  /// order (callers sort by shard before concatenating).
  virtual std::vector<sparse::ShardSegment> mergeSpillShards(
      const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
      const std::function<void(const sparse::ShardSegment&)>& onSegment) = 0;

  /// Size and timing of the last reduce() or reduceInto().
  const ReduceStats& lastReduceStats() const noexcept { return lastReduce_; }

  /// Observed busy-time imbalance of the last mapAdjacency; 1.0 if the
  /// substrate cannot observe it.
  virtual double adjacencyBusyImbalance() const noexcept { return 1.0; }

  /// Cumulative payload bytes moved root->workers / workers->root since
  /// the last resetTransferCounters(); zero on no-wire substrates.
  virtual std::uint64_t bytesScattered() const noexcept { return 0; }
  virtual std::uint64_t bytesReturned() const noexcept { return 0; }
  virtual void resetTransferCounters() noexcept {}

  /// Recovery actions (retries, rank losses) taken since the last drain,
  /// for the driver to fold into SynthesisReport::faults. Empty on
  /// substrates with nothing to recover from.
  virtual std::vector<FaultEvent> drainFaultEvents() { return {}; }

  /// Workers still able to take stage work (ranks not declared lost).
  virtual int liveWorkers() const noexcept {
    return static_cast<int>(config_.workers);
  }

 protected:
  const SynthesisConfig config_;
  ReduceStats lastReduce_;
};

/// Worker threads over shared memory — the paper's SNOW fork cluster. The
/// adjacency stage follows the explicit weight partition. No bytes move.
class SharedMemoryExecutor final : public SynthesisExecutor {
 public:
  explicit SharedMemoryExecutor(const SynthesisConfig& config);

  SynthesisBackend backend() const noexcept override {
    return SynthesisBackend::kSharedMemory;
  }
  CollocationCounts mapAdjacency(const table::EventTable& events,
                                 const table::PlaceIndex& index,
                                 std::span<const std::size_t> groups,
                                 const runtime::Partition& partition) override;
  /// Folds the worker maps one after another, each on `workers` threads
  /// inserting disjoint slot ranges of the map (PairCountMap::merge).
  void reduce(sparse::SymmetricAdjacency& result) override;
  /// Adopts each worker sum's run file and keeps the sorted remainder the
  /// worker drained at the end of mapAdjacency.
  void reduceInto(sparse::SpillingAccumulator& sink) override;
  /// Owners are the worker threads: shard groups go to the `workers`
  /// owners by assignMergeOwners and each owner merges its groups in
  /// ascending shard order on the cluster.
  std::vector<sparse::ShardSegment> mergeSpillShards(
      const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
      const std::function<void(const sparse::ShardSegment&)>& onSegment)
      override;
  double adjacencyBusyImbalance() const noexcept override;

 private:
  runtime::Cluster cluster_;
  /// Stage 5 → 6: each worker's own sum. Unbudgeted it is a map, for the
  /// fold in reduce(); under a budget a SpillingSum flushing at
  /// ≈ budget/(8·workers).
  std::vector<std::unique_ptr<sparse::SymmetricAdjacency>> mapSums_;
  std::vector<std::unique_ptr<sparse::SpillingSum>> spillSums_;
  /// Each budgeted worker's drained remainder, sorted on its own thread.
  std::vector<std::vector<sparse::AdjacencyTriplet>> remainders_;
  /// Busy imbalance of the last mapAdjacency's place loop.
  double busyImbalance_ = 1.0;
  /// Distinguishes run-file names across batches (adopted files outlive
  /// the mapAdjacency that wrote them).
  std::uint64_t batchCounter_ = 0;
};

/// Message-passing ranks — the paper's Rmpi path with one scatter: the root
/// partitions the weighed place groups, sends each rank the event rows of
/// the places it owns, and each rank builds their matrices, sums their
/// adjacencies and returns the sum. (The paper returns the matrices to the
/// root and re-scatters them; DESIGN.md §2 records the deviation.)
/// Rank 0 is the driver thread; ranks 1..workers-1 are a persistent
/// runtime::RankTeam command loop, so the same ranks serve every batch.
/// All payloads (including rank 0's self-delivery) go through the sparse
/// wire format and are counted in bytesScattered/bytesReturned.
///
/// Fault tolerance: every stage round trip is one framed command message
/// and one framed reply, stamped with an epoch. A worker that hits a
/// recoverable error replies status=failed instead of dying; a worker that
/// dies silently is detected by the per-command deadline
/// (config.commandTimeoutMs). Under FaultPolicy::kDegrade the root retries
/// a failed command with exponential backoff up to commandMaxAttempts,
/// then marks the rank lost and re-partitions its work items across the
/// surviving ranks (the root included), so the batch completes with the
/// exact same result. Epochs let the root discard stale replies from
/// retried commands; stage bodies are pure, so duplicate execution after a
/// timeout race is harmless.
///
/// Transports: with MpTransport::kInProcess (default) the ranks are
/// RankTeam service threads in this process; with kProcess and kTcp they
/// are OS processes behind runtime::StreamTransport, dialing rank 0 over an
/// AF_UNIX or TCP socket and speaking the identical command protocol. A
/// local worker process that crashes is respawned (config.maxRespawns) and
/// a dropped connection re-dialed inside a grace window, while the
/// in-flight command rides the existing timeout/retry path; a rank that
/// never returns feeds the same markLost + reassignment flow as an
/// in-process loss. Under kTcp the workers need no shared filesystem:
/// stage commands carry shipRuns, workers spill into private local
/// directories, and run-file bytes travel to the root as mp::kShipTag
/// chunks ahead of the replies that reference them (the root materializes
/// them into its own spill directory before decoding the reply).
class MessagePassingExecutor final : public SynthesisExecutor {
 public:
  explicit MessagePassingExecutor(const SynthesisConfig& config);
  ~MessagePassingExecutor() override;

  SynthesisBackend backend() const noexcept override {
    return SynthesisBackend::kMessagePassing;
  }
  /// Partitions across the live ranks only, so a batch after a rank loss
  /// spreads stage-5 work over exactly the ranks that can still take it.
  runtime::Partition repartition(
      std::span<const std::uint64_t> weights) const override;
  /// One kCmdAdjacency per live rank, its body the rank's place groups;
  /// the reply carries the rank's sum and its CollocationCounts.
  CollocationCounts mapAdjacency(const table::EventTable& events,
                                 const table::PlaceIndex& index,
                                 std::span<const std::size_t> groups,
                                 const runtime::Partition& partition) override;
  /// Inserts the sorted triplet runs the adjacency stage returned into
  /// `result` one rank at a time. Runs too large to cross the wire inline
  /// arrive as spill files (mp::RunRef); they are streamed, never rebuilt
  /// whole in memory, and deleted once read.
  void reduce(sparse::SymmetricAdjacency& result) override;
  /// Budgeted stage 6: worker run files are adopted by the sink directly
  /// (a rename-scoped ownership transfer — zero copy), inline runs are
  /// moved into the sink, which keeps them, and the workers' peak bytes
  /// reported via noteWorkerPeak().
  void reduceInto(sparse::SpillingAccumulator& sink) override;
  /// Owners are live ranks: shard groups go to them by assignMergeOwners
  /// and travel as kCmdMergeShard commands (rank 0 executes its share
  /// inline), with the stage-level retry and lost-rank reassignment
  /// semantics of every other command. Segments come back as file
  /// references; run files are read directly off the shared filesystem,
  /// never shipped.
  std::vector<sparse::ShardSegment> mergeSpillShards(
      const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
      const std::function<void(const sparse::ShardSegment&)>& onSegment)
      override;
  double adjacencyBusyImbalance() const noexcept override {
    return busyImbalance_;
  }
  std::uint64_t bytesScattered() const noexcept override {
    return bytesScattered_;
  }
  std::uint64_t bytesReturned() const noexcept override {
    return bytesReturned_;
  }
  void resetTransferCounters() noexcept override {
    bytesScattered_ = 0;
    bytesReturned_ = 0;
  }
  std::vector<FaultEvent> drainFaultEvents() override;
  int liveWorkers() const noexcept override { return team_->liveCount(); }

 private:
  /// One in-flight command on a rank, kept so the root can resend it and,
  /// on permanent loss, rebuild the work items for reassignment.
  struct Pending {
    bool active = false;
    std::uint32_t command = 0;
    std::uint64_t epoch = 0;
    int attempts = 0;
    std::vector<std::byte> body;       ///< serialized stage input (resend)
    std::vector<std::size_t> items;    ///< work item indices (reassignment)
  };

  /// Worker-side command loop run by every in-process service rank.
  /// (Worker processes run the same protocol via maybeRunSynthesisWorker.)
  void serviceLoop(runtime::RankHandle& handle) const;

  /// Ranks currently able to take work, rank 0 first.
  std::vector<int> liveRanks() const;
  /// Frames and sends `body` as `command` to `rank`, recording it in
  /// pending_ for retry/reassignment.
  void sendCommand(int rank, std::uint32_t command,
                   std::vector<std::size_t> items, std::vector<std::byte> body);
  /// Waits for rank's reply to its pending command, retrying failed or
  /// timed-out attempts per config. Returns the reply body, or nullopt once
  /// the rank has been declared lost (its items stay in pending_ for the
  /// caller to reassign).
  std::optional<std::vector<std::byte>> awaitReply(int rank);
  /// Collects every active pending command of `command`, reassigning the
  /// items of lost ranks across survivors until all items are accounted
  /// for. buildBody serializes a fresh body for reassigned items; onReply
  /// consumes each successful reply body.
  void collectStage(
      std::uint32_t command,
      const std::function<std::vector<std::byte>(
          std::span<const std::size_t>)>& buildBody,
      const std::function<void(std::span<const std::byte>)>& onReply);

  int ranks_;
  std::uint64_t bytesScattered_ = 0;
  std::uint64_t bytesReturned_ = 0;
  double busyImbalance_ = 1.0;
  std::uint64_t nextEpoch_ = 1;
  std::vector<Pending> pending_;
  std::vector<FaultEvent> faultEvents_;
  /// Sorted triplet runs returned by the adjacency stage — inline or as
  /// spill-file references — consumed by reduce()/reduceInto(); plus the
  /// kernel counters that traveled beside them.
  std::vector<mp::RunRef> reduceRuns_;
  sparse::AdjacencyKernelStats runKernelStats_;
  /// Σ of worker peakLocalBytes from the last mapAdjacency (budget
  /// accounting: these sums were alive concurrently with the sink).
  std::uint64_t workerPeakBytes_ = 0;
  /// Uniquifies worker-side spill-file names per command body.
  std::uint64_t nextRunToken_ = 0;
  /// The socket transport behind team_ for kProcess and kTcp (non-owning;
  /// the team owns it); nullptr for the in-process transport.
  runtime::StreamTransport* streamTransport_ = nullptr;
  /// True when stage commands run with shipRuns: worker file runs arrive
  /// as kShipTag chunks and decode points must localizeRun() every ref.
  bool shipRuns_ = false;
  /// Root-side assembler of in-flight kShipTag run files (pimpl — holds
  /// open output streams keyed by run name).
  class RunShipSink;
  std::unique_ptr<RunShipSink> shipSink_;
  /// Drains every kShipTag chunk `rank` has delivered into shipSink_
  /// (called at each reply receipt — chunks precede the reply that
  /// references them on the connection).
  void drainShippedRuns(int rank);
  /// Rewrites a shipped ref into the root-side file the sink materialized
  /// (<spillDir>/<name>); identity for inline and plain file refs.
  mp::RunRef localizeRun(mp::RunRef ref) const;
  /// Must be constructed last: service threads read config_/ranks_.
  std::unique_ptr<runtime::RankTeam> team_;
};

/// Stage-6 merge ownership: greedy LPT over each shard group's summed run
/// triplets (ties to the lower shard), so the busiest owner carries no
/// more than its share; round robin would give low shards, whose
/// upper-triangular rows are heavy, to the same owners. Returns, per
/// owner, its group indices in ascending shard order.
std::vector<std::vector<std::size_t>> assignMergeOwners(
    const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
    std::size_t owners);

/// Builds the executor for config.backend.
std::unique_ptr<SynthesisExecutor> makeExecutor(const SynthesisConfig& config);

/// Worker-process entry for the socket transport. When this process was
/// launched as a transport worker (runtime::StreamWorkerLink bootstrap
/// env present), runs the synthesis command service against the root and
/// returns its exit code; returns nullopt for a normal invocation. Every
/// binary that can act as a worker (the CLI, the distributed tests, the
/// fault soak) calls this first thing in main() and exits with the
/// returned code when engaged.
std::optional<int> maybeRunSynthesisWorker();

}  // namespace chisimnet::net
