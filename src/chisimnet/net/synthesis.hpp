#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/graph/graph.hpp"
#include "chisimnet/runtime/partition.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/table/event_table.hpp"

/// The paper's core contribution (§IV): parallel synthesis of the person
/// collocation network from simulation log data.
///
/// Pipeline per batch of log files:
///   1. the log files are decoded into an event table on a background
///      prefetcher that loads batch k+1 while batch k is in stages 2-6,
///      taking file I/O off the compute critical path,
///   2. the time slice is subset and its rows grouped by place,
///   3. the root weighs each place group from its event rows (the
///      collocation matrix's nnz and occupied hours, before the matrix
///      exists),
///   4. the place groups are partitioned (LPT) by that weight for even
///      load balance — the step §IV.A.3 calls crucial,
///   5. each worker receives the event groups of the places it owns,
///      builds each sparse p×t collocation matrix x and adds its
///      adjacency A_l = x·xᵀ to its sum at once; matrices never leave the
///      worker,
///   6. worker sums are reduced into a single sparse upper-triangular
///      adjacency, and batches are summed into the final network.
///
/// The paper builds the matrices first and returns them to the root,
/// which only then learns their nnz to re-partition and re-scatter them;
/// computing the weight from the rows removes that round trip (DESIGN.md
/// §2).
///
/// Stages 2-6 are dispatched through a pluggable SynthesisExecutor
/// (executor.hpp), with one implementation per dispatch substrate of the
/// paper: shared-memory workers (SNOW fork cluster) and message-passing
/// ranks (Rmpi). Both run the exact same driver, so batching, prefetch,
/// per-stage timing, and the report shape are backend-independent.

namespace chisimnet::net {

class SynthesisExecutor;

/// Dispatch substrate for stages 2-6 (paper §IV.A: SNOW vs Rmpi).
enum class SynthesisBackend {
  /// Worker threads over shared memory (runtime::Cluster) — the SNOW fork
  /// cluster of the paper, no serialization between stages.
  kSharedMemory,
  /// Message-passing ranks (runtime::comm): the root scatters each place's
  /// event rows once to the rank that owns it, and the ranks return their
  /// adjacency sums; the report carries the byte accounting.
  kMessagePassing,
};

inline const char* backendName(SynthesisBackend backend) noexcept {
  return backend == SynthesisBackend::kSharedMemory ? "shared" : "mp";
}

/// Where the message-passing ranks live (kMessagePassing backend only).
enum class MpTransport {
  /// Ranks are RankTeam service threads in this process, mailboxes are the
  /// wire (the default; no crash isolation, no serialization of the wire
  /// frames beyond the command payloads).
  kInProcess,
  /// Ranks are fork/exec'd OS processes dialing rank 0 over an AF_UNIX
  /// socket in a private directory (runtime::StreamTransport). A worker
  /// crash — real SIGKILL included — is survived by respawn, reconnect
  /// and/or the rank-loss reassignment path, with bit-identical output.
  kProcess,
  /// The same transport over TCP — the multi-host story. Workers are
  /// spawned on loopback, or external when tcpListen is given. Spill runs
  /// ship their bytes over the wire, so workers need no shared filesystem.
  kTcp,
};

inline const char* mpTransportName(MpTransport transport) noexcept {
  switch (transport) {
    case MpTransport::kInProcess:
      return "inproc";
    case MpTransport::kProcess:
      return "process";
    case MpTransport::kTcp:
      return "tcp";
  }
  return "unknown";
}

/// How the pipeline responds to recoverable failures (corrupt input files,
/// failed worker commands).
enum class FaultPolicy {
  /// First failure aborts the whole run with the original error (default —
  /// matches the paper's batch jobs, where a failed job is simply re-run).
  kFailFast,
  /// Degrade gracefully: quarantine undecodable input files and retry /
  /// route around failing ranks, reporting exactly what was excluded so
  /// the caller can judge whether the degraded network is usable.
  kDegrade,
};

inline const char* faultPolicyName(FaultPolicy policy) noexcept {
  return policy == FaultPolicy::kFailFast ? "failfast" : "degrade";
}

/// One recovery action the pipeline took, in the order it happened.
struct FaultEvent {
  enum class Kind {
    kCommandRetry,     ///< a worker command failed/timed out and was retried
    kRankLost,         ///< a rank was declared dead; its work reassigned
    kWorkerRespawn,    ///< a dead worker process was re-execed for its rank
    kWorkerReconnect,  ///< a disconnected worker re-dialed and resumed
    kFileQuarantined,  ///< an input file was excluded as undecodable
    kResume,           ///< the run restarted from a checkpoint
    kCheckpoint,       ///< a batch checkpoint was persisted
  };
  Kind kind = Kind::kCommandRetry;
  int rank = -1;            ///< affected rank, -1 when not rank-scoped
  std::uint64_t batch = 0;  ///< batch counter at the time of the event
  std::string detail;       ///< human-readable specifics
};

inline const char* faultEventKindName(FaultEvent::Kind kind) noexcept {
  switch (kind) {
    case FaultEvent::Kind::kCommandRetry:
      return "command-retry";
    case FaultEvent::Kind::kRankLost:
      return "rank-lost";
    case FaultEvent::Kind::kWorkerRespawn:
      return "worker-respawn";
    case FaultEvent::Kind::kWorkerReconnect:
      return "worker-reconnect";
    case FaultEvent::Kind::kFileQuarantined:
      return "file-quarantined";
    case FaultEvent::Kind::kResume:
      return "resume";
    case FaultEvent::Kind::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

struct SynthesisConfig {
  table::Hour windowStart = 0;
  table::Hour windowEnd = 168;
  unsigned workers = 4;
  SynthesisBackend backend = SynthesisBackend::kSharedMemory;
  /// Files per batch when synthesizing from disk; 0 processes all files in
  /// one batch. Batches are independent and their adjacencies are summed,
  /// mirroring the paper's batched cluster jobs (§V). A background loader
  /// decodes batch k+1 (on `workers` threads, up to two batches ahead)
  /// while batch k is in stages 2-6.
  std::size_t filesPerBatch = 0;

  // ---- fault tolerance ----

  FaultPolicy faultPolicy = FaultPolicy::kFailFast;
  /// Degrade mode: abort anyway once more than this many input files have
  /// been quarantined (a blast-radius bound). 0 = no limit. Requires
  /// kDegrade — a limit under failfast is a hard config error.
  std::size_t maxQuarantinedFiles = 0;
  /// Message-passing backend: deadline for one worker command round trip.
  /// 0 disables the deadline — a silently dead rank then hangs the root
  /// (the pre-fault-tolerance behavior); recoverable worker errors are
  /// still retried under kDegrade since those need no timer.
  std::uint64_t commandTimeoutMs = 0;
  /// Degrade mode: attempts per worker command (first try included) before
  /// the rank is declared lost and its work reassigned to survivors.
  int commandMaxAttempts = 3;
  /// Base of the exponential backoff between command retries.
  std::uint64_t commandBackoffMs = 10;

  // ---- socket transport (kMessagePassing backend only) ----

  /// Where the ranks live: service threads in this process (default), or
  /// worker processes dialing rank 0 over an AF_UNIX or TCP socket. The
  /// socket transports under kDegrade require commandTimeoutMs > 0 — a
  /// crashed worker never replies, so without a deadline the root would
  /// hang on it instead of retrying into the respawn/reconnect/
  /// reassignment path.
  MpTransport transport = MpTransport::kInProcess;
  /// Times a rank's local worker process is re-execed after it dies before
  /// the rank is abandoned to the loss/reassignment path. 0 disables
  /// respawn (first death is permanent loss).
  int maxRespawns = 1;
  /// Heartbeat ping period (also the liveness monitor cadence, so ~the
  /// respawn/reconnect-detection latency). A worker silent for 8 periods
  /// is presumed hung and dropped.
  std::uint64_t heartbeatMs = 250;
  /// Per-attempt deadline of a worker's dial + hello handshake.
  std::uint64_t connectTimeoutMs = 5000;
  /// Extra dial attempts after the first (exponential backoff between
  /// them) before a worker gives up — both at startup and on reconnect.
  int connectRetries = 5;
  /// How long a disconnected worker's slot waits for it to re-dial before
  /// the rank is declared permanently dead and its work reassigned. 0 =
  /// every disconnect is immediately permanent.
  std::uint64_t reconnectGraceMs = 3000;
  /// kTcp only: root listen address as "host:port" for external workers
  /// (`chisim worker --connect`); nothing is spawned. Empty = 127.0.0.1 on
  /// an ephemeral port with workers spawned locally (loopback mode).
  std::string tcpListen;
  /// When non-empty, persist a checkpoint (the accumulated adjacency as
  /// sorted spill runs + a cursor manifest) into this directory after
  /// every file batch.
  std::filesystem::path checkpointDir;
  /// Resume from the checkpoint in checkpointDir instead of starting from
  /// scratch. Requires checkpointDir; a missing/mismatched checkpoint is a
  /// hard error (resuming the wrong run must not silently corrupt output).
  bool resume = false;

  // ---- memory budget (out-of-core accumulation) ----

  /// When > 0, bound the accumulator memory of the run: stage 5 workers
  /// flush their partial sums as CRC-framed sorted runs to spillDir, the
  /// cross-batch SpillingAccumulator collects those runs and keeps the
  /// workers' sorted remainders until they would pass half the budget,
  /// then writes them as runs too; the final network is merged shard by
  /// shard on the merge owners and spliced into a CADJ file, so a budgeted
  /// run goes through synthesizeToFile. Output is bit-identical to the
  /// unbounded path (u64 adds are order-independent and the merge sums
  /// duplicates), so the budget is a perf/footprint knob and not part of
  /// the checkpoint config hash — a run checkpointed unbounded can resume
  /// bounded and vice versa. 0 = unbounded (the all-in-memory accumulator
  /// of synthesizeAdjacency).
  std::uint64_t memoryBudgetBytes = 0;
  /// Run-file directory for the budgeted path and for oversized
  /// message-passing replies (which spill to disk and cross the wire as a
  /// file path once they would exceed runtime::maxPayloadBytes()). Empty
  /// resolves to checkpointDir/"spill" when checkpointing (so spill runs
  /// are covered by the checkpoint manifest) or to a unique directory
  /// under the system temp dir that the synthesizer removes on
  /// destruction. Note the message-passing process transport requires the
  /// workers to share this filesystem (they are local fork/exec children,
  /// so they do); the tcp transport does not — its workers spill into
  /// private local directories and ship run bytes over the wire, and this
  /// directory is where the root materializes them.
  std::filesystem::path spillDir;

  // ---- sharded external merge (stage-6 spill reduce) ----

  /// Row-range width of one merge shard (the granularity the merge owners
  /// — the `workers` threads or ranks — balance over, and the unit the
  /// final concatenation is ordered by). Stage-5 flushes, sink spills and
  /// checkpoint runs are all split at these boundaries. The output does
  /// not depend on it (it stays outside the checkpoint config hash). 0 =
  /// auto: 2^18 rows divided by `workers`, floored at 1. Exposed mainly so
  /// tests and benches can force multi-shard layouts on small populations.
  std::uint32_t mergeRowsPerShard = 0;
};

/// Resolved row-range width of one merge shard (mergeRowsPerShard, with
/// 0 = 2^18 / workers so each merge owner has work to balance).
std::uint32_t resolvedMergeRowsPerShard(const SynthesisConfig& config) noexcept;

/// Timing and size metrics of the last synthesis run. One report type
/// serves both backends; fields a backend has no source for (e.g. comm
/// bytes on shared memory) stay zero.
struct SynthesisReport {
  SynthesisBackend backend = SynthesisBackend::kSharedMemory;

  std::uint64_t logEntriesLoaded = 0;
  std::uint64_t placesProcessed = 0;
  std::uint64_t collocationNnz = 0;   ///< total person-hours across places
  std::uint64_t edges = 0;            ///< nonzeros of the final adjacency
  std::uint64_t batches = 0;

  double loadSeconds = 0.0;       ///< stage 1: file load + table build
  /// Load seconds that actually blocked the compute thread: the time spent
  /// waiting on the background loader.
  double loadExposedSeconds = 0.0;
  /// Load seconds hidden behind stage 2-6 compute (loadSeconds minus the
  /// exposed part, clamped at 0).
  double loadOverlappedSeconds = 0.0;
  double prefetchMeanOccupancy = 0.0;   ///< ready-buffer fill at each take
  std::uint64_t prefetchPeakOccupancy = 0;
  double subsetSeconds = 0.0;     ///< stage 2: slice + place index
  double collocationSeconds = 0.0;///< stage 3: the root's weight pass
  double partitionSeconds = 0.0;  ///< stage 4: weight partitioning
  /// Stage 5: scatter, collocation matrices and x·xᵀ products.
  double adjacencySeconds = 0.0;
  double reduceSeconds = 0.0;     ///< stage 6: worker-sum reduction
  double totalSeconds = 0.0;

  /// Weight imbalance (makespan / mean) of the adjacency-stage partition.
  double partitionImbalance = 1.0;
  /// Observed busy-time imbalance of the adjacency stage workers.
  double adjacencyBusyImbalance = 1.0;
  std::vector<std::uint64_t> partitionLoads;

  /// Payload bytes the root shipped to workers (event groups) and workers
  /// shipped back (adjacency sums).
  /// Counts every scatter/return payload including rank 0's self-delivery,
  /// so the figure tracks serialization volume, not NIC traffic. Zero on
  /// backends with no wire (shared memory).
  std::uint64_t bytesScattered = 0;
  std::uint64_t bytesReturned = 0;

  // ---- adjacency kernel ----

  std::uint64_t kernelDensePlaces = 0;  ///< places on the triangular array
  std::uint64_t kernelHashPlaces = 0;   ///< places on the local hash
  std::uint64_t kernelPairHourUpdates = 0;  ///< local increments
  std::uint64_t kernelGlobalEmits = 0;  ///< distinct-pair global inserts

  // ---- stage-6 reduce ----

  std::uint64_t reduceMergedSums = 0;   ///< worker sums folded, all batches
  double reduceCriticalSeconds = 0.0;   ///< wall seconds of the root fold

  // ---- fault section: every recovery action of the run ----

  std::vector<FaultEvent> faults;
  /// Input files excluded by quarantine (degrade mode); the surviving
  /// output equals a clean run over exactly the other files.
  std::vector<elog::QuarantinedFile> quarantined;
  std::uint64_t commandRetries = 0;  ///< worker commands retried
  int ranksLost = 0;                 ///< ranks declared dead this run
  /// Socket transport: dead local worker processes re-execed for their
  /// rank.
  std::uint64_t workersRespawned = 0;
  /// Socket transport: disconnected workers that re-dialed inside the
  /// grace window and resumed their rank (epoch-replayed handshake).
  std::uint64_t workersReconnected = 0;
  bool resumed = false;              ///< run started from a checkpoint
  std::uint64_t checkpointsWritten = 0;
  std::uint64_t filesSkippedByResume = 0;

  // ---- memory budget / spill section (memoryBudgetBytes > 0) ----

  std::uint64_t memoryBudgetBytes = 0;  ///< the configured cap (0 = off)
  std::uint64_t spillRunsWritten = 0;   ///< sorted run files produced
  std::uint64_t spilledTriplets = 0;    ///< triplet rows that went to disk
  std::uint64_t spilledBytes = 0;  ///< run-file bytes written, passes too
  /// Runs a resume restored from the checkpoint manifest: prior-life
  /// spills, counted in none of the written/spilled fields above.
  std::uint64_t spillRunsRestored = 0;
  /// Intermediate merge passes: the shard owners' passes that bring a
  /// shard's runs down to the merge fan-in.
  std::uint64_t spillCompactions = 0;
  /// The run bytes those passes wrote (included in spilledBytes).
  std::uint64_t mergePassBytes = 0;
  /// Max bytes of sorted runs the cross-batch accumulator kept in memory
  /// (worker remainders, mp inline runs) before writing them. The budget
  /// guarantee the tests assert: peakAccumulatorBytes ≤ memoryBudgetBytes.
  std::uint64_t peakAccumulatorBytes = 0;
  /// Max concurrent stage-5 worker bytes (summed per-worker historical
  /// peaks — pessimistic). Bounded by each worker's flush threshold
  /// (budget / (8 · workers)) plus the largest single place's pair block:
  /// per-place kernels cannot flush mid-place, so one crowded place sets
  /// the floor regardless of the budget.
  std::uint64_t peakStage5Bytes = 0;

  // ---- sharded external merge (synthesizeToFile under a budget) ----

  unsigned reduceShardsUsed = 0;  ///< merge owner count (= workers)
  std::uint64_t mergeSegmentsWritten = 0;  ///< per-shard segments merged
  /// Segments restored intact from a checkpoint and spliced without
  /// re-merging (kill-during-merge resume).
  std::uint64_t mergeSegmentsReused = 0;
  /// Straddling runs rewritten into shard-pure runs before the merge (zero
  /// when every spill was routed at flush time).
  std::uint64_t spillRunsSplit = 0;
  /// Σ thread-CPU seconds across all shard merges (the serial-equivalent
  /// merge work).
  double mergeSeconds = 0.0;
  /// Modeled parallel merge time: max per-owner sum of shard merge
  /// seconds — what the external merge costs when every owner runs
  /// concurrently.
  double mergeCriticalSeconds = 0.0;
  /// Measured wall time of the sharded merge and the segment splice.
  double mergeWallSeconds = 0.0;
  /// The root's serial splice of the segments into the CADJ (part of
  /// mergeWallSeconds).
  double spliceSeconds = 0.0;
};

class NetworkSynthesizer {
 public:
  explicit NetworkSynthesizer(SynthesisConfig config);
  ~NetworkSynthesizer();

  NetworkSynthesizer(const NetworkSynthesizer&) = delete;
  NetworkSynthesizer& operator=(const NetworkSynthesizer&) = delete;

  /// Synthesizes the collocation adjacency from per-rank log files,
  /// batch by batch, into one in-memory map. Requires memoryBudgetBytes
  /// == 0 (std::invalid_argument otherwise): a budgeted run finishes on
  /// disk through synthesizeToFile().
  sparse::SymmetricAdjacency synthesizeAdjacency(
      const std::vector<std::filesystem::path>& logFiles);

  /// Synthesizes from an in-memory event table (single batch). Requires
  /// memoryBudgetBytes == 0, as above.
  sparse::SymmetricAdjacency synthesizeAdjacency(const table::EventTable& events);

  /// Fully out-of-core synthesis: runs the batched pipeline, then merges
  /// the spilled runs shard by shard on the `workers` owners and splices
  /// the segments into a CADJ1 file at `outPath` (bytes identical to
  /// saveTriplets of the in-memory result). Returns the edge count.
  /// Requires memoryBudgetBytes > 0.
  std::uint64_t synthesizeToFile(
      const std::vector<std::filesystem::path>& logFiles,
      const std::filesystem::path& outPath);

  /// Convenience: adjacency -> graph (unbudgeted, as synthesizeAdjacency).
  graph::Graph synthesizeGraph(
      const std::vector<std::filesystem::path>& logFiles);
  graph::Graph synthesizeGraph(const table::EventTable& events);

  const SynthesisConfig& config() const noexcept { return config_; }
  const SynthesisReport& report() const noexcept { return report_; }

 private:
  /// Runs stages 2-6 on one batch table, accumulating into exactly one of
  /// `dense` (unbounded path) or `sink` (memory-budgeted path).
  void processBatch(const table::EventTable& events,
                    sparse::SymmetricAdjacency* dense,
                    sparse::SpillingAccumulator* sink);

  /// Runs the full batched file pipeline (resume, prefetch, checkpoints)
  /// into the chosen accumulator: the dense map of synthesizeAdjacency or
  /// the sink of synthesizeToFile.
  void runFilePipeline(const std::vector<std::filesystem::path>& logFiles,
                       sparse::SymmetricAdjacency* dense,
                       sparse::SpillingAccumulator* sink);

  /// Resets the report for a new run.
  void beginReport();

  /// Folds the executor's recovery events into the report, stamped with
  /// the current batch count.
  void foldExecutorFaults();

  SynthesisConfig config_;
  SynthesisReport report_;
  std::unique_ptr<SynthesisExecutor> executor_;
  /// Set when spillDir was auto-resolved to a temp dir this instance owns
  /// (and removes on destruction).
  std::filesystem::path ownedSpillDir_;
  /// Merge segments restored by a resume (bare file names) for
  /// synthesizeToFile to splice without re-merging; cleared per pipeline
  /// run.
  std::vector<sparse::ShardSegment> restoredSegments_;
};

/// Stage-4 input: the place groups with at least one presence inside the
/// window, and the weight of each.
struct PlaceWeights {
  std::vector<std::size_t> groups;     ///< PlaceIndex group positions
  std::vector<std::uint64_t> weights;  ///< aligned with groups
};

/// The root's weight pass (stage 3). A place's weight is nnz² / occupied
/// hours — nnz times its mean head count per occupied hour, since the x·xᵀ
/// cost of a hub grows with how many people overlap each hour — where nnz
/// sums the per-hour head counts of the window-clipped event rows. A
/// person's duplicate presences count twice here but once in the matrix;
/// the weight only steers the partition, never the result.
PlaceWeights weighPlaces(const table::EventTable& events,
                         const table::PlaceIndex& index,
                         table::Hour windowStart, table::Hour windowEnd);

/// Reference implementation for correctness tests: computes pairwise
/// collocation weights by brute force — for every hour and place, every
/// pair of present persons — without any of the pipeline machinery.
sparse::SymmetricAdjacency bruteForceAdjacency(const table::EventTable& events,
                                               table::Hour windowStart,
                                               table::Hour windowEnd);

}  // namespace chisimnet::net
