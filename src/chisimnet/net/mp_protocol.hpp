#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/table/event.hpp"
#include "chisimnet/util/binary_io.hpp"

/// Wire protocol of the message-passing synthesis backend.
///
/// One framed command per stage round trip, one framed reply back. The
/// protocol used to live in executor_mp.cpp's anonymous namespace; it is a
/// module of its own so the exact same command service runs in two places:
/// the in-process RankTeam service threads and the exec'd worker processes
/// of the socket transport (runtime::StreamTransport). Both decode the
/// same frames, execute the same stage kernels, and produce byte-identical
/// replies — which is what makes `--transport process|tcp` transparent to
/// the driver.
///
/// Frames (all integers little-endian, encoded with util::ByteWriter and
/// decoded with the bounded util::ByteReader):
///   command  [command u32][epoch u64][stage body]
///   reply    [command u32][status u32][epoch u64][body or error text]
///
/// Epochs let the root match replies to the newest attempt of a retried
/// command and discard stale ones. Stage bodies are pure functions of
/// their bytes, so duplicate execution after a timeout race is harmless.

namespace chisimnet::net::mp {

inline constexpr int kRoot = 0;
inline constexpr int kCommandTag = 99;  ///< root -> worker framed commands
inline constexpr int kReplyTag = 100;   ///< worker -> root framed replies
inline constexpr int kShipTag = 101;    ///< worker -> root run-file chunks,
                                        ///< sent AHEAD of the reply that
                                        ///< references them (per-connection
                                        ///< ordering makes the reply the
                                        ///< commit point)

enum Command : std::uint32_t {
  // 1 and 4 are retired (a collocation-only stage whose matrices returned
  // to the root, and a reduce-tree level); workers reject them as unknown.
  kCmdAdjacency = 2,   ///< build the collocation matrices of place event
                       ///< groups and sum their x·xᵀ (stage 5)
  kCmdStop = 3,
  kCmdMergeShard = 5,  ///< merge the spill runs of row-range shards into
                       ///< CADJ payload segments (stage-6 external merge)
};

inline constexpr std::uint32_t kStatusOk = 0;
inline constexpr std::uint32_t kStatusFailed = 1;

/// Command frame: [command u32][epoch u64][stage body].
inline constexpr std::size_t kCommandHeaderBytes = 4 + 8;
/// Reply frame: [command u32][status u32][epoch u64][body or error text].
inline constexpr std::size_t kReplyHeaderBytes = 4 + 4 + 8;

/// A sorted triplet run: inline in the frame, a CSPL1 spill file on a
/// filesystem shared with the root, or — when the transport spans hosts
/// with no shared filesystem — a *shipped* file whose bytes were streamed
/// to the root on kShipTag ahead of the reply. Workers return a non-inline
/// form whenever the run was flushed to disk under the memory budget OR an
/// inline reply would exceed runtime::maxPayloadBytes() — the fix for the
/// silent 1 GiB scale ceiling: a city-scale stage-5 sum crosses the wire
/// as a path (or as framed chunks), not as a gigabyte frame the transport
/// would reject.
struct RunRef {
  std::vector<sparse::AdjacencyTriplet> inlineRun;
  /// The bytes travelled on kShipTag; `run.file` is a bare name the root
  /// resolves into its own spill directory.
  bool shipped = false;
  /// File and shipped modes: the run's record, key range included, so the
  /// root's sharded merge planner can tell shard-pure worker runs from
  /// straddlers without re-reading the files. Empty file = inline.
  sparse::SpillRunInfo run;
  bool isFile() const noexcept { return !run.file.empty(); }
};

/// [mode u32: 0 inline | 1 file | 2 shipped][inline: count u64 + count ×
/// AdjacencyTriplet rows | file/shipped: name string + offset u64 +
/// triplets u64 + bytes u64 + firstKey u64 + lastKey u64]
void putRunRef(util::ByteWriter& out, const RunRef& ref);
RunRef takeRunRef(util::ByteReader& in);

/// A finished shard segment in a merge-shard reply: [shard u32]
/// [mergeSeconds f64][file string][triplets u64][bytes u64][crc u32]
/// [mergePasses u64][mergePassBytes u64].
/// The owner is not on the wire; the root knows whom it asked.
void putShardSegment(util::ByteWriter& out,
                     const sparse::ShardSegment& segment);
sparse::ShardSegment takeShardSegment(util::ByteReader& in);

/// One kShipTag frame: [name string][offset u64][total u64][raw bytes].
/// Chunks of one file arrive in order on one connection; offset 0 restarts
/// the file (a retried command re-ships from scratch), and offset+size ==
/// total completes it.
std::vector<std::byte> encodeShipChunk(const std::string& name,
                                       std::uint64_t offset,
                                       std::uint64_t total,
                                       std::span<const std::byte> data);

struct ShipChunkView {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t total = 0;
  std::span<const std::byte> data;  ///< view into the decoded frame
};
ShipChunkView decodeShipChunk(std::span<const std::byte> bytes);

/// Worker-side hook that moves a run file's bytes to the root when the
/// filesystems are not shared. ship() streams the file on kShipTag and
/// returns the bare name the reply's shipped RunRefs should carry; a file
/// holding many runs ships once.
class RunShipper {
 public:
  virtual ~RunShipper() = default;
  virtual std::string ship(const std::filesystem::path& file,
                           std::uint64_t bytes) = 0;
};

std::vector<std::byte> frameCommand(std::uint32_t command, std::uint64_t epoch,
                                    std::span<const std::byte> body);
std::vector<std::byte> frameReply(std::uint32_t command, std::uint32_t status,
                                  std::uint64_t epoch,
                                  std::span<const std::byte> body);

// ---- stage parameters ----

/// The slice of SynthesisConfig a worker needs to execute stage commands.
/// Travels as the transport's hello payload, so an exec'd (or respawned)
/// worker process computes with exactly the root's parameters.
struct StageParams {
  table::Hour windowStart = 0;
  table::Hour windowEnd = 0;
  /// Stage-5 worker flush threshold (≈ budget/(8·workers)); 0 = keep the
  /// whole partial sum in memory (unbudgeted).
  std::uint64_t spillThresholdBytes = 0;
  /// Directory for worker spill runs and oversized-reply files; must be
  /// shared with the root (workers are local processes/threads). Empty
  /// only when no budget is set AND replies are guaranteed to fit inline.
  std::string spillDir;
  /// Row-range width of one merge shard (resolvedMergeRowsPerShard; must
  /// be >= 1 for adjacency commands). Workers partition each stage-5 flush
  /// at shard boundaries, so every run they return is shard-pure and the
  /// root's sharded merge never has to split it.
  std::uint32_t splitRows = 0;
  /// True when the worker and root may not share a filesystem (the TCP
  /// transport). The worker then spills into a private local directory and
  /// ships every file run's bytes to the root on kShipTag instead of
  /// returning a path. The root clears this for its own inline execution.
  bool shipRuns = false;
};

std::vector<std::byte> encodeStageParams(const StageParams& params);
StageParams decodeStageParams(std::span<const std::byte> bytes);

// ---- command service ----

/// Executes one stage command body and returns the reply body. Pure with
/// respect to (params, command, body) — run by service ranks on command,
/// by worker processes, and by rank 0 inline (the root is also a worker).
/// Throws on malformed bodies or unknown commands. When params.shipRuns is
/// set and a shipper is given, file runs are streamed through it and the
/// reply carries shipped refs (the local files are deleted after shipping,
/// so a retried command re-executes and re-ships deterministically).
/// `rank` is the executing rank, reported to the spill.flush fault site.
std::vector<std::byte> executeSynthesisCommand(const StageParams& params,
                                               std::uint32_t command,
                                               std::span<const std::byte> body,
                                               RunShipper* shipper = nullptr,
                                               int rank = kRoot);

enum class ServiceOutcome {
  kReply,  ///< `reply` holds a framed reply to send to the root
  kStop,   ///< orderly stop command: exit the service loop
  kDie,    ///< injected kKillRank: go silent (no reply, exit the loop)
};

/// One turn of the worker command loop, shared by the in-process service
/// threads and the socket-transport worker processes: parses the command
/// frame (tolerating frames truncated below the header — those get a
/// status=failed reply with epoch 0, which the root matches against
/// whatever is outstanding), fires the "mp.service.command" fault site,
/// executes the command, and frames the reply. Never throws: any execution
/// error becomes a status=failed reply so the root can retry.
ServiceOutcome serviceSynthesisCommand(const StageParams& params, int rank,
                                       std::span<const std::byte> frame,
                                       std::vector<std::byte>& reply,
                                       RunShipper* shipper = nullptr);

}  // namespace chisimnet::net::mp
