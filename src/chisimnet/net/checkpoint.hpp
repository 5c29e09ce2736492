#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/sparse/spill.hpp"

/// Batch checkpoint/resume for synthesis runs (the long-haul counterpart
/// of the paper's batched cluster jobs, §V): after each file batch the
/// driver persists the accumulated adjacency plus a cursor manifest, so a
/// killed run restarts from the last completed batch instead of from
/// scratch. There is one checkpoint form: the accumulated sum is a set of
/// sorted CSPL1 spill runs in the spill directory, named by the manifest.
/// Under a memory budget they are the accumulator's live runs; the
/// unbounded path writes its dense sum as runs split at row-shard
/// boundaries, all in one file (dense.<filesConsumed>.0.spl). Adjacency
/// accumulation is order-independent u64 addition and runs round-trip
/// triplets exactly, so a resumed run — in either accumulation mode,
/// whichever mode wrote the checkpoint — is bit-identical to an
/// uninterrupted one.
///
/// Crash safety: every run the manifest names is already durable (runs
/// land via tmp+rename), then the manifest referencing them is written to
/// a temp file and atomically renamed over manifest.chkp, then stale files
/// are deleted. A crash at any point leaves either the previous consistent
/// checkpoint or the new one — never a manifest pointing at a half-written
/// file. A resume decodes every batch after the cursor from its log files,
/// which the config hash pins by name.
///
/// Manifest format CHKP3 (text): a magic line, then `files_consumed`,
/// `batches_done` and `config_hash` key lines, and tab-separated `spill`
/// (name, offset, triplets, bytes, first key, last key: one line per run,
/// and runs may share a file), `mergeseg` and `quarantine` lines. A
/// manifest of an older format (CHKP2: a run is a whole file, no offset;
/// CHKP1: dense .cadj snapshots, range-less runs) is refused with an error
/// naming its version.

namespace chisimnet::net {

inline constexpr const char* kCheckpointManifestName = "manifest.chkp";

struct CheckpointManifest {
  /// Input files fully consumed (attempted, including quarantined ones).
  std::uint64_t filesConsumed = 0;
  std::uint64_t batchesDone = 0;
  /// Hash over the output-relevant config fields and the full input file
  /// list; a resume against a different run is rejected.
  std::uint32_t configHash = 0;
  /// The accumulated sum: sorted runs in the spill directory. Each run's
  /// file is persisted by name only; a loaded manifest holds bare names.
  std::vector<sparse::SpillRunInfo> spillRuns;
  /// Per-shard merge segments completed so far (populated by the
  /// checkpoints the driver writes between shard merges, so a kill
  /// during the external merge resumes with only the unfinished shards,
  /// splicing the recorded ones as-is after a CRC re-check). Only each
  /// segment's identity (shard, file name, triplets, bytes, crc) is
  /// persisted; a loaded manifest holds bare names.
  std::vector<sparse::ShardSegment> mergeSegments;
  /// Quarantine list accumulated so far (degrade mode), carried across the
  /// resume so the final report still names every excluded input.
  std::vector<elog::QuarantinedFile> quarantined;
};

/// Hash of the fields that determine the output for a given file list.
std::uint32_t checkpointConfigHash(
    const SynthesisConfig& config,
    const std::vector<std::filesystem::path>& files);

/// Persists `manifest` into `dir` (created if missing) with the crash-safe
/// ordering described above. `manifest.spillRuns` must already name
/// durable run files in `spillDir`. After the manifest rename, the
/// `.spl`/`.spl.tmp`/`.cseg`/`.cseg.tmp` files in `spillDir` the new
/// manifest does not reference (superseded runs, orphans of crashed
/// spills, husks of killed shard merges) are deleted. Pass `gcSpillDir =
/// false` for checkpoints written while other threads are still merging
/// into `spillDir`: the sweep would delete their in-flight `.cseg.tmp`
/// files (and freshly renamed segments this manifest predates). The
/// parallel merge GCs once at its serial entry point instead.
void saveCheckpoint(const std::filesystem::path& dir,
                    const CheckpointManifest& manifest,
                    const std::filesystem::path& spillDir,
                    bool gcSpillDir = true);

/// Reads the manifest in `dir`; nullopt when none exists. Throws
/// std::runtime_error naming the manifest and line on anything malformed:
/// an unknown version or key, a numeric field that does not parse whole
/// or is out of range, a run or segment name that is not a plain file
/// name, or a non-empty run whose key range is inverted. No referenced
/// file is read.
std::optional<CheckpointManifest> loadCheckpointManifest(
    const std::filesystem::path& dir);

}  // namespace chisimnet::net
