#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/sparse/adjacency.hpp"

/// Batch checkpoint/resume for synthesis runs (the long-haul counterpart
/// of the paper's batched cluster jobs, §V): after each file batch the
/// driver can persist the accumulated adjacency plus a cursor manifest, so
/// a killed run restarts from the last completed batch instead of from
/// scratch. Adjacency accumulation is order-independent u64 addition and
/// the CADJ container round-trips triplets exactly, so a resumed run is
/// bit-identical to an uninterrupted one.
///
/// Crash safety: the adjacency (and, when present, the in-flight batch
/// snapshot) is written first under a batch-stamped name
/// (adjacency.<filesConsumed>.cadj / inflight.<filesConsumed>.evt), then
/// the manifest referencing them is written to a temp file and atomically
/// renamed over manifest.chkp, then stale batch-stamped files are deleted.
/// A crash at any point leaves either the previous consistent checkpoint
/// or the new one — never a manifest pointing at a half-written file.
///
/// In-flight batch: the background loader typically has
/// batch k+1 fully decoded while the checkpoint after batch k is written.
/// That decoded-but-unprocessed table is persisted beside the adjacency,
/// so a resume hands it straight to the compute stages and skips one batch
/// of file re-decode. The snapshot is integrity-checked (CRC32) and purely
/// an accelerator: its contents equal what re-decoding those files would
/// produce, so the resumed output is bit-identical either way.

namespace chisimnet::net {

inline constexpr const char* kCheckpointManifestName = "manifest.chkp";

/// One live spill run in a spill-mode checkpoint. Under a memory budget the
/// accumulated adjacency is a set of sorted run files, not a dense map;
/// the manifest names them instead of a .cadj snapshot. The run files are
/// already durable when the manifest is written — each landed via
/// tmp+rename when it was spilled — so spill-mode checkpoints skip the
/// snapshot write entirely.
struct SpillRunEntry {
  /// File name within the spill directory (config.spillDir; defaults to
  /// <checkpointDir>/spill for checkpointing runs).
  std::string file;
  std::uint64_t triplets = 0;
  std::uint64_t bytes = 0;
  /// Packed-key range of the run, recorded so a resumed run can tell
  /// shard-pure runs from straddlers without re-reading them. Manifests
  /// written before this field existed restore with hasKeyRange=false —
  /// the sharded merge then treats those runs as straddlers (correct,
  /// just one extra split pass).
  bool hasKeyRange = false;
  std::uint64_t firstKey = 0;
  std::uint64_t lastKey = 0;
};

/// One completed per-shard merge segment recorded mid-merge. A resume that
/// finds these re-merges only the shards without a segment; the recorded
/// ones are spliced into the final CADJ as-is (their CRC is re-verified at
/// splice time).
struct MergeSegmentEntry {
  std::uint32_t shard = 0;  ///< fine-shard index (lowId / rowsPerShard)
  /// Segment file name within the spill directory.
  std::string file;
  std::uint64_t triplets = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

struct CheckpointManifest {
  /// Input files fully consumed (attempted, including quarantined ones).
  std::uint64_t filesConsumed = 0;
  std::uint64_t batchesDone = 0;
  /// Hash over the output-relevant config fields and the full input file
  /// list; a resume against a different run is rejected.
  std::uint32_t configHash = 0;
  /// Adjacency file name within the checkpoint directory. Empty in spill
  /// mode, where spillRuns carries the accumulated state instead.
  std::string adjacencyFile;
  /// True when the checkpoint references spill run files instead of a
  /// dense adjacency snapshot. Either mode can resume the other — the sum
  /// is order-independent and the budget is outside the config hash.
  bool spillMode = false;
  /// Live spill runs at checkpoint time (spill mode only).
  std::vector<SpillRunEntry> spillRuns;
  /// Per-shard merge segments completed so far (spill mode only; populated
  /// by the checkpoints the driver writes between shard merges, so a kill
  /// during the external merge resumes with only the unfinished shards).
  std::vector<MergeSegmentEntry> mergeSegments;
  /// In-flight batch snapshot file name; empty when the checkpoint carries
  /// none (the loader had nothing decoded yet).
  std::string inflightFile;
  /// Quarantine list accumulated so far (degrade mode), carried across the
  /// resume so the final report still names every excluded input.
  std::vector<elog::QuarantinedFile> quarantined;
};

/// A decoded-but-unprocessed batch: the next batch the run would have
/// computed on when it died. Restoring it on resume skips its re-decode.
struct InflightBatch {
  table::EventTable events;
  /// Files of this batch that failed to decode (degrade mode).
  std::vector<elog::QuarantinedFile> quarantined;
  /// Input files this batch spans (cursor advance when it completes).
  std::uint64_t filesInBatch = 0;
};

/// Hash of the fields that determine the output for a given file list.
std::uint32_t checkpointConfigHash(
    const SynthesisConfig& config,
    const std::vector<std::filesystem::path>& files);

/// Persists `adjacency` + `manifest` into `dir` (created if missing) with
/// the crash-safe ordering described above. When `inflight` is non-null,
/// its snapshot is persisted and referenced by the manifest; the
/// manifest's own inflightFile field is ignored (the name is derived from
/// the cursor).
void saveCheckpoint(const std::filesystem::path& dir,
                    const CheckpointManifest& manifest,
                    const sparse::SymmetricAdjacency& adjacency,
                    const InflightBatch* inflight = nullptr);

/// Spill-mode variant: `manifest.spillRuns` must already name the live run
/// files (all durable — spilled via tmp+rename before this call). Writes
/// the in-flight snapshot if given, renames the manifest into place, then
/// garbage-collects `.spl`/`.spl.tmp` and `.cseg`/`.cseg.tmp` files in
/// `spillDir` the new manifest does not reference (superseded compaction
/// inputs, orphans of crashed spills, husks of killed shard merges) plus
/// stale `.cadj`/`.evt` files in `dir`. Pass `gcSpillDir = false` for
/// checkpoints written while other threads are still merging into
/// `spillDir`: the sweep would delete their in-flight `.cseg.tmp` files
/// (and freshly renamed segments this manifest predates). The parallel
/// merge GCs once at its serial entry point instead.
void saveSpillCheckpoint(const std::filesystem::path& dir,
                         const CheckpointManifest& manifest,
                         const std::filesystem::path& spillDir,
                         const InflightBatch* inflight = nullptr,
                         bool gcSpillDir = true);

/// Reads the manifest in `dir`; nullopt when none exists.
std::optional<CheckpointManifest> loadCheckpointManifest(
    const std::filesystem::path& dir);

/// Loads the adjacency a manifest points at.
sparse::SymmetricAdjacency loadCheckpointAdjacency(
    const std::filesystem::path& dir, const CheckpointManifest& manifest);

/// Loads the in-flight batch snapshot a manifest points at; nullopt when
/// the checkpoint carries none. Throws on a corrupt snapshot (CRC or
/// structure mismatch) — a resume must not silently compute on torn data.
std::optional<InflightBatch> loadCheckpointInflight(
    const std::filesystem::path& dir, const CheckpointManifest& manifest);

}  // namespace chisimnet::net
