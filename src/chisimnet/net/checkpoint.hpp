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
/// boundaries (dense.<filesConsumed>.<n>.spl). Adjacency accumulation is
/// order-independent u64 addition and runs round-trip triplets exactly, so
/// a resumed run — in either accumulation mode, whichever mode wrote the
/// checkpoint — is bit-identical to an uninterrupted one.
///
/// Crash safety: every run the manifest names is already durable (runs
/// land via tmp+rename), the in-flight batch snapshot is written under a
/// cursor-stamped name (inflight.<filesConsumed>.evt), then the manifest
/// referencing them is written to a temp file and atomically renamed over
/// manifest.chkp, then stale files are deleted. A crash at any point
/// leaves either the previous consistent checkpoint or the new one — never
/// a manifest pointing at a half-written file.
///
/// In-flight batch: the background loader typically has
/// batch k+1 fully decoded while the checkpoint after batch k is written.
/// That decoded-but-unprocessed table is persisted beside the runs, so a
/// resume hands it straight to the compute stages and skips one batch of
/// file re-decode. The snapshot (CINF) is integrity-checked (CRC32) and
/// purely an accelerator: its contents equal what re-decoding those files
/// would produce, so the resumed output is bit-identical either way. Its
/// body goes through the util byte codec, the events as one table::Event
/// row block, so a corrupt count is refused before it allocates.
///
/// Manifest format CHKP2 (text): a magic line, then `files_consumed`,
/// `batches_done`, `config_hash` and optional `inflight` key lines, and
/// tab-separated `spill`, `mergeseg` and `quarantine` lines. A manifest of
/// an older format (CHKP1: dense .cadj snapshots, range-less runs) is
/// refused with an error naming its version.

namespace chisimnet::net {

inline constexpr const char* kCheckpointManifestName = "manifest.chkp";

struct CheckpointManifest {
  /// Input files fully consumed (attempted, including quarantined ones).
  std::uint64_t filesConsumed = 0;
  std::uint64_t batchesDone = 0;
  /// Hash over the output-relevant config fields and the full input file
  /// list; a resume against a different run is rejected.
  std::uint32_t configHash = 0;
  /// The accumulated sum: sorted runs in the spill directory. Only each
  /// run's file name is persisted; a loaded manifest holds bare names.
  std::vector<sparse::SpillRunInfo> spillRuns;
  /// Per-shard merge segments completed so far (populated by the
  /// checkpoints the driver writes between shard merges, so a kill
  /// during the external merge resumes with only the unfinished shards,
  /// splicing the recorded ones as-is after a CRC re-check). Only each
  /// segment's identity (shard, file name, triplets, bytes, crc) is
  /// persisted; a loaded manifest holds bare names.
  std::vector<sparse::ShardSegment> mergeSegments;
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

/// Persists `manifest` into `dir` (created if missing) with the crash-safe
/// ordering described above. `manifest.spillRuns` must already name
/// durable run files in `spillDir`. When `inflight` is non-null, its
/// snapshot is persisted and referenced by the manifest; the manifest's
/// own inflightFile field is ignored (the name is derived from the
/// cursor). After the manifest rename, stale `.evt` files in `dir` and
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
                    const InflightBatch* inflight = nullptr,
                    bool gcSpillDir = true);

/// Reads the manifest in `dir`; nullopt when none exists. Throws
/// std::runtime_error naming the manifest and line on anything malformed:
/// an unknown version or key, a numeric field that does not parse whole
/// or is out of range, a run, segment or in-flight name that is not a
/// plain file name, or a non-empty run whose key range is inverted. No
/// referenced file is read.
std::optional<CheckpointManifest> loadCheckpointManifest(
    const std::filesystem::path& dir);

/// Loads the in-flight batch snapshot a manifest points at; nullopt when
/// the checkpoint carries none. Throws on a corrupt snapshot (CRC or
/// structure mismatch) — a resume must not silently compute on torn data.
std::optional<InflightBatch> loadCheckpointInflight(
    const std::filesystem::path& dir, const CheckpointManifest& manifest);

}  // namespace chisimnet::net
