#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"

/// Persistence for the synthesized sparse triangular adjacency matrix.
///
/// The paper synthesizes the network once on the cluster, then loads the
/// resulting ~10 GB sparse matrix on a workstation for analysis and
/// visualization (§V.A). CADJ1 is a compact binary container for the sorted
/// upper-triangular triplets: header (magic, version, edge count), payload
/// of (i, j, weight) rows with u32 ids and u64 weights, and a CRC32 footer
/// over the payload so a truncated transfer is detected at load. A row is
/// the little-endian AdjacencyTriplet itself (a util::ByteRow), so the
/// payload is written and read as one util row block, never field by
/// field — the same row encoding CSPL1 spill frames and inline mp runs
/// use.

namespace chisimnet::sparse {

/// Writes the adjacency as sorted triplets (toTriplets()). Overwrites `path`.
void saveAdjacency(const SymmetricAdjacency& adjacency,
                   const std::filesystem::path& path);

/// Writes pre-sorted triplets directly (avoids re-extracting them when the
/// caller already has the sorted form). Every row must have i < j
/// (std::invalid_argument otherwise); rows must be in strict (i, j) ascent,
/// which loadTriplets enforces.
void saveTriplets(std::span<const AdjacencyTriplet> triplets,
                  const std::filesystem::path& path);

/// Loads triplets, rejecting malformed input with std::runtime_error:
/// magic and version; a header count that does not match the file size
/// (checked before anything is allocated, so the allocation is bounded by
/// the file); the payload CRC; and rows that are not upper-triangular
/// (i < j) in strict (i, j) ascent. The result is therefore always valid
/// input for graph::Graph::fromTriplets.
std::vector<AdjacencyTriplet> loadTriplets(const std::filesystem::path& path);

/// Loads into an accumulator (e.g. to sum stored partial matrices).
SymmetricAdjacency loadAdjacency(const std::filesystem::path& path);

/// A finished CADJ payload segment: a headerless file of CADJ rows
/// covering one sorted key range, produced by a per-shard external merge
/// (mergeShardRuns) and later concatenated into the final CADJ via
/// StreamingTripletWriter::appendSegmentFile. This is the one record of a
/// segment wherever it travels (merge-shard reply, checkpoint manifest,
/// splice); a manifest stores `file` as a bare name within the spill
/// directory.
struct ShardSegment {
  std::uint32_t shard = 0;  ///< fine-shard index (lowId / rowsPerShard)
  std::filesystem::path file;
  std::uint64_t triplets = 0;
  std::uint64_t bytes = 0;  ///< file size = 16 × triplets
  std::uint32_t crc = 0;    ///< crc32 over the segment's bytes
  /// Thread-CPU seconds of this shard's merge. Per-owner sums of these
  /// model the parallel critical path on one-core hosts.
  double mergeSeconds = 0.0;
  /// Intermediate passes the merge needed to bring the shard's runs down
  /// to its fan-in bound, and the run bytes they wrote (0 for a one-pass
  /// merge and for a segment reused from a checkpoint).
  std::uint64_t mergePasses = 0;
  std::uint64_t mergePassBytes = 0;
  unsigned owner = 0;  ///< worker index / rank that ran the merge
};

/// Streams sorted triplets into a raw payload-segment file (tmp+rename, so
/// a segment that exists under its real name is always whole). The byte
/// encoding is exactly StreamingTripletWriter's payload encoding, which is
/// what makes a shard-ordered concatenation of segments reproduce the
/// serial writer's payload bit for bit.
class TripletSegmentWriter {
 public:
  explicit TripletSegmentWriter(std::filesystem::path path);
  ~TripletSegmentWriter();

  TripletSegmentWriter(const TripletSegmentWriter&) = delete;
  TripletSegmentWriter& operator=(const TripletSegmentWriter&) = delete;

  /// Rows must arrive upper-triangular (i < j) and in final sorted order.
  void append(const AdjacencyTriplet& triplet);

  /// Flushes and renames the .tmp into place; returns the segment's file
  /// and identity (shard, timing and owner are the caller's to fill).
  ShardSegment finish();

 private:
  void flushBuffer();

  std::filesystem::path path_;
  std::filesystem::path tmp_;
  std::ofstream out_;
  std::vector<AdjacencyTriplet> buffer_;  ///< rows not yet written
  std::uint32_t crc_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t bytes_ = 0;
  bool finished_ = false;
};

/// Writes a CADJ1 file as the concatenation of payload segments, without
/// materializing the triplets: the header count is patched and the
/// payload CRC chained across segments at finish(), producing bytes
/// identical to saveTriplets() on the concatenated rows. This is how a
/// memory-budgeted synthesis writes its sharded external merge straight
/// to disk.
class StreamingTripletWriter {
 public:
  explicit StreamingTripletWriter(const std::filesystem::path& path);

  /// Splices a finished payload segment (TripletSegmentWriter output) into
  /// the stream by raw byte copy: no decode, no re-encode. The copied
  /// bytes are CRCed against `segment.crc` so a segment corrupted at rest
  /// (or a stale resume artifact) fails loudly instead of poisoning the
  /// output; only then is the verified CRC combined into the payload CRC
  /// (util::crc32Combine), so each byte is CRCed once.
  /// Segments must be appended in ascending key order.
  void appendSegmentFile(const ShardSegment& segment);

  /// Writes the CRC footer, patches the header count; returns the count.
  std::uint64_t finish();

 private:
  std::filesystem::path path_;
  std::ofstream out_;
  std::uint32_t crc_ = 0;
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

}  // namespace chisimnet::sparse
