#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/util/default_init_vector.hpp"

/// Memory-bounded adjacency accumulation: disk-spilled sorted runs and the
/// run ledger that collects them (paper-scale unlock — the full 2.9 M-person
/// Chicago week needs more accumulator memory than a single box has, so the
/// workers' sums arrive as CRC-framed sorted runs, the way the paper's
/// workers return sorted compressed matrices (§IV.A), and stage 6 finishes
/// with one external k-way merge per row-range shard, mergeShardRuns over
/// sparse/adjacency.hpp's TripletMerger, run by the shard's owner).
///
/// Spill-run container (CSPL1):
///   header  magic "CSPL" | version u32 | tripletCount u64
///   frames  [count u32][crc32 u32][count × 16-byte triplet rows]*
/// A frame payload is a util row block of AdjacencyTriplet — the CADJ row
/// encoding (adjacency_io.hpp) — written from and read into the frame
/// buffer in place.
/// A CSPL1 file holds one or more runs back to back: a run is the extent
/// (file, offset, bytes) of one header and its frames, so one stage-5 sum
/// writes all its flushes into one file instead of one file per flush.
/// Files are written to `<path>.tmp` and renamed into place when complete —
/// the same crash-safe tmp+rename idiom as the checkpoint manifest — so a
/// run file that exists under its real name is always whole. Each frame
/// carries its own CRC, so the reader streams through one bounded buffer
/// and still rejects a torn or bit-flipped frame, or a run that does not
/// fill its extent exactly, with the file and byte offset in the error.
///
/// Fault sites: "spill.write" fires in SpillRunWriter::commit() before the
/// rename, once per file (a kThrow models a crash mid-spill, leaving the
/// .tmp orphan); "spill.merge" fires before each intermediate pass of
/// mergeShardRuns, when no pass has touched its inputs.

namespace chisimnet::sparse {

/// A completed on-disk sorted run: the one record of a run wherever it
/// travels (accumulator live set, checkpoint manifest, mp wire). The run
/// is the extent [offset, offset + bytes) of `file`. A manifest stores
/// `file` as a bare name within the spill directory.
struct SpillRunInfo {
  std::filesystem::path file;
  std::uint64_t offset = 0;  ///< byte offset of the run's header in file
  std::uint64_t triplets = 0;
  std::uint64_t bytes = 0;  ///< extent length, for budget/IO accounting
  /// Packed-key range the run covers (first and last row; meaningless when
  /// triplets == 0).
  std::uint64_t firstKey = 0;
  std::uint64_t lastKey = 0;

  /// The row-range shard this run is confined to, or -1 when it is empty
  /// or crosses a shard boundary (such a run must be split before a
  /// per-shard merge can own it).
  std::int64_t shardOf(std::uint32_t rowsPerShard) const noexcept {
    if (triplets == 0) {
      return -1;
    }
    const std::uint32_t first =
        static_cast<std::uint32_t>(firstKey >> 32) / rowsPerShard;
    const std::uint32_t last =
        static_cast<std::uint32_t>(lastKey >> 32) / rowsPerShard;
    return first == last ? static_cast<std::int64_t>(first) : -1;
  }
};

/// Triplets per CRC frame (64 Ki rows = 1 MiB payload): the unit of both
/// the writer's buffering and the reader's resident window.
inline constexpr std::size_t kSpillFrameTriplets = std::size_t{1} << 16;

/// The most runs one k-way merge opens at once. A merge over more runs
/// first merges the smallest ones in intermediate passes until this many
/// remain, so the open files and resident reader frames stay bounded
/// however many runs a budget produced.
inline constexpr std::size_t kMergeFanIn = 32;

/// Writes strictly key-ascending triplet runs into one CSPL1 file, one run
/// after another. A run is either given whole (appendRun) or streamed
/// (append ... endRun). The returned records name the final path; they
/// are readable once commit() has renamed the file into place.
class SpillRunWriter {
 public:
  explicit SpillRunWriter(std::filesystem::path path);
  ~SpillRunWriter();

  SpillRunWriter(const SpillRunWriter&) = delete;
  SpillRunWriter& operator=(const SpillRunWriter&) = delete;

  /// Streams rows into the open run (opening one if none is).
  void append(const AdjacencyTriplet& triplet);
  void append(std::span<const AdjacencyTriplet> sorted);
  /// Ends the open run (an empty one if none is open) and returns its
  /// record: its header count is patched and the next append opens a new
  /// run at the end of the file.
  SpillRunInfo endRun();
  /// Writes `sorted` as one whole run, its frames straight from the span.
  /// No streamed run may be open.
  SpillRunInfo appendRun(std::span<const AdjacencyTriplet> sorted);

  /// Ends an open run, renames the .tmp into place and returns every
  /// run's record in file order.
  std::vector<SpillRunInfo> commit();
  /// A one-run file: ends the open run (an empty one if the file has no
  /// run yet), commits, and returns that run.
  SpillRunInfo finish();

 private:
  /// Writes a run header declaring `count` rows at the end of the file.
  void beginRun(std::uint64_t count);
  SpillRunInfo recordRun();
  void checkAscending(const AdjacencyTriplet& triplet);
  void writeFrame(std::span<const AdjacencyTriplet> rows);
  void flushFrame();

  std::filesystem::path path_;
  std::filesystem::path tmp_;
  std::ofstream out_;
  std::vector<AdjacencyTriplet> frame_;
  std::vector<SpillRunInfo> runs_;
  std::uint64_t position_ = 0;  ///< bytes written to the file so far
  bool runOpen_ = false;
  std::uint64_t runStart_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t firstKey_ = 0;
  std::uint64_t lastKey_ = 0;
  bool any_ = false;
  bool committed_ = false;
};

/// Streams one CSPL1 run back, one CRC-checked frame resident at a time,
/// read synchronously on the caller's thread. Every reader is this one:
/// worker and checkpoint runs folded into a dense map, straddler splits,
/// and each input of an owner's merge passes and final merge. The frame
/// buffer holds at most min(header count, kSpillFrameTriplets) rows.
class SpillRunReader final : public TripletSource {
 public:
  /// Reads the run at the extent [run.offset, run.offset + run.bytes) of
  /// run.file; its frames must end exactly where the extent does.
  explicit SpillRunReader(const SpillRunInfo& run);
  /// Reads a file that holds exactly one run.
  explicit SpillRunReader(std::filesystem::path path);

  bool next(AdjacencyTriplet& out) override;

  /// Total triplets the header declares.
  std::uint64_t tripletCount() const noexcept { return total_; }

 private:
  /// Seeks to the extent and reads the run header; `bytes` is the extent
  /// length, or a sentinel for "up to the end of the file".
  void open(std::uint64_t offset, std::uint64_t bytes);
  /// Reads, CRC-checks and decodes the next frame into frame_; false once
  /// the header's count is decoded and the run ends at its extent's end.
  bool readFrame();
  [[noreturn]] void fail(const std::string& what, std::uint64_t offset) const;

  std::filesystem::path path_;
  std::ifstream in_;
  std::vector<AdjacencyTriplet> frame_;
  std::size_t cursor_ = 0;
  std::uint64_t position_ = 0;   ///< file offset of the next unread byte
  std::uint64_t extentEnd_ = 0;  ///< file offset one past the run
  std::uint64_t total_ = 0;
  std::uint64_t decoded_ = 0;
  bool exhausted_ = false;
};

/// Spill activity counters, folded into SynthesisReport.
struct SpillStats {
  std::uint64_t runsWritten = 0;      ///< runs produced (incl. adopted)
  std::uint64_t spilledTriplets = 0;  ///< triplet rows that went to disk
  std::uint64_t spilledBytes = 0;     ///< run file bytes written
  /// Runs restored from a checkpoint (restoreRunFile): prior-life spills,
  /// counted in none of the fields above.
  std::uint64_t runsRestored = 0;
  /// Runs rewritten at shard boundaries because they straddled one when a
  /// per-shard merge plan was built.
  std::uint64_t runsSplit = 0;
  /// Max bytes of sorted runs the accumulator kept in memory at once. This
  /// is what the budget enforces: it stays within the spill threshold,
  /// half the budget.
  std::uint64_t peakResidentBytes = 0;
  /// Max concurrent stage-5 worker bytes the caller reported via
  /// noteWorkerPeak(): a pessimistic sum of per-worker historical peaks,
  /// bounded by each worker's flush threshold plus the largest single
  /// place's pair block (per-place kernels cannot flush mid-place).
  std::uint64_t peakWorkerBytes = 0;
};

/// The memory-bounded cross-batch accumulator: a ledger of sorted runs.
/// It holds the run files it adopted (stage-5 worker spills) or restored
/// (a checkpoint's), plus the in-memory sorted runs it was handed and
/// keeps (worker remainders, mp inline runs). Nothing is hashed or
/// re-sorted: kept runs are written as they are, shard-pure, through
/// writeShardRuns. Runs overlap in key range; the accumulator's one finish
/// is buildShardMergePlan, whose groups the shard owners merge with
/// mergeShardRuns, summing duplicates, so the spliced segments equal the
/// unbounded accumulator's sorted triplets bit for bit.
class SpillingAccumulator {
 public:
  struct Options {
    std::filesystem::path dir;  ///< run-file directory (required)
    /// Total budget this accumulator enforces: kept runs are written once
    /// their bytes would pass budgetBytes/2, since the other half is stage
    /// 5's share (the workers' flushing sums and their drains). 0 = never
    /// auto-spill (spillAll() on demand only).
    std::uint64_t budgetBytes = 0;
    /// Global rows (low person ids) per shard: kept runs are written as one
    /// shard-pure run per touched shard.
    std::uint32_t rowsPerShard = std::uint32_t{1} << 18;
    /// Run files are named <runPrefix><n>.spl; numbering resumes above any
    /// existing files with this prefix in dir. The constructor sweeps the
    /// .spl.tmp husks of this prefix and of stage-5 sums (kSumFilePrefix)
    /// that a killed writer left in dir.
    std::string runPrefix = "run.";
    /// true: superseded runs (split straddlers, emptied runs) are retired (takeRetiredFiles) instead of deleted, so a checkpoint
    /// manifest that still references them stays valid until the next
    /// manifest rename.
    bool deferDeletes = false;
  };

  explicit SpillingAccumulator(Options options);

  SpillingAccumulator(const SpillingAccumulator&) = delete;
  SpillingAccumulator& operator=(const SpillingAccumulator&) = delete;

  /// Keeps a sorted run: a worker's in-memory remainder or an mp inline
  /// run off the wire. Every row must be upper-triangular (i < j) with
  /// keys strictly ascending; anything else throws std::runtime_error
  /// before the run is kept. When the kept bytes would pass the spill
  /// threshold the runs kept so far are written first, and a run that
  /// alone passes it is written at once.
  void addSortedRun(std::vector<AdjacencyTriplet>&& run);
  /// Adoption and restore only record a run: they never read or rewrite
  /// one, so stage 6 costs O(1) per worker run. The fan-in bound is the
  /// merge's business (kMergeFanIn), not the live set's.
  ///
  /// Takes ownership of an existing run (a stage-5 worker spill) by
  /// renaming its file into this accumulator's own <runPrefix><n>.spl
  /// namespace. A file's runs are adopted one after another, and only the
  /// first renames it. The rename matters for checkpointing: worker file
  /// names restart from zero after a resume (batch counters, command
  /// tokens), so a manifest-referenced run left under its worker name
  /// would get overwritten by the next life's identically-named spill.
  void adoptRunFile(const SpillRunInfo& info);
  /// Re-registers a checkpointed run under its existing name. Unlike
  /// adoptRunFile this never renames: the current manifest references the
  /// file by that name, and a crash before the next manifest write must
  /// leave the old one resolvable.
  void restoreRunFile(const SpillRunInfo& info);

  void addKernelStats(const AdjacencyKernelStats& stats) noexcept {
    kernelStats_.merge(stats);
  }
  const AdjacencyKernelStats& kernelStats() const noexcept {
    return kernelStats_;
  }

  /// Records that `extraBytes` lived beside the kept runs (e.g. the sum of
  /// concurrent stage-5 worker peaks) for peak accounting. Worker bytes
  /// are tracked as stats().peakWorkerBytes, separate from the
  /// budget-enforced peakResidentBytes.
  void noteWorkerPeak(std::uint64_t extraBytes) noexcept;

  /// Writes every kept run to disk, all into one file (one run per touched
  /// shard of each kept run). Afterwards the full accumulated state is the
  /// live runs — what a checkpoint persists and what the merge plan groups.
  void spillAll();

  /// One row-range shard's slice of the merge plan: every live run whose
  /// keys fall in that shard. Groups come back in ascending shard order,
  /// so concatenating each group's merged stream reproduces the global
  /// sorted order.
  struct ShardRunGroup {
    std::uint32_t shard = 0;
    std::vector<SpillRunInfo> runs;
  };

  /// Writes the kept runs, splits any live run that straddles a shard
  /// boundary (one written at another shard width) into shard-pure runs
  /// (all in one new file), and returns the live set grouped per shard in
  /// ascending shard order. Afterwards liveRuns() reflects the split set,
  /// so a checkpoint manifest written mid-merge references exactly the
  /// files an owner will read; a file none of whose runs is live any more
  /// is retired (deferDeletes) or deleted. Each group can then be merged
  /// independently (mergeShardRuns) by its owner.
  std::vector<ShardRunGroup> buildShardMergePlan();

  const std::vector<SpillRunInfo>& liveRuns() const noexcept { return runs_; }
  /// Runs superseded since the last call (deferDeletes mode);
  /// the caller deletes them once its manifest no longer references them.
  std::vector<std::filesystem::path> takeRetiredFiles();

  /// Bytes of the sorted runs kept in memory.
  std::uint64_t residentBytes() const noexcept { return residentBytes_; }
  const SpillStats& stats() const noexcept { return stats_; }

 private:
  /// Counts runs this accumulator wrote and appends them to `out`.
  void recordWritten(const std::vector<SpillRunInfo>& written,
                     std::vector<SpillRunInfo>& out);
  /// Rewrites runs as shard-pure runs, all into one new file (appended to
  /// `out`). The originals are only read.
  void splitRuns(std::span<const SpillRunInfo> straddlers,
                 std::vector<SpillRunInfo>& out);
  /// Deletes a run file no live run references any more, or parks it in
  /// retired_ under deferDeletes.
  void retireRunFile(std::filesystem::path file);
  std::filesystem::path nextRunPath();

  Options options_;
  std::uint64_t spillThreshold_ = 0;  ///< 0 = unbounded
  std::vector<std::vector<AdjacencyTriplet>> kept_;
  std::uint64_t residentBytes_ = 0;
  std::vector<SpillRunInfo> runs_;
  std::vector<std::filesystem::path> retired_;
  /// The last adopted file's worker name and the name it was renamed to.
  std::filesystem::path adoptedFrom_;
  std::filesystem::path adoptedAs_;
  std::uint64_t nextRunIndex_ = 0;
  SpillStats stats_;
  AdjacencyKernelStats kernelStats_;
};

/// Stage-5 sum files are named <kSumFilePrefix><filePrefix><n>.spl, so the
/// accumulator's startup sweep can tell their .tmp husks from foreign
/// files.
inline constexpr std::string_view kSumFilePrefix = "sum.";

/// Stage-5 worker-local sum that bounds its own footprint: each place's
/// distinct pairs are appended to a flat triplet buffer, and whenever the
/// buffer outgrows `flushThresholdBytes` it is radix-sorted, equal pairs
/// are added up in one pass, and the result is flushed as spill runs, so
/// per-batch stage-5 memory is capped at roughly the threshold (plus its
/// sort scratch) per worker. Nothing is hashed: a place's pairs rarely
/// meet another place's before the sort, so a map would merge almost
/// nothing. It is the sum of every stage 5 that ends in sorted runs: the
/// budgeted shared-memory workers and every mp rank. Unbudgeted, the
/// threshold is 0 and the buffer is the whole sum. Every flush appends to
/// one run file, which takeRuns() renames into place once, when the sum is
/// drained.
class SpillingSum {
 public:
  /// flushThresholdBytes 0 = never flush on its own (flush() still
  /// writes runs). splitRows (>= 1) routes spills to their reduce-shard
  /// owners at flush time: each flush is appended as one shard-pure run
  /// per touched shard (shard = low id / splitRows), so the sink can hand
  /// every run to its owner without a split-and-rewrite pass before the
  /// parallel merge.
  SpillingSum(std::filesystem::path dir, std::string filePrefix,
              std::uint64_t flushThresholdBytes, std::uint32_t splitRows);

  /// Adds x·xᵀ of `matrix`; true when the sum then flushed.
  bool addCollocation(const CollocationMatrix& matrix);

  const AdjacencyKernelStats& kernelStats() const noexcept {
    return kernelStats_;
  }
  /// Max in-memory bytes so far: the buffer plus its sort scratch.
  std::uint64_t peakBytes() const noexcept {
    return std::max<std::uint64_t>(
        peakBytes_, (pairs_.capacity() + sortScratch_.capacity()) *
                        sizeof(AdjacencyTriplet));
  }

  /// Pairs appended since the last flush, repeats included: an upper
  /// bound on the rows drainInMemory() returns.
  std::uint64_t residentTriplets() const noexcept { return pairs_.size(); }
  /// The not-yet-flushed remainder as a sorted run; releases the buffer.
  /// A buffer at least half full is the run itself, handed over.
  std::vector<AdjacencyTriplet> drainInMemory();
  /// Appends the in-memory sum to this sum's run file as shard-pure runs
  /// (no-op when it is empty), leaving only runs on disk.
  void flush();
  /// Renames the run file into place (one rename for all flushes) and
  /// returns its runs in file order; empty when nothing was flushed.
  std::vector<SpillRunInfo> takeRuns();

 private:
  /// sortAndSumTriplets on the buffer, noting the peak bytes.
  void sortAndSum();

  std::filesystem::path dir_;
  std::string filePrefix_;
  std::uint64_t flushThreshold_ = 0;
  std::uint32_t splitRows_ = 0;
  std::vector<AdjacencyTriplet> pairs_;
  util::DefaultInitVector<AdjacencyTriplet> sortScratch_;
  AdjacencyKernelStats kernelStats_;
  std::unique_ptr<SpillRunWriter> writer_;  ///< open from the first flush
  std::uint64_t nextFileIndex_ = 0;
  std::uint64_t peakBytes_ = 0;
};

/// Sorts upper-triangular triplets by (i, j) in place and adds up the
/// weights of equal pairs in one pass: a stage-5 sum's flush. Returns the
/// number of distinct pairs, which are then the first rows, strictly
/// ascending. `scratch` is the sort's bucket buffer
/// (util::radixSortInPlace), kept by the caller across calls.
std::size_t sortAndSumTriplets(
    std::span<AdjacencyTriplet> triplets,
    util::DefaultInitVector<AdjacencyTriplet>& scratch);

/// Appends a strictly key-ascending triplet list to `writer` as shard-pure
/// runs, one per touched row-range shard (shard = low id / splitRows,
/// splitRows >= 1) in ascending shard order. This is the one writer of a
/// sorted in-memory run to disk: stage-5 worker flushes, the accumulator's
/// kept runs and the unbounded path's checkpoint all go through it.
void appendShardRuns(SpillRunWriter& writer,
                     std::span<const AdjacencyTriplet> sorted,
                     std::uint32_t splitRows);

/// Writes `sorted` (appendShardRuns) into the one file `file`, which lands
/// via tmp+rename, and returns its runs. Writes nothing when `sorted` is
/// empty.
std::vector<SpillRunInfo> writeShardRuns(
    const std::filesystem::path& file,
    std::span<const AdjacencyTriplet> sorted, std::uint32_t splitRows);

/// Runs one shard's independent loser-tree merge over its (shard-pure)
/// runs, streaming the result into `segmentFile` (tmp+rename). This is the
/// unit of work a shard owner — worker thread or rank — executes; the
/// final CADJ is the byte-identical concatenation of the resulting
/// segments in ascending shard order.
///
/// Over more than kMergeFanIn runs the owner first merges the smallest
/// ones in intermediate passes, the first pass sized
/// so that every later one is a full kMergeFanIn-way merge. Pass n writes
/// `<segment stem>.p<n>.spl` beside the segment, so a retried command
/// rewrites its own files and a reassigned one (new token in the segment
/// name) never collides with them; every pass file is gone once the
/// segment is in place, and the input runs are never touched. The segment
/// reports the pass count and the bytes the passes wrote.
ShardSegment mergeShardRuns(std::uint32_t shard,
                            std::span<const SpillRunInfo> runs,
                            const std::filesystem::path& segmentFile);

}  // namespace chisimnet::sparse
