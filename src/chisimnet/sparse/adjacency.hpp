#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/pair_count_map.hpp"
#include "chisimnet/table/event.hpp"

/// The sparse symmetric collocation adjacency matrix A = Σ_l x_l·x_lᵀ
/// (paper §IV). Off-diagonal entries only: A(i,j) is the number of
/// person-hours i and j spent collocated. The matrix is stored as its upper
/// triangle (i < j), exactly as the paper stores the triangular sparse
/// matrix in R, via a pair-count hash map while accumulating and as sorted
/// triplets once finalized.
///
/// The map is the unbounded shared-memory path's sum: each worker adds its
/// places into one, and the dense stage-6 tail runs on every core the
/// caller grants: merge() folds a worker sum with concurrent inserts, and
/// toTriplets() buckets the table by row range and radix-sorts the buckets
/// concurrently. Weights are integer sums and the triplets fully sorted, so
/// neither output depends on the thread count. One thread runs the serial
/// code: one insert loop, or one extraction pass and one radix sort over
/// the whole table. Stage-5 sums that end in sorted runs (budgeted workers,
/// mp ranks) hold no map: they append each place's pairs and sort at flush
/// (SpillingSum, sparse/spill.hpp).

namespace chisimnet::sparse {

/// Diagnostic counters from the local-coordinate kernel, merged through the
/// stage-6 reduce alongside the weights (not part of the matrix value).
struct AdjacencyKernelStats {
  std::uint64_t densePlaces = 0;     ///< places on the triangular-array path
  std::uint64_t hashPlaces = 0;      ///< places on the local-hash path
  std::uint64_t pairHourUpdates = 0; ///< local increments performed
  std::uint64_t globalEmits = 0;     ///< distinct per-place pairs emitted
                                     ///< into the worker's sum

  void merge(const AdjacencyKernelStats& other) noexcept {
    densePlaces += other.densePlaces;
    hashPlaces += other.hashPlaces;
    pairHourUpdates += other.pairHourUpdates;
    globalEmits += other.globalEmits;
  }
};

struct AdjacencyTriplet {
  std::uint32_t i = 0;  ///< lower person id
  std::uint32_t j = 0;  ///< higher person id
  std::uint64_t weight = 0;

  friend auto operator<=>(const AdjacencyTriplet&, const AdjacencyTriplet&) =
      default;
};

class SymmetricAdjacency {
 public:
  explicit SymmetricAdjacency(std::size_t expectedEdges = 64)
      : pairs_(expectedEdges) {}

  /// Adds `weight` collocation hours between distinct persons i and j.
  void add(std::uint32_t i, std::uint32_t j, std::uint64_t weight);

  /// Accumulates one place's x·xᵀ contribution with the local-coordinate
  /// kernel: pair counts are gathered in local row coordinates (a flat
  /// upper-triangular uint32 array for small/medium places, a compact
  /// local hash for hubs) and emitted into the global map once per
  /// distinct pair instead of once per pair-hour.
  void addCollocation(const CollocationMatrix& matrix);

  /// Sums another adjacency into this one (matrix addition), inserting on
  /// `threads` threads (see PairCountMap::merge).
  void merge(const SymmetricAdjacency& other, unsigned threads = 1) {
    pairs_.merge(other.pairs_, threads);
    kernelStats_.merge(other.kernelStats_);
  }

  /// Collocation hours between i and j (0 when never collocated).
  std::uint64_t weight(std::uint32_t i, std::uint32_t j) const noexcept;

  /// Number of stored (i<j) edges.
  std::uint64_t edgeCount() const noexcept { return pairs_.size(); }

  std::size_t memoryBytes() const noexcept { return pairs_.memoryBytes(); }

  /// Pre-sizes the underlying map for `expectedEdges` entries.
  void reserve(std::size_t expectedEdges) { pairs_.reserve(expectedEdges); }

  const AdjacencyKernelStats& kernelStats() const noexcept {
    return kernelStats_;
  }

  /// Folds externally gathered kernel counters in (used when triplets and
  /// stats travel separately, e.g. over the message-passing wire).
  void addKernelStats(const AdjacencyKernelStats& stats) noexcept {
    kernelStats_.merge(stats);
  }

  /// Upper-triangular triplets sorted by (i, j); the same output for any
  /// thread count. threads <= 1 makes one pass over the table and one
  /// radix sort of the whole run; more threads bucket the entries by row
  /// range and sort the buckets concurrently.
  std::vector<AdjacencyTriplet> toTriplets(unsigned threads = 1) const;

 private:
  PairCountMap pairs_;
  AdjacencyKernelStats kernelStats_;
};

/// A pull stream of (i,j)-sorted triplets with strictly increasing packed
/// keys. The unit the external-memory merge composes over: in-memory runs,
/// spill-run files (sparse/spill.hpp), and merger outputs all speak it.
class TripletSource {
 public:
  virtual ~TripletSource() = default;

  /// Fills `out` with the next triplet; false once the stream is exhausted
  /// (and on every call after that).
  virtual bool next(AdjacencyTriplet& out) = 0;
};

/// TripletSource over an in-memory sorted run (non-owning view).
class SpanTripletSource final : public TripletSource {
 public:
  explicit SpanTripletSource(std::span<const AdjacencyTriplet> run)
      : run_(run) {}
  bool next(AdjacencyTriplet& out) override {
    if (cursor_ >= run_.size()) {
      return false;
    }
    out = run_[cursor_++];
    return true;
  }

 private:
  std::span<const AdjacencyTriplet> run_;
  std::size_t cursor_ = 0;
};

/// K-way merge of sorted runs: a loser-tree tournament over k sorted
/// sources, emitting one strictly key-ascending stream with
/// the weights of pairs that appear in several sources summed. Each next()
/// costs O(log k) comparisons and replays only the path from the winning
/// leaf to the root, so merging spilled runs streams through bounded
/// buffers instead of materializing them. Sources must be strictly
/// ascending (a run never repeats a key); the merger validates that and
/// rejects mis-ordered input rather than emitting a corrupt sum.
class TripletMerger final : public TripletSource {
 public:
  /// Non-owning: the sources must outlive the merger.
  explicit TripletMerger(std::vector<TripletSource*> sources);
  /// Owning variant for composed pipelines (file readers feeding a merge).
  explicit TripletMerger(std::vector<std::unique_ptr<TripletSource>> sources);

  bool next(AdjacencyTriplet& out) override;

 private:
  void start(std::size_t sourceCount);
  void advance(std::size_t leaf);
  void replay(std::size_t leaf);
  std::uint64_t keyOf(std::size_t leaf) const noexcept { return keys_[leaf]; }

  std::vector<TripletSource*> sources_;
  std::vector<std::unique_ptr<TripletSource>> owned_;
  std::vector<AdjacencyTriplet> heads_;  ///< current head per leaf
  std::vector<std::uint64_t> keys_;      ///< packed key per leaf (sentinel on EOF)
  std::vector<std::size_t> losers_;      ///< internal tournament nodes
  std::size_t leafCount_ = 0;            ///< sources padded to a power of two
  std::size_t winner_ = 0;
};

/// Convenience for tests and in-memory reductions: k-way merge of sorted
/// runs via TripletMerger, materialized.
std::vector<AdjacencyTriplet> mergeKSortedTriplets(
    std::span<const std::span<const AdjacencyTriplet>> runs);

/// Accumulates every matrix in `matrices` into a fresh adjacency.
SymmetricAdjacency adjacencyFromCollocations(
    std::span<const CollocationMatrix> matrices);

/// Reference x·xᵀ for tests and benches, never used by the pipeline: the
/// paper's SpGEMM, which for every hour column adds 1 to every pair of
/// persons present in it — one global insert per pair-hour. It yields the
/// same adjacency as addCollocation, which tests check against it.
SymmetricAdjacency spGemmAdjacency(const CollocationMatrix& matrix);

}  // namespace chisimnet::sparse
