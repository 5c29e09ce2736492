#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/pair_count_map.hpp"

/// The local-coordinate x·xᵀ kernel behind every stage-5 sum. It gathers a
/// place's pair counts in local row coordinates and hands each distinct
/// pair to an emit callback once; the callback decides where the pair
/// goes: SymmetricAdjacency adds it to its hash map, SpillingSum appends
/// it to a flat buffer it sorts at flush (sparse/spill.hpp).

namespace chisimnet::sparse::detail {

/// Counting-sort transpose of the per-person CSR into per-hour row lists.
/// Rows within a column come out ascending (rows are visited in order),
/// which the local-coordinate kernel relies on to keep pairs (a,b) with
/// a < b without re-sorting.
struct ColumnIndex {
  std::vector<std::uint64_t> offsets;  ///< sliceHours+1 prefix sums
  std::vector<std::uint32_t> rows;     ///< local rows, ascending per column
  std::uint64_t pairHours = 0;         ///< Σ_h c_h(c_h-1)/2, exact
};

ColumnIndex buildColumnIndex(const CollocationMatrix& matrix);

/// The calling thread's dense-path count array. Invariant: all-zero
/// between places (the emit loop clears every slot it touched, and growth
/// zero-fills).
std::vector<std::uint32_t>& denseScratch(std::uint64_t pairSlots);

// Dense/hash crossover for the local-coordinate kernel. The flat triangular
// array is used only when it fits the thread-local scratch buffer AND the
// emit scan over every slot is bounded by a small multiple of the update
// work actually done (pairSlots can dwarf pairHours at short slices).
// The choice is a pure function of the matrix, so results stay
// deterministic across partitions, workers and backends.
inline constexpr std::uint64_t kDenseMaxPairs = std::uint64_t{1} << 22;
inline constexpr std::uint64_t kDenseScanFactor = 8;
inline constexpr std::size_t kLocalHashMaxReserve = std::size_t{1} << 20;

inline bool useDenseLocalPath(std::uint64_t pairSlots,
                              std::uint64_t pairHours) noexcept {
  return pairSlots <= kDenseMaxPairs &&
         pairSlots <= kDenseScanFactor * pairHours;
}

/// Local-coordinate path: accumulate this place's pairs keyed by local row
/// indices, then call emit(packedKey, count) exactly once per distinct
/// pair. The inner loop becomes an array increment (dense) or a probe of a
/// cache-resident local table (hash) instead of a global insert per
/// pair-hour.
template <typename Emit>
void addViaLocalAccumulate(const CollocationMatrix& matrix,
                           AdjacencyKernelStats& stats, Emit&& emit) {
  const std::uint64_t p = matrix.personCount();
  if (p < 2) {
    return;
  }
  const ColumnIndex index = buildColumnIndex(matrix);
  if (index.pairHours == 0) {
    return;
  }
  stats.pairHourUpdates += index.pairHours;
  const std::uint64_t pairSlots = p * (p - 1) / 2;
  if (useDenseLocalPath(pairSlots, index.pairHours)) {
    ++stats.densePlaces;
    std::vector<std::uint32_t>& scratch = denseScratch(pairSlots);
    for (std::uint32_t hour = 0; hour < matrix.sliceHours(); ++hour) {
      const std::uint64_t begin = index.offsets[hour];
      const std::uint64_t end = index.offsets[hour + 1];
      for (std::uint64_t a = begin; a < end; ++a) {
        const std::uint64_t ra = index.rows[a];
        // Upper-triangular flattening: slot(ra,rb) = rowBase + rb for
        // ra < rb, with rows ascending within the column. Counts cannot
        // overflow uint32: each hour contributes at most 1 and the slice
        // hour count is itself a uint32.
        const std::uint64_t rowBase = ra * (2 * p - ra - 1) / 2 - ra - 1;
        for (std::uint64_t b = a + 1; b < end; ++b) {
          ++scratch[static_cast<std::size_t>(rowBase + index.rows[b])];
        }
      }
    }
    for (std::uint64_t ra = 0; ra + 1 < p; ++ra) {
      const std::uint64_t rowBase = ra * (2 * p - ra - 1) / 2 - ra - 1;
      const table::PersonId personA =
          matrix.personAt(static_cast<std::size_t>(ra));
      for (std::uint64_t rb = ra + 1; rb < p; ++rb) {
        std::uint32_t& slot = scratch[static_cast<std::size_t>(rowBase + rb)];
        if (slot != 0) {
          emit(packPair(personA,
                        matrix.personAt(static_cast<std::size_t>(rb))),
               std::uint64_t{slot});
          slot = 0;
          ++stats.globalEmits;
        }
      }
    }
  } else {
    ++stats.hashPlaces;
    PairCountMap local(static_cast<std::size_t>(
        std::min({index.pairHours, pairSlots,
                  static_cast<std::uint64_t>(kLocalHashMaxReserve)})));
    for (std::uint32_t hour = 0; hour < matrix.sliceHours(); ++hour) {
      const std::uint64_t begin = index.offsets[hour];
      const std::uint64_t end = index.offsets[hour + 1];
      for (std::uint64_t a = begin; a < end; ++a) {
        const std::uint64_t ra = index.rows[a];
        for (std::uint64_t b = a + 1; b < end; ++b) {
          // ra < rows[b] within a column, so the key is already canonical.
          local.add((ra << 32) | index.rows[b], 1);
        }
      }
    }
    local.forEach([&emit, &matrix](std::uint64_t key, std::uint64_t count) {
      emit(packPair(matrix.personAt(pairLow(key)),
                    matrix.personAt(pairHigh(key))),
           count);
    });
    stats.globalEmits += local.size();
  }
}

}  // namespace chisimnet::sparse::detail
