#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chisimnet/table/event.hpp"
#include "chisimnet/table/event_table.hpp"

/// Per-place sparse collocation matrices (paper §IV).
///
/// For one place l and a time slice of t hours, the collocation matrix x is
/// a binary p×t matrix whose (i, h) entry is 1 when person i was at l during
/// hour h. Since only persons who visit l have nonzero rows, x is stored in
/// local CSR form over the visiting persons only: a sorted person list plus,
/// per person, a sorted list of hour indices relative to the slice start.

namespace chisimnet::sparse {

class CollocationMatrix {
 public:
  CollocationMatrix() = default;

  /// Builds the matrix for one place from that place's log events, clipped
  /// to the window [windowStart, windowEnd). Hours outside the window are
  /// dropped; duplicate (person, hour) presences collapse to one.
  CollocationMatrix(table::PlaceId place, std::span<const table::Event> events,
                    table::Hour windowStart, table::Hour windowEnd);

  table::PlaceId place() const noexcept { return place_; }

  /// Number of distinct persons with at least one presence (local rows).
  std::size_t personCount() const noexcept { return persons_.size(); }

  /// Number of nonzero entries (person-hours). The paper balances the
  /// adjacency stage by it (§IV.A.3); the pipeline weighs a place from its
  /// event rows before the matrix exists (net::weighPlaces).
  std::uint64_t nnz() const noexcept { return hours_.size(); }

  /// Global person id for local row `row`.
  table::PersonId personAt(std::size_t row) const { return persons_[row]; }

  /// Sorted hour indices (relative to windowStart) for local row `row`.
  std::span<const std::uint32_t> hoursAt(std::size_t row) const {
    return {hours_.data() + offsets_[row], hours_.data() + offsets_[row + 1]};
  }

  /// Width of the time slice in hours.
  std::uint32_t sliceHours() const noexcept { return sliceHours_; }

  /// True when person `row` was present during relative hour `hour`.
  bool present(std::size_t row, std::uint32_t hour) const noexcept;

  /// Approximate heap bytes held.
  std::size_t memoryBytes() const noexcept;

 private:
  table::PlaceId place_ = 0;
  std::uint32_t sliceHours_ = 0;
  std::vector<table::PersonId> persons_;   ///< sorted distinct visitors
  std::vector<std::uint64_t> offsets_;     ///< persons_.size()+1 into hours_
  std::vector<std::uint32_t> hours_;       ///< per-person sorted hour indices
};

/// Builds one collocation matrix per place appearing in `table`, clipped to
/// the window. `table` rows need not be sorted. Matrices with zero nnz are
/// omitted. Returned in ascending place-id order.
std::vector<CollocationMatrix> buildCollocationMatrices(
    const table::EventTable& table, table::Hour windowStart,
    table::Hour windowEnd);

/// Builds the collocation matrix for a single place from the rows listed in
/// a PlaceIndex group.
CollocationMatrix buildCollocationMatrix(const table::EventTable& table,
                                         const table::PlaceIndex& index,
                                         std::size_t group,
                                         table::Hour windowStart,
                                         table::Hour windowEnd);

}  // namespace chisimnet::sparse
