#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "chisimnet/table/event.hpp"

/// Columnar event table with binary-search subsetting.
///
/// This is the R data.table substitute (paper §IV.A.1-2): the log data frame
/// is keyed/sorted once, after which time-slice subsets and per-place
/// retrievals are sub-linear. Storage is struct-of-arrays so a scan over one
/// column (e.g. start times) touches only that column's memory.

namespace chisimnet::table {

using RowIndex = std::uint64_t;

/// CSR-style grouping of table rows by place ID, built once and then used to
/// hand each worker the rows for its assigned places in O(group size).
struct PlaceIndex {
  std::vector<PlaceId> placeIds;       ///< sorted unique place ids
  std::vector<std::uint64_t> offsets;  ///< size placeIds.size()+1 into rows
  std::vector<RowIndex> rows;          ///< row indices grouped by place

  /// Rows for the group at position `group` in placeIds.
  std::span<const RowIndex> groupRows(std::size_t group) const {
    return {rows.data() + offsets[group], rows.data() + offsets[group + 1]};
  }
};

class EventTable {
 public:
  EventTable() = default;

  /// Bulk-construct from rows (unsorted is fine).
  explicit EventTable(std::span<const Event> events);

  void append(const Event& event);
  void appendAll(std::span<const Event> events);
  void reserve(std::uint64_t rows);
  void clear();

  std::uint64_t size() const noexcept { return start_.size(); }
  bool empty() const noexcept { return start_.empty(); }

  Event row(RowIndex index) const;

  std::span<const Hour> startColumn() const noexcept { return start_; }
  std::span<const Hour> endColumn() const noexcept { return end_; }
  std::span<const PersonId> personColumn() const noexcept { return person_; }
  std::span<const ActivityId> activityColumn() const noexcept { return activity_; }
  std::span<const PlaceId> placeColumn() const noexcept { return place_; }

  /// Sorts all columns by ascending start time (ties broken by end, person)
  /// and builds the running-max-of-end auxiliary column that accelerates
  /// overlap queries. Idempotent.
  void sortByStart();
  bool isSortedByStart() const noexcept { return sortedByStart_; }

  /// Row indices of events whose start lies in [windowStart, windowEnd).
  /// Requires sortByStart(). O(log n + answer).
  std::vector<RowIndex> rowsStartingIn(Hour windowStart, Hour windowEnd) const;

  /// Row indices of events whose interval overlaps [windowStart, windowEnd).
  /// Requires sortByStart(). Uses the running max of end times to skip the
  /// prefix of rows that cannot overlap, so cost is O(log n + scanned),
  /// where `scanned` is bounded by the rows from the first possible overlap
  /// to the last row starting before windowEnd.
  std::vector<RowIndex> rowsOverlapping(Hour windowStart, Hour windowEnd) const;

  /// A new table holding the rows matching a predicate.
  EventTable filter(const std::function<bool(const Event&)>& predicate) const;

  /// Sorted unique place ids over the whole table.
  std::vector<PlaceId> uniquePlaces() const;

  /// Groups all rows by place id.
  PlaceIndex buildPlaceIndex() const;

  /// Largest end time in the table (0 when empty).
  Hour maxEnd() const noexcept;

 private:
  std::vector<Hour> start_;
  std::vector<Hour> end_;
  std::vector<PersonId> person_;
  std::vector<ActivityId> activity_;
  std::vector<PlaceId> place_;
  /// runningMaxEnd_[i] = max(end_[0..i]); valid only when sortedByStart_.
  std::vector<Hour> runningMaxEnd_;
  bool sortedByStart_ = false;
};

}  // namespace chisimnet::table
