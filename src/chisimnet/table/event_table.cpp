#include "chisimnet/table/event_table.hpp"

#include <algorithm>
#include <numeric>

#include "chisimnet/util/error.hpp"
#include "chisimnet/util/label_index.hpp"
#include "chisimnet/util/radix_sort.hpp"

namespace chisimnet::table {

EventTable::EventTable(std::span<const Event> events) { appendAll(events); }

void EventTable::append(const Event& event) {
  start_.push_back(event.start);
  end_.push_back(event.end);
  person_.push_back(event.person);
  activity_.push_back(event.activity);
  place_.push_back(event.place);
  sortedByStart_ = false;
}

void EventTable::appendAll(std::span<const Event> events) {
  reserve(size() + events.size());
  for (const Event& event : events) {
    append(event);
  }
}

void EventTable::reserve(std::uint64_t rows) {
  start_.reserve(rows);
  end_.reserve(rows);
  person_.reserve(rows);
  activity_.reserve(rows);
  place_.reserve(rows);
}

void EventTable::clear() {
  start_.clear();
  end_.clear();
  person_.clear();
  activity_.clear();
  place_.clear();
  runningMaxEnd_.clear();
  sortedByStart_ = false;
}

Event EventTable::row(RowIndex index) const {
  CHISIM_REQUIRE(index < size(), "row index out of range");
  return Event{start_[index], end_[index], person_[index], activity_[index],
               place_[index]};
}

void EventTable::sortByStart() {
  if (sortedByStart_) {
    return;
  }
  std::vector<RowIndex> order(size());
  std::iota(order.begin(), order.end(), RowIndex{0});
  std::sort(order.begin(), order.end(), [this](RowIndex a, RowIndex b) {
    if (start_[a] != start_[b]) return start_[a] < start_[b];
    if (end_[a] != end_[b]) return end_[a] < end_[b];
    return person_[a] < person_[b];
  });

  const auto permute = [&order](auto& column) {
    using Column = std::remove_reference_t<decltype(column)>;
    Column permuted;
    permuted.reserve(column.size());
    for (RowIndex source : order) {
      permuted.push_back(column[source]);
    }
    column = std::move(permuted);
  };
  permute(start_);
  permute(end_);
  permute(person_);
  permute(activity_);
  permute(place_);

  runningMaxEnd_.resize(size());
  Hour runningMax = 0;
  for (std::uint64_t i = 0; i < size(); ++i) {
    runningMax = std::max(runningMax, end_[i]);
    runningMaxEnd_[i] = runningMax;
  }
  sortedByStart_ = true;
}

std::vector<RowIndex> EventTable::rowsStartingIn(Hour windowStart,
                                                 Hour windowEnd) const {
  CHISIM_REQUIRE(sortedByStart_, "rowsStartingIn requires sortByStart()");
  const auto lo = std::lower_bound(start_.begin(), start_.end(), windowStart);
  const auto hi = std::lower_bound(lo, start_.end(), windowEnd);
  std::vector<RowIndex> rows;
  rows.reserve(static_cast<std::size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) {
    rows.push_back(static_cast<RowIndex>(it - start_.begin()));
  }
  return rows;
}

std::vector<RowIndex> EventTable::rowsOverlapping(Hour windowStart,
                                                  Hour windowEnd) const {
  CHISIM_REQUIRE(sortedByStart_, "rowsOverlapping requires sortByStart()");
  std::vector<RowIndex> rows;
  if (windowStart >= windowEnd || empty()) {
    return rows;
  }
  // Rows at or beyond hiIdx start at/after windowEnd: no overlap possible.
  const auto hiIt = std::lower_bound(start_.begin(), start_.end(), windowEnd);
  const auto hiIdx = static_cast<std::uint64_t>(hiIt - start_.begin());
  if (hiIdx == 0) {
    return rows;
  }
  // runningMaxEnd_ is non-decreasing, so the first row whose prefix max end
  // exceeds windowStart marks the earliest possible overlap.
  const auto loIt = std::upper_bound(runningMaxEnd_.begin(),
                                     runningMaxEnd_.begin() + hiIdx, windowStart);
  for (auto i = static_cast<std::uint64_t>(loIt - runningMaxEnd_.begin());
       i < hiIdx; ++i) {
    if (end_[i] > windowStart) {
      rows.push_back(i);
    }
  }
  return rows;
}

EventTable EventTable::filter(
    const std::function<bool(const Event&)>& predicate) const {
  EventTable result;
  for (std::uint64_t i = 0; i < size(); ++i) {
    const Event event = row(i);
    if (predicate(event)) {
      result.append(event);
    }
  }
  return result;
}

namespace {

/// The distinct values of a u32 column, ascending, in an exact-capacity
/// vector (the radix sort's copy and scratch are freed on return).
std::vector<std::uint32_t> sortedUnique(std::span<const std::uint32_t> column) {
  std::vector<std::uint32_t> values(column.begin(), column.end());
  util::radixSort(values, [](std::uint32_t value) { return value; });
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return {values.begin(), values.end()};
}

}  // namespace

std::vector<PlaceId> EventTable::uniquePlaces() const {
  return sortedUnique(place_);
}

PlaceIndex EventTable::buildPlaceIndex() const {
  PlaceIndex index;
  index.placeIds = uniquePlaces();
  index.offsets.assign(index.placeIds.size() + 1, 0);
  const util::LabelIndex groupOf(index.placeIds);

  // Stable counting sort of row indices into place groups: rows stay
  // ascending within a group.
  for (PlaceId place : place_) {
    ++index.offsets[groupOf.positionOf(place) + 1];
  }
  for (std::size_t g = 1; g <= index.placeIds.size(); ++g) {
    index.offsets[g] += index.offsets[g - 1];
  }
  index.rows.resize(size());
  std::vector<std::uint64_t> cursor(index.offsets.begin(),
                                    index.offsets.end() - 1);
  for (std::uint64_t i = 0; i < size(); ++i) {
    index.rows[cursor[groupOf.positionOf(place_[i])]++] = i;
  }
  return index;
}

Hour EventTable::maxEnd() const noexcept {
  Hour result = 0;
  for (Hour value : end_) {
    result = std::max(result, value);
  }
  return result;
}

}  // namespace chisimnet::table
