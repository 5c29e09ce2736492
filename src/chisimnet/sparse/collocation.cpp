#include "chisimnet/sparse/collocation.hpp"

#include <algorithm>

#include "chisimnet/util/error.hpp"

namespace chisimnet::sparse {

namespace {

/// One event's window-clipped span at the place, keyed person << 32 | from
/// so that sorting the keys orders the stays by (person, start).
struct Stay {
  std::uint64_t key;
  table::Hour to;
};

}  // namespace

CollocationMatrix::CollocationMatrix(table::PlaceId place,
                                     std::span<const table::Event> events,
                                     table::Hour windowStart,
                                     table::Hour windowEnd)
    : place_(place) {
  CHISIM_REQUIRE(windowStart <= windowEnd, "window must be non-empty or empty");
  sliceHours_ = windowEnd - windowStart;

  // Sort the events, not their presence-hours: there are about ten times
  // fewer of them.
  std::vector<Stay> stays;
  stays.reserve(events.size());
  std::uint64_t spanHours = 0;
  for (const table::Event& event : events) {
    const table::Hour from = std::max(event.start, windowStart);
    const table::Hour to = std::min(event.end, windowEnd);
    if (from < to) {
      stays.push_back(Stay{(std::uint64_t{event.person} << 32) | from, to});
      spanHours += to - from;
    }
  }
  std::sort(stays.begin(), stays.end(),
            [](const Stay& a, const Stay& b) { return a.key < b.key; });

  // A person's stays arrive by ascending start, so every hour below
  // `covered` (the furthest end so far) is already listed: expanding each
  // stay from max(from, covered) yields ascending, distinct hours.
  offsets_.push_back(0);
  hours_.reserve(spanHours);
  table::Hour covered = 0;
  for (const Stay& stay : stays) {
    const auto person = static_cast<table::PersonId>(stay.key >> 32);
    if (persons_.empty() || persons_.back() != person) {
      persons_.push_back(person);
      offsets_.push_back(hours_.size());
      covered = 0;
    }
    const auto from = static_cast<table::Hour>(stay.key);
    for (table::Hour hour = std::max(from, covered); hour < stay.to; ++hour) {
      hours_.push_back(hour - windowStart);
    }
    covered = std::max(covered, stay.to);
    offsets_.back() = hours_.size();
  }
}

bool CollocationMatrix::present(std::size_t row, std::uint32_t hour) const noexcept {
  const auto span = hoursAt(row);
  return std::binary_search(span.begin(), span.end(), hour);
}

std::size_t CollocationMatrix::memoryBytes() const noexcept {
  return persons_.size() * sizeof(table::PersonId) +
         offsets_.size() * sizeof(std::uint64_t) +
         hours_.size() * sizeof(std::uint32_t);
}

std::vector<CollocationMatrix> buildCollocationMatrices(
    const table::EventTable& table, table::Hour windowStart,
    table::Hour windowEnd) {
  const table::PlaceIndex index = table.buildPlaceIndex();
  std::vector<CollocationMatrix> matrices;
  matrices.reserve(index.placeIds.size());
  for (std::size_t group = 0; group < index.placeIds.size(); ++group) {
    CollocationMatrix matrix =
        buildCollocationMatrix(table, index, group, windowStart, windowEnd);
    if (matrix.nnz() > 0) {
      matrices.push_back(std::move(matrix));
    }
  }
  return matrices;
}

CollocationMatrix buildCollocationMatrix(const table::EventTable& table,
                                         const table::PlaceIndex& index,
                                         std::size_t group,
                                         table::Hour windowStart,
                                         table::Hour windowEnd) {
  CHISIM_REQUIRE(group < index.placeIds.size(), "group out of range");
  std::vector<table::Event> events;
  const auto rows = index.groupRows(group);
  events.reserve(rows.size());
  for (table::RowIndex rowIndex : rows) {
    events.push_back(table.row(rowIndex));
  }
  return CollocationMatrix(index.placeIds[group], events, windowStart, windowEnd);
}

}  // namespace chisimnet::sparse
