#include "chisimnet/sparse/collocation.hpp"

#include <algorithm>

#include "chisimnet/util/error.hpp"

namespace chisimnet::sparse {

namespace {

struct Presence {
  table::PersonId person;
  std::uint32_t hour;

  friend auto operator<=>(const Presence&, const Presence&) = default;
};

/// Expands events at one place into deduplicated (person, relative hour)
/// presences clipped to the window.
std::vector<Presence> expandPresences(std::span<const table::Event> events,
                                      table::Hour windowStart,
                                      table::Hour windowEnd) {
  std::vector<Presence> presences;
  for (const table::Event& event : events) {
    const table::Hour from = std::max(event.start, windowStart);
    const table::Hour to = std::min(event.end, windowEnd);
    for (table::Hour hour = from; hour < to; ++hour) {
      presences.push_back(Presence{event.person, hour - windowStart});
    }
  }
  std::sort(presences.begin(), presences.end());
  presences.erase(std::unique(presences.begin(), presences.end()),
                  presences.end());
  return presences;
}

}  // namespace

CollocationMatrix::CollocationMatrix(table::PlaceId place,
                                     std::span<const table::Event> events,
                                     table::Hour windowStart,
                                     table::Hour windowEnd)
    : place_(place) {
  CHISIM_REQUIRE(windowStart <= windowEnd, "window must be non-empty or empty");
  sliceHours_ = windowEnd - windowStart;

  const std::vector<Presence> presences =
      expandPresences(events, windowStart, windowEnd);

  offsets_.push_back(0);
  hours_.reserve(presences.size());
  for (const Presence& presence : presences) {
    if (persons_.empty() || persons_.back() != presence.person) {
      persons_.push_back(presence.person);
      offsets_.push_back(hours_.size());
    }
    hours_.push_back(presence.hour);
    offsets_.back() = hours_.size();
  }
  if (persons_.empty()) {
    offsets_.assign(1, 0);
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
