#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "chisimnet/table/event_table.hpp"
#include "chisimnet/util/rng.hpp"

namespace chisimnet::table {
namespace {

Event makeEvent(Hour start, Hour end, PersonId person, PlaceId place,
                ActivityId activity = 0) {
  return Event{start, end, person, activity, place};
}

/// Random table for property sweeps.
EventTable randomTable(std::uint64_t seed, std::size_t rows, Hour horizon,
                       PersonId persons, PlaceId places) {
  util::Rng rng(seed);
  EventTable table;
  for (std::size_t i = 0; i < rows; ++i) {
    const Hour start = static_cast<Hour>(rng.uniformBelow(horizon));
    const Hour end =
        start + 1 + static_cast<Hour>(rng.uniformBelow(12));
    table.append(makeEvent(start, end,
                           static_cast<PersonId>(rng.uniformBelow(persons)),
                           static_cast<PlaceId>(rng.uniformBelow(places)),
                           static_cast<ActivityId>(rng.uniformBelow(5))));
  }
  return table;
}

TEST(Event, SchemaIs20Bytes) { EXPECT_EQ(sizeof(Event), 20u); }

TEST(Event, OverlapsWindowSemantics) {
  const Event event = makeEvent(10, 14, 0, 0);
  EXPECT_TRUE(overlapsWindow(event, 10, 14));
  EXPECT_TRUE(overlapsWindow(event, 13, 20));
  EXPECT_TRUE(overlapsWindow(event, 0, 11));
  EXPECT_FALSE(overlapsWindow(event, 14, 20));  // half-open: end excluded
  EXPECT_FALSE(overlapsWindow(event, 0, 10));   // half-open: start excluded
  EXPECT_TRUE(overlapsWindow(event, 0, 100));
}

TEST(EventTable, AppendAndRowRoundTrip) {
  EventTable table;
  const Event event = makeEvent(1, 5, 42, 7, 3);
  table.append(event);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.row(0), event);
}

TEST(EventTable, RowOutOfRangeThrows) {
  EventTable table;
  EXPECT_THROW(table.row(0), std::invalid_argument);
}

TEST(EventTable, BulkConstructionMatchesAppend) {
  const std::vector<Event> events{makeEvent(0, 2, 1, 1), makeEvent(3, 4, 2, 2)};
  const EventTable table{std::span<const Event>(events)};
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.row(0), events[0]);
  EXPECT_EQ(table.row(1), events[1]);
}

TEST(EventTable, SortByStartOrdersRows) {
  EventTable table = randomTable(1, 500, 100, 50, 20);
  table.sortByStart();
  ASSERT_TRUE(table.isSortedByStart());
  const auto starts = table.startColumn();
  EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
}

TEST(EventTable, SortKeepsRowIntegrity) {
  EventTable table;
  table.append(makeEvent(5, 6, 100, 200, 1));
  table.append(makeEvent(1, 9, 101, 201, 2));
  table.sortByStart();
  EXPECT_EQ(table.row(0), makeEvent(1, 9, 101, 201, 2));
  EXPECT_EQ(table.row(1), makeEvent(5, 6, 100, 200, 1));
}

TEST(EventTable, SortIsIdempotent) {
  EventTable table = randomTable(2, 100, 50, 10, 5);
  table.sortByStart();
  const Event first = table.row(0);
  table.sortByStart();
  EXPECT_EQ(table.row(0), first);
}

TEST(EventTable, SubsetQueriesRequireSort) {
  EventTable table = randomTable(3, 10, 50, 5, 5);
  EXPECT_THROW(table.rowsStartingIn(0, 10), std::invalid_argument);
  EXPECT_THROW(table.rowsOverlapping(0, 10), std::invalid_argument);
}

TEST(EventTable, RowsStartingInMatchesLinearScan) {
  EventTable table = randomTable(4, 2000, 200, 100, 40);
  table.sortByStart();
  for (Hour lo : {0u, 10u, 77u, 150u}) {
    const Hour hi = lo + 25;
    const auto rows = table.rowsStartingIn(lo, hi);
    std::uint64_t expected = 0;
    for (std::uint64_t i = 0; i < table.size(); ++i) {
      const Event event = table.row(i);
      if (event.start >= lo && event.start < hi) {
        ++expected;
      }
    }
    EXPECT_EQ(rows.size(), expected) << "window [" << lo << "," << hi << ")";
    for (RowIndex row : rows) {
      const Event event = table.row(row);
      EXPECT_GE(event.start, lo);
      EXPECT_LT(event.start, hi);
    }
  }
}

class OverlapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapProperty, RowsOverlappingMatchesLinearScan) {
  const std::uint64_t seed = GetParam();
  EventTable table = randomTable(seed, 1500, 300, 80, 30);
  table.sortByStart();
  util::Rng rng(seed + 1000);
  for (int trial = 0; trial < 10; ++trial) {
    const Hour lo = static_cast<Hour>(rng.uniformBelow(300));
    const Hour hi = lo + 1 + static_cast<Hour>(rng.uniformBelow(60));
    auto rows = table.rowsOverlapping(lo, hi);
    std::vector<RowIndex> expected;
    for (std::uint64_t i = 0; i < table.size(); ++i) {
      if (overlapsWindow(table.row(i), lo, hi)) {
        expected.push_back(i);
      }
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, expected) << "seed=" << seed << " window=[" << lo << ","
                              << hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(EventTable, RowsOverlappingEmptyWindow) {
  EventTable table = randomTable(6, 100, 50, 10, 5);
  table.sortByStart();
  EXPECT_TRUE(table.rowsOverlapping(10, 10).empty());
  EXPECT_TRUE(table.rowsOverlapping(20, 10).empty());
}

TEST(EventTable, RowsOverlappingCatchesLongStraddlers) {
  EventTable table;
  table.append(makeEvent(0, 100, 1, 1));   // long event straddling everything
  for (Hour h = 1; h < 50; ++h) {
    table.append(makeEvent(h, h + 1, 2, 2));
  }
  table.sortByStart();
  const auto rows = table.rowsOverlapping(80, 90);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(table.row(rows[0]).person, 1u);
}

TEST(EventTable, FilterKeepsMatching) {
  EventTable table = randomTable(8, 400, 100, 20, 10);
  const EventTable filtered =
      table.filter([](const Event& event) { return event.person < 5; });
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < table.size(); ++i) {
    expected += table.row(i).person < 5 ? 1 : 0;
  }
  EXPECT_EQ(filtered.size(), expected);
  for (std::uint64_t i = 0; i < filtered.size(); ++i) {
    EXPECT_LT(filtered.row(i).person, 5u);
  }
}

TEST(EventTable, UniquePlacesAndPersonsSortedDistinct) {
  EventTable table;
  table.append(makeEvent(0, 1, 5, 9));
  table.append(makeEvent(1, 2, 5, 3));
  table.append(makeEvent(2, 3, 2, 9));
  const auto places = table.uniquePlaces();
  EXPECT_EQ(places, (std::vector<PlaceId>{3, 9}));
}

TEST(EventTable, PlaceIndexGroupsAllRows) {
  EventTable table = randomTable(9, 800, 100, 40, 15);
  const PlaceIndex index = table.buildPlaceIndex();
  EXPECT_EQ(index.placeIds.size() + 1, index.offsets.size());
  EXPECT_EQ(index.rows.size(), table.size());

  std::uint64_t total = 0;
  for (std::size_t group = 0; group < index.placeIds.size(); ++group) {
    const PlaceId place = index.placeIds[group];
    for (RowIndex row : index.groupRows(group)) {
      EXPECT_EQ(table.row(row).place, place);
      ++total;
    }
  }
  EXPECT_EQ(total, table.size());
}

TEST(EventTable, PlaceIndexGroupPositions) {
  EventTable table;
  table.append(makeEvent(0, 1, 0, 30));
  table.append(makeEvent(0, 1, 0, 10));
  table.append(makeEvent(0, 1, 1, 30));
  const PlaceIndex index = table.buildPlaceIndex();
  EXPECT_EQ(index.placeIds, (std::vector<PlaceId>{10, 30}));
  EXPECT_EQ(std::vector<RowIndex>(index.groupRows(0).begin(),
                                  index.groupRows(0).end()),
            (std::vector<RowIndex>{1}));
  EXPECT_EQ(std::vector<RowIndex>(index.groupRows(1).begin(),
                                  index.groupRows(1).end()),
            (std::vector<RowIndex>{0, 2}));
}

/// buildPlaceIndex against an ordered-map oracle: groups in ascending place
/// order, each holding its rows in ascending row order.
void expectPlaceIndexMatchesOracle(const EventTable& table) {
  std::map<PlaceId, std::vector<RowIndex>> oracle;
  for (RowIndex row = 0; row < table.size(); ++row) {
    oracle[table.placeColumn()[row]].push_back(row);
  }
  const PlaceIndex index = table.buildPlaceIndex();
  ASSERT_EQ(index.placeIds.size(), oracle.size());
  ASSERT_EQ(index.offsets.size(), oracle.size() + 1);
  EXPECT_EQ(index.rows.size(), table.size());
  EXPECT_EQ(index.placeIds.capacity(), index.placeIds.size());
  std::size_t group = 0;
  for (const auto& [place, rows] : oracle) {
    EXPECT_EQ(index.placeIds[group], place);
    const std::span<const RowIndex> got = index.groupRows(group);
    EXPECT_EQ(std::vector<RowIndex>(got.begin(), got.end()), rows)
        << "place " << place;
    ++group;
  }
}

TEST(EventTable, PlaceIndexMatchesMapOracle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    expectPlaceIndexMatchesOracle(
        randomTable(seed, 50 + 300 * seed, 100, 40,
                    static_cast<PlaceId>(1 + 7 * seed * seed)));
  }
  expectPlaceIndexMatchesOracle(EventTable{});

  // The extreme ids, alone and together.
  for (const std::vector<PlaceId>& ids :
       {std::vector<PlaceId>{0}, std::vector<PlaceId>{UINT32_MAX},
        std::vector<PlaceId>{UINT32_MAX, 0, UINT32_MAX, 1, 0}}) {
    EventTable table;
    for (const PlaceId id : ids) {
      table.append(makeEvent(0, 1, 0, id));
    }
    expectPlaceIndexMatchesOracle(table);
  }

  // Skewed id sets: a dense cluster of low ids plus a few ids spread up to
  // UINT32_MAX (many places share one bucket of the lookup), and ids that
  // are all multiples of a large stride.
  util::Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<PlaceId> pool;
    for (int k = 0; k < 200; ++k) {
      pool.push_back(static_cast<PlaceId>(
          trial % 2 == 0
              ? (k < 190 ? rng.uniformBelow(300)
                         : rng.uniformBelow(std::uint64_t{UINT32_MAX} + 1))
              : (rng.uniformBelow(200) * 21'474'836u)));
    }
    EventTable table;
    for (int row = 0; row < 3000; ++row) {
      table.append(makeEvent(0, 1, static_cast<PersonId>(row),
                             pool[rng.uniformBelow(pool.size())]));
    }
    expectPlaceIndexMatchesOracle(table);
  }
}

TEST(EventTable, MaxEnd) {
  EventTable table;
  EXPECT_EQ(table.maxEnd(), 0u);
  table.append(makeEvent(0, 7, 0, 0));
  table.append(makeEvent(2, 3, 0, 0));
  EXPECT_EQ(table.maxEnd(), 7u);
}

TEST(EventTable, ClearResets) {
  EventTable table = randomTable(10, 10, 10, 5, 5);
  table.sortByStart();
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.isSortedByStart());
}

}  // namespace
}  // namespace chisimnet::table
