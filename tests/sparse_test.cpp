#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <unordered_map>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/pair_count_map.hpp"
#include "chisimnet/util/rng.hpp"

namespace chisimnet::sparse {
namespace {

using table::Event;

TEST(PackPair, CanonicalOrdering) {
  EXPECT_EQ(packPair(3, 7), packPair(7, 3));
  EXPECT_EQ(pairLow(packPair(3, 7)), 3u);
  EXPECT_EQ(pairHigh(packPair(3, 7)), 7u);
}

TEST(PairCountMap, AddAndGet) {
  PairCountMap map;
  EXPECT_EQ(map.get(42), 0u);
  map.add(42, 3);
  map.add(42, 2);
  EXPECT_EQ(map.get(42), 5u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(PairCountMap, GrowsPastInitialCapacity) {
  PairCountMap map(4);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    map.add(key, key + 1);
  }
  EXPECT_EQ(map.size(), 10000u);
  for (std::uint64_t key = 0; key < 10000; key += 997) {
    EXPECT_EQ(map.get(key), key + 1);
  }
}

TEST(PairCountMap, MergeSumsCounts) {
  PairCountMap a;
  PairCountMap b;
  a.add(1, 10);
  a.add(2, 20);
  b.add(2, 5);
  b.add(3, 7);
  a.merge(b);
  EXPECT_EQ(a.get(1), 10u);
  EXPECT_EQ(a.get(2), 25u);
  EXPECT_EQ(a.get(3), 7u);
  EXPECT_EQ(a.size(), 3u);
}

TEST(PairCountMap, ForEachVisitsEverything) {
  PairCountMap map;
  map.add(5, 1);
  map.add(9, 2);
  map.add(5, 4);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  map.forEach([&entries](std::uint64_t key, std::uint64_t count) {
    entries.emplace_back(key, count);
  });
  std::sort(entries.begin(), entries.end());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (std::pair<std::uint64_t, std::uint64_t>{5, 5}));
  EXPECT_EQ(entries[1], (std::pair<std::uint64_t, std::uint64_t>{9, 2}));
}

TEST(PairCountMap, ReservedKeyRejected) {
  PairCountMap map;
  EXPECT_THROW(map.add(~std::uint64_t{0}, 1), std::invalid_argument);
}

TEST(PairCountMap, ReservePreventsRehash) {
  PairCountMap map;
  map.reserve(5000);
  const std::size_t bytesAfterReserve = map.memoryBytes();
  for (std::uint64_t key = 0; key < 5000; ++key) {
    map.add(key, key + 1);
  }
  // Reserve sized the table for 5000 entries under the load-factor-0.7
  // trigger, so none of the adds grew it.
  EXPECT_EQ(map.memoryBytes(), bytesAfterReserve);
  EXPECT_EQ(map.size(), 5000u);
  EXPECT_EQ(map.get(4999), 5000u);
}

TEST(PairCountMap, MergePreReservesForTheUnion) {
  PairCountMap a;
  PairCountMap b;
  for (std::uint64_t key = 0; key < 3000; ++key) {
    a.add(key, 1);
    b.add(key + 1500, 2);  // half overlapping
  }
  a.merge(b);
  EXPECT_EQ(a.size(), 4500u);
  EXPECT_EQ(a.get(0), 1u);
  EXPECT_EQ(a.get(2000), 3u);
  EXPECT_EQ(a.get(4000), 2u);
  // The merge reserved for the worst-case union (6000 entries) up front,
  // which needs a bigger table than the actual 4500-entry union would —
  // evidence the pre-reserve ran instead of incremental growth.
  PairCountMap sizedForUnion;
  sizedForUnion.reserve(6000);
  EXPECT_GE(a.memoryBytes(), sizedForUnion.memoryBytes());
}

/// (key, count) entries of `map`, sorted: the map's value whatever its
/// slot layout.
std::vector<std::pair<std::uint64_t, std::uint64_t>> sortedEntries(
    const PairCountMap& map) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  map.forEach([&entries](std::uint64_t key, std::uint64_t count) {
    entries.emplace_back(key, count);
  });
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// Seeded parts whose keys overlap across parts: keys are drawn from a
/// range only a few times wider than a part, and part 2 is empty.
std::vector<PairCountMap> overlappingParts(std::uint64_t seed,
                                           std::uint64_t keyRange) {
  util::Rng rng(seed);
  std::vector<PairCountMap> parts(4);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (p == 2) {
      continue;
    }
    for (std::uint64_t n = 0; n < keyRange / 2; ++n) {
      parts[p].add(rng.uniformBelow(keyRange), 1 + rng.uniformBelow(1000));
    }
  }
  return parts;
}

// The fold a shared-memory root runs: each part merged into one result on
// `threads` threads. Small key ranges keep the tables small and loaded to
// 0.7, so probe chains often run past the last slot and wrap to slot 0.
TEST(PairCountMap, ParallelFoldEqualsSequentialMerge) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const std::uint64_t keyRange : {40u, 700u, 20000u}) {
      const std::vector<PairCountMap> parts = overlappingParts(seed, keyRange);
      PairCountMap sequential(16);
      for (const PairCountMap& part : parts) {
        sequential.merge(part);
      }
      for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
        PairCountMap folded(16);
        for (const PairCountMap& part : parts) {
          folded.merge(part, threads);
        }
        EXPECT_EQ(folded.size(), sequential.size());
        EXPECT_EQ(sortedEntries(folded), sortedEntries(sequential))
            << "seed " << seed << " range " << keyRange << " threads "
            << threads;
        // Lookups still find every key after the concurrent inserts.
        for (const auto& [key, count] : sortedEntries(sequential)) {
          ASSERT_EQ(folded.get(key), count) << key;
        }
      }
    }
  }
}

// Concurrent inserts into one table: eight threads fold a large map into
// a target that already holds half its keys, whose table must grow first
// (a concurrent rehash) and whose probe chains the threads race to claim.
// Run under ThreadSanitizer by the CI's sanitizer job.
TEST(PairCountMap, ConcurrentInsertStress) {
  for (std::uint64_t round = 0; round < 6; ++round) {
    PairCountMap target(16);
    PairCountMap source(16);
    for (std::uint64_t key = 0; key < 30000; ++key) {
      if (key % 2 == 0) {
        target.add(key * 7919 + round, 3);
      }
      source.add(key * 7919 + round, key + 1);
    }
    target.merge(source, 8);
    ASSERT_EQ(target.size(), 30000u);
    for (std::uint64_t key = 0; key < 30000; ++key) {
      ASSERT_EQ(target.get(key * 7919 + round),
                key + 1 + (key % 2 == 0 ? 3 : 0));
    }
  }
}

TEST(CollocationMatrix, BuildsFromEventsWithClipping) {
  // Person 1 at place during [0, 5); window is [2, 4) -> hours {0,1} rel.
  const std::vector<Event> events{{0, 5, 1, 0, 9}};
  const CollocationMatrix matrix(9, events, 2, 4);
  EXPECT_EQ(matrix.place(), 9u);
  EXPECT_EQ(matrix.personCount(), 1u);
  EXPECT_EQ(matrix.nnz(), 2u);
  EXPECT_EQ(matrix.sliceHours(), 2u);
  EXPECT_TRUE(matrix.present(0, 0));
  EXPECT_TRUE(matrix.present(0, 1));
  EXPECT_FALSE(matrix.present(0, 2));
}

TEST(CollocationMatrix, DeduplicatesPresence) {
  // Two overlapping events for the same person collapse per hour.
  const std::vector<Event> events{{0, 3, 1, 0, 9}, {2, 5, 1, 1, 9}};
  const CollocationMatrix matrix(9, events, 0, 5);
  EXPECT_EQ(matrix.personCount(), 1u);
  EXPECT_EQ(matrix.nnz(), 5u);
}

TEST(CollocationMatrix, MultiplePersonsSortedRows) {
  const std::vector<Event> events{{0, 2, 7, 0, 1}, {1, 3, 3, 0, 1}};
  const CollocationMatrix matrix(1, events, 0, 4);
  ASSERT_EQ(matrix.personCount(), 2u);
  EXPECT_EQ(matrix.personAt(0), 3u);
  EXPECT_EQ(matrix.personAt(1), 7u);
  EXPECT_EQ(matrix.hoursAt(0).size(), 2u);
  EXPECT_EQ(matrix.hoursAt(1).size(), 2u);
}

TEST(CollocationMatrix, EmptyWindowYieldsEmptyMatrix) {
  const std::vector<Event> events{{0, 2, 1, 0, 1}};
  const CollocationMatrix matrix(1, events, 5, 5);
  EXPECT_EQ(matrix.nnz(), 0u);
  EXPECT_EQ(matrix.personCount(), 0u);
}

/// The matrix as (person, relative hour) pairs, checked row by row: rows in
/// ascending person order, hours strictly ascending within a row.
std::set<std::pair<table::PersonId, std::uint32_t>> presencesOf(
    const CollocationMatrix& matrix) {
  std::set<std::pair<table::PersonId, std::uint32_t>> presences;
  for (std::size_t row = 0; row < matrix.personCount(); ++row) {
    if (row > 0) {
      EXPECT_LT(matrix.personAt(row - 1), matrix.personAt(row));
    }
    const std::span<const std::uint32_t> hours = matrix.hoursAt(row);
    EXPECT_FALSE(hours.empty());
    EXPECT_TRUE(std::adjacent_find(hours.begin(), hours.end(),
                                   std::greater_equal<>()) == hours.end())
        << "row " << row << " hours not strictly ascending";
    for (const std::uint32_t hour : hours) {
      EXPECT_LT(hour, matrix.sliceHours());
      presences.emplace(matrix.personAt(row), hour);
    }
  }
  return presences;
}

TEST(CollocationMatrix, MatchesPresenceSetOracleInAnyEventOrder) {
  constexpr table::Hour kWindowStart = 10;
  constexpr table::Hour kWindowEnd = 40;
  // Person 5's events: nested, overlapping, duplicated, zero-length,
  // touching, and wholly or partly outside the window. Person 2 and 9
  // interleave with a few of their own.
  std::vector<Event> events{
      {12, 30, 5, 0, 4}, {14, 18, 5, 1, 4},  // nested
      {16, 24, 5, 2, 4}, {28, 35, 5, 3, 4},  // overlapping, then past 30
      {28, 35, 5, 4, 4},                     // duplicate
      {20, 20, 5, 0, 4}, {33, 33, 5, 0, 4},  // zero-length
      {35, 37, 5, 0, 4},                     // touching the previous end
      {0, 8, 5, 0, 4},   {41, 50, 5, 0, 4},  // outside the window
      {5, 11, 5, 0, 4},  {38, 60, 5, 0, 4},  // straddling each edge
      {0, 100, 2, 0, 4}, {10, 11, 9, 0, 4},  {39, 40, 9, 0, 4},
      {25, 27, 2, 0, 4}};
  std::set<std::pair<table::PersonId, std::uint32_t>> oracle;
  for (const Event& event : events) {
    for (table::Hour hour = event.start; hour < event.end; ++hour) {
      if (hour >= kWindowStart && hour < kWindowEnd) {
        oracle.emplace(event.person, hour - kWindowStart);
      }
    }
  }
  util::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    rng.shuffle(events);
    const CollocationMatrix matrix(4, events, kWindowStart, kWindowEnd);
    EXPECT_EQ(presencesOf(matrix), oracle) << "trial " << trial;
    EXPECT_EQ(matrix.nnz(), oracle.size()) << "trial " << trial;
    EXPECT_EQ(matrix.personCount(), 3u);
  }
}

TEST(SymmetricAdjacency, AddAndWeightSymmetric) {
  SymmetricAdjacency adjacency;
  adjacency.add(3, 8, 4);
  adjacency.add(8, 3, 1);
  EXPECT_EQ(adjacency.weight(3, 8), 5u);
  EXPECT_EQ(adjacency.weight(8, 3), 5u);
  EXPECT_EQ(adjacency.edgeCount(), 1u);
}

TEST(SymmetricAdjacency, SelfEdgeRejected) {
  SymmetricAdjacency adjacency;
  EXPECT_THROW(adjacency.add(2, 2, 1), std::invalid_argument);
  EXPECT_EQ(adjacency.weight(2, 2), 0u);
}

TEST(SymmetricAdjacency, ZeroWeightIgnored) {
  SymmetricAdjacency adjacency;
  adjacency.add(1, 2, 0);
  EXPECT_EQ(adjacency.edgeCount(), 0u);
}

TEST(SymmetricAdjacency, TripletsSortedUpperTriangular) {
  SymmetricAdjacency adjacency;
  adjacency.add(9, 2, 1);
  adjacency.add(1, 5, 2);
  adjacency.add(1, 3, 3);
  const auto triplets = adjacency.toTriplets();
  ASSERT_EQ(triplets.size(), 3u);
  EXPECT_TRUE(std::is_sorted(triplets.begin(), triplets.end()));
  for (const AdjacencyTriplet& triplet : triplets) {
    EXPECT_LT(triplet.i, triplet.j);
  }
}

// toTriplets radix-sorts packed keys and skips byte positions that are
// constant across all keys; std::sort over the same entries is the
// reference. The id shapes cover keys whose high bytes are constant
// (skipped passes), keys that share all but the low byte, ids straddling a
// byte boundary, and ids spread over all 32 bits.
TEST(SymmetricAdjacency, TripletsMatchComparisonSort) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> idShapes{
      {0, 200}, {0, 70000}, {0x12345600u, 0x100}, {0, 0xFFFFFFFFu}};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const auto& [base, width] : idShapes) {
      util::Rng rng(seed);
      SymmetricAdjacency adjacency;
      std::unordered_map<std::uint64_t, std::uint64_t> sums;
      for (int n = 0; n < 3000; ++n) {
        const auto i = static_cast<std::uint32_t>(base + rng.uniformBelow(width));
        const auto j = static_cast<std::uint32_t>(base + rng.uniformBelow(width));
        if (i != j) {
          const std::uint64_t weight = 1 + rng.uniformBelow(1u << 20);
          adjacency.add(i, j, weight);
          sums[packPair(i, j)] += weight;
        }
      }
      std::vector<AdjacencyTriplet> reference;
      for (const auto& [key, weight] : sums) {
        reference.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
      }
      std::sort(reference.begin(), reference.end());
      EXPECT_EQ(adjacency.toTriplets(), reference)
          << "seed " << seed << " base " << base << " width " << width;
    }
  }
}

// The bucketed extraction against the one-thread pass and sort. Shapes: an
// empty map; one entry; every key in one row (all in one bucket); ids
// near UINT32_MAX (the bucket shift at its widest); a random map.
TEST(SymmetricAdjacency, ThreadedTripletsEqualSerial) {
  std::vector<SymmetricAdjacency> shapes(5);
  shapes[1].add(3, 9, 4);
  for (std::uint32_t j = 6; j < 5000; ++j) {
    shapes[2].add(5, j, j);
  }
  util::Rng rng(7);
  for (int n = 0; n < 4000; ++n) {
    const auto i = static_cast<std::uint32_t>(0xFFFFFFFFu - rng.uniformBelow(300));
    const auto j = static_cast<std::uint32_t>(0xFFFFFFFFu - rng.uniformBelow(300));
    if (i != j) {
      shapes[3].add(i, j, 1 + rng.uniformBelow(50));
    }
  }
  for (int n = 0; n < 40000; ++n) {
    const auto i = static_cast<std::uint32_t>(rng.uniformBelow(70000));
    const auto j = static_cast<std::uint32_t>(rng.uniformBelow(70000));
    if (i != j) {
      shapes[4].add(i, j, 1 + rng.uniformBelow(1u << 20));
    }
  }
  for (std::size_t shape = 0; shape < shapes.size(); ++shape) {
    const std::vector<AdjacencyTriplet> serial = shapes[shape].toTriplets(1);
    EXPECT_EQ(serial.size(), shapes[shape].edgeCount());
    for (const unsigned threads : {2u, 3u, 4u, 7u}) {
      EXPECT_EQ(shapes[shape].toTriplets(threads), serial)
          << "shape " << shape << " threads " << threads;
    }
  }
}

TEST(SymmetricAdjacency, MergeIsMatrixSum) {
  SymmetricAdjacency a;
  SymmetricAdjacency b;
  a.add(1, 2, 3);
  b.add(1, 2, 4);
  b.add(2, 5, 1);
  a.merge(b);
  EXPECT_EQ(a.weight(1, 2), 7u);
  EXPECT_EQ(a.weight(2, 5), 1u);
}

/// Brute-force x·xᵀ over the dense per-hour presence of one place.
std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
bruteForcePairs(const CollocationMatrix& matrix) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> pairs;
  for (std::uint32_t hour = 0; hour < matrix.sliceHours(); ++hour) {
    std::vector<std::uint32_t> present;
    for (std::size_t row = 0; row < matrix.personCount(); ++row) {
      if (matrix.present(row, hour)) {
        present.push_back(matrix.personAt(row));
      }
    }
    for (std::size_t a = 0; a < present.size(); ++a) {
      for (std::size_t b = a + 1; b < present.size(); ++b) {
        const auto lo = std::min(present[a], present[b]);
        const auto hi = std::max(present[a], present[b]);
        ++pairs[{lo, hi}];
      }
    }
  }
  return pairs;
}

CollocationMatrix randomMatrix(std::uint64_t seed, std::size_t persons,
                               table::Hour hours, std::size_t eventCount) {
  util::Rng rng(seed);
  std::vector<Event> events;
  for (std::size_t i = 0; i < eventCount; ++i) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(hours));
    const auto end = start + 1 + static_cast<table::Hour>(rng.uniformBelow(6));
    events.push_back(Event{start, end,
                           static_cast<table::PersonId>(rng.uniformBelow(persons)),
                           0, 77});
  }
  return CollocationMatrix(77, events, 0, hours);
}

class AdjacencyMethodProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AdjacencyMethodProperty, AllMethodsMatchBruteForce) {
  // The production local-accumulate kernel against the paper's SpGEMM
  // reference, and both against brute force: a crowded place (dense path)
  // and a sparse-overlap one over a long slice (local-hash path).
  for (const CollocationMatrix& matrix :
       {randomMatrix(GetParam(), 12, 24, 40),
        randomMatrix(GetParam(), 200, 160, 60)}) {
    const auto expected = bruteForcePairs(matrix);
    const SymmetricAdjacency reference = spGemmAdjacency(matrix);
    SymmetricAdjacency local;
    local.addCollocation(matrix);
    EXPECT_EQ(local.toTriplets(), reference.toTriplets());
    EXPECT_EQ(reference.edgeCount(), expected.size());
    for (const auto& [pair, weight] : expected) {
      EXPECT_EQ(reference.weight(pair.first, pair.second), weight)
          << "pair (" << pair.first << "," << pair.second << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjacencyMethodProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

void expectMatchesBruteForce(const SymmetricAdjacency& adjacency,
                             const CollocationMatrix& matrix) {
  const auto expected = bruteForcePairs(matrix);
  ASSERT_EQ(adjacency.edgeCount(), expected.size());
  for (const auto& [pair, weight] : expected) {
    EXPECT_EQ(adjacency.weight(pair.first, pair.second), weight)
        << "pair (" << pair.first << "," << pair.second << ")";
  }
}

TEST(LocalAccumulateCrossover, SmallPlaceTakesDensePath) {
  // 12 persons over 24 hours: 66 pair slots, plenty of pair-hours — well
  // inside the dense triangular-array regime.
  const CollocationMatrix matrix = randomMatrix(3, 12, 24, 40);
  SymmetricAdjacency adjacency;
  adjacency.addCollocation(matrix);
  EXPECT_EQ(adjacency.kernelStats().densePlaces, 1u);
  EXPECT_EQ(adjacency.kernelStats().hashPlaces, 0u);
  EXPECT_GT(adjacency.kernelStats().globalEmits, 0u);
  expectMatchesBruteForce(adjacency, matrix);
}

TEST(LocalAccumulateCrossover, SparseOverlapTakesHashPath) {
  // 100 persons, each present exactly one hour, two per hour: 4950 pair
  // slots but only 50 pair-hours, so the emit scan over the dense array
  // would dominate — the kernel must pick the local hash.
  std::vector<Event> events;
  for (std::uint32_t person = 0; person < 100; ++person) {
    const table::Hour hour = person % 50;
    events.push_back(
        Event{hour, static_cast<table::Hour>(hour + 1), person, 0, 77});
  }
  const CollocationMatrix matrix(77, events, 0, 50);
  SymmetricAdjacency adjacency;
  adjacency.addCollocation(matrix);
  EXPECT_EQ(adjacency.kernelStats().densePlaces, 0u);
  EXPECT_EQ(adjacency.kernelStats().hashPlaces, 1u);
  EXPECT_EQ(adjacency.kernelStats().pairHourUpdates, 50u);
  EXPECT_EQ(adjacency.kernelStats().globalEmits, 50u);
  expectMatchesBruteForce(adjacency, matrix);
}

TEST(LocalAccumulateCrossover, StatsSurviveMerge) {
  SymmetricAdjacency a;
  SymmetricAdjacency b;
  a.addCollocation(randomMatrix(4, 12, 24, 40));
  b.addCollocation(randomMatrix(5, 12, 24, 40));
  const std::uint64_t updates =
      a.kernelStats().pairHourUpdates + b.kernelStats().pairHourUpdates;
  a.merge(b);
  EXPECT_EQ(a.kernelStats().densePlaces, 2u);
  EXPECT_EQ(a.kernelStats().pairHourUpdates, updates);
}

TEST(AdjacencyFromCollocations, SumsAcrossPlaces) {
  // Two places where persons 1 and 2 are collocated for 2 and 3 hours.
  const std::vector<Event> placeA{{0, 2, 1, 0, 10}, {0, 2, 2, 0, 10}};
  const std::vector<Event> placeB{{5, 8, 1, 0, 11}, {5, 8, 2, 0, 11}};
  std::vector<CollocationMatrix> matrices;
  matrices.emplace_back(10, placeA, 0, 10);
  matrices.emplace_back(11, placeB, 0, 10);
  const SymmetricAdjacency adjacency = adjacencyFromCollocations(matrices);
  EXPECT_EQ(adjacency.weight(1, 2), 5u);
}

TEST(BuildCollocationMatrices, OnePerNonEmptyPlace) {
  table::EventTable events;
  events.append(Event{0, 2, 1, 0, 5});
  events.append(Event{0, 2, 2, 0, 5});
  events.append(Event{3, 4, 3, 0, 8});
  events.append(Event{50, 60, 4, 0, 9});  // outside window
  const auto matrices = buildCollocationMatrices(events, 0, 10);
  ASSERT_EQ(matrices.size(), 2u);
  EXPECT_EQ(matrices[0].place(), 5u);
  EXPECT_EQ(matrices[0].personCount(), 2u);
  EXPECT_EQ(matrices[1].place(), 8u);
}

TEST(CollocationMatrix, MemoryBytesPositive) {
  const CollocationMatrix matrix = randomMatrix(3, 5, 10, 10);
  EXPECT_GT(matrix.memoryBytes(), 0u);
}

}  // namespace
}  // namespace chisimnet::sparse
