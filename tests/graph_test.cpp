#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "chisimnet/graph/algorithms.hpp"
#include "chisimnet/graph/generators.hpp"
#include "chisimnet/graph/graph.hpp"
#include "chisimnet/graph/io.hpp"
#include "chisimnet/graph/layout.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

namespace chisimnet::graph {
namespace {

Graph triangleWithTail() {
  // 0-1-2 triangle plus 2-3 tail (labels are identity).
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}, {2, 3, 4}};
  return Graph::fromEdges(edges, 4);
}

TEST(Graph, BasicAccessors) {
  const Graph graph = triangleWithTail();
  EXPECT_EQ(graph.vertexCount(), 4u);
  EXPECT_EQ(graph.edgeCount(), 4u);
  EXPECT_EQ(graph.degree(2), 3u);
  EXPECT_EQ(graph.degree(3), 1u);
  EXPECT_TRUE(graph.hasEdge(0, 1));
  EXPECT_TRUE(graph.hasEdge(1, 0));
  EXPECT_FALSE(graph.hasEdge(0, 3));
  EXPECT_EQ(graph.weightBetween(2, 3), 4u);
  EXPECT_EQ(graph.weightBetween(0, 3), 0u);
  EXPECT_EQ(graph.totalWeight(), 10u);
}

TEST(Graph, NeighborsSorted) {
  const Graph graph = triangleWithTail();
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
}

TEST(Graph, RowsSortedAndWeightsSummedFromShuffledInput) {
  // The build fills rows straight from the (u, v)-sorted edge list; check
  // that rows come out sorted whatever order, orientation and duplication
  // the input edges arrive in.
  util::Rng rng(31);
  const Vertex n = 40;
  std::vector<Weight> expected(n * n, 0);
  std::vector<Edge> edges;
  for (int k = 0; k < 300; ++k) {
    const auto u = static_cast<Vertex>(rng.uniformBelow(n));
    const auto v = static_cast<Vertex>(rng.uniformBelow(n));
    if (u == v) {
      continue;
    }
    const Weight weight = 1 + rng.uniformBelow(9);
    const int copies = 1 + static_cast<int>(rng.uniformBelow(3));
    for (int c = 0; c < copies; ++c) {
      // Alternate orientation so duplicates arrive both ways round.
      edges.push_back(c % 2 == 0 ? Edge{u, v, weight} : Edge{v, u, weight});
      expected[u * n + v] += weight;
      expected[v * n + u] += weight;
    }
  }
  rng.shuffle(edges);
  std::reverse(edges.begin(), edges.end());
  const Graph graph = Graph::fromEdges(edges, n);

  std::uint64_t expectedEdges = 0;
  for (Vertex u = 0; u < n; ++u) {
    const auto row = graph.neighbors(u);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "row " << u;
    EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end())
        << "row " << u;
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_EQ(graph.weightBetween(u, v), expected[u * n + v]);
      expectedEdges += u < v && expected[u * n + v] != 0 ? 1 : 0;
    }
    // Row weights line up with their neighbours.
    const auto weights = graph.edgeWeights(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(weights[i], expected[u * n + row[i]]);
    }
  }
  EXPECT_EQ(graph.edgeCount(), expectedEdges);
}

TEST(Graph, ParallelEdgesMergedBySummingWeights) {
  const std::vector<Edge> edges{{0, 1, 2}, {1, 0, 3}};
  const Graph graph = Graph::fromEdges(edges, 2);
  EXPECT_EQ(graph.edgeCount(), 1u);
  EXPECT_EQ(graph.weightBetween(0, 1), 5u);
}

TEST(Graph, SelfLoopRejected) {
  const std::vector<Edge> loop{{1, 1, 1}};
  EXPECT_THROW(Graph::fromEdges(loop, 2), std::invalid_argument);
}

TEST(Graph, FromTripletsCompactsLabels) {
  const std::vector<sparse::AdjacencyTriplet> triplets{
      {100, 500, 2}, {100, 900, 1}};
  const Graph graph = Graph::fromTriplets(triplets);
  EXPECT_EQ(graph.vertexCount(), 3u);
  EXPECT_EQ(graph.label(0), 100u);
  EXPECT_EQ(graph.label(1), 500u);
  EXPECT_EQ(graph.label(2), 900u);
  ASSERT_TRUE(graph.vertexForLabel(500).has_value());
  EXPECT_EQ(*graph.vertexForLabel(500), 1u);
  EXPECT_FALSE(graph.vertexForLabel(123).has_value());
  EXPECT_EQ(graph.weightBetween(0, 1), 2u);
}

TEST(Graph, FromTripletsWithUniverseKeepsIsolated) {
  const std::vector<sparse::AdjacencyTriplet> triplets{{10, 20, 1}};
  const std::vector<std::uint32_t> universe{10, 20, 30};
  const Graph graph = Graph::fromTriplets(triplets, universe);
  EXPECT_EQ(graph.vertexCount(), 3u);
  EXPECT_EQ(graph.degree(*graph.vertexForLabel(30)), 0u);
}

TEST(Graph, FromTripletsMissingLabelRejected) {
  const std::vector<sparse::AdjacencyTriplet> triplets{{10, 99, 1}};
  const std::vector<std::uint32_t> universe{10, 20};
  EXPECT_THROW(Graph::fromTriplets(triplets, universe), std::invalid_argument);
}

/// Asserts two graphs have the same CSR: offsets (via degrees), neighbor
/// rows, weights and labels.
void expectSameCsr(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.vertexCount(), expected.vertexCount());
  ASSERT_EQ(actual.edgeCount(), expected.edgeCount());
  for (Vertex v = 0; v < expected.vertexCount(); ++v) {
    const auto row = actual.neighbors(v);
    const auto expectedRow = expected.neighbors(v);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), expectedRow.begin(),
                           expectedRow.end()))
        << "row " << v;
    const auto weights = actual.edgeWeights(v);
    const auto expectedWeights = expected.edgeWeights(v);
    ASSERT_TRUE(std::equal(weights.begin(), weights.end(),
                           expectedWeights.begin(), expectedWeights.end()))
        << "weights " << v;
  }
}

/// fromTriplets against the sort-and-merge oracle fromEdges, whose build
/// is a serial fill in (u, v) order: random edges among `ids` (plus
/// `isolated` universe-only ids when non-empty) are summed into an
/// adjacency, and fromEdges gets the same edges shuffled, re-oriented and
/// compacted by a binary search over the labels. fromTriplets runs its fill
/// on 1, 2, 3, 4 and 7 threads (fewer below 1024 edges per thread).
void checkAgainstFromEdges(std::vector<std::uint32_t> ids,
                           std::vector<std::uint32_t> isolated,
                           std::size_t edgeDraws, util::Rng& rng) {
  sparse::SymmetricAdjacency adjacency;
  for (std::size_t k = 0; k < edgeDraws && ids.size() > 1; ++k) {
    const std::uint32_t a = ids[rng.uniformBelow(ids.size())];
    const std::uint32_t b = ids[rng.uniformBelow(ids.size())];
    if (a != b) {
      adjacency.add(a, b, 1 + rng.uniformBelow(1000));
    }
  }
  const std::vector<sparse::AdjacencyTriplet> triplets = adjacency.toTriplets();

  std::vector<std::uint32_t> labels;
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    labels.push_back(triplet.i);
    labels.push_back(triplet.j);
  }
  labels.insert(labels.end(), isolated.begin(), isolated.end());
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  const auto compact = [&labels](std::uint32_t id) {
    return static_cast<Vertex>(
        std::lower_bound(labels.begin(), labels.end(), id) - labels.begin());
  };
  std::vector<Edge> edges;
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    Edge edge{compact(triplet.i), compact(triplet.j), triplet.weight};
    if (rng.uniformBelow(2) == 0) {
      std::swap(edge.u, edge.v);
    }
    edges.push_back(edge);
  }
  rng.shuffle(edges);
  const Graph oracle =
      Graph::fromEdges(edges, static_cast<Vertex>(labels.size()));

  std::vector<std::uint32_t> universe = labels;
  rng.shuffle(universe);
  for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const Graph graph =
        isolated.empty() ? Graph::fromTriplets(triplets, threads)
                         : Graph::fromTriplets(triplets, universe, threads);
    expectSameCsr(graph, oracle);
    EXPECT_TRUE(std::equal(graph.labels().begin(), graph.labels().end(),
                           labels.begin(), labels.end()));
  }
}

TEST(Graph, FromTripletsMatchesFromEdgesOnDenseIds) {
  util::Rng rng(41);
  for (const std::uint32_t n : {2u, 3u, 50u, 700u}) {
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    checkAgainstFromEdges(ids, {}, 6 * n, rng);
  }
}

TEST(Graph, FromTripletsMatchesFromEdgesOnSparseIds) {
  util::Rng rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::uint32_t> ids{0xFFFFFFFEu, 0u};
    // Clustered low ids plus ids spread up to the largest legal one: one
    // bucket of the label index then holds many labels.
    for (int k = 0; k < 300; ++k) {
      ids.push_back(static_cast<std::uint32_t>(
          k < 150 ? rng.uniformBelow(400) : rng.uniformBelow(0xFFFFFFFFull)));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    checkAgainstFromEdges(ids, {}, 2000, rng);
  }
}

TEST(Graph, FromTripletsMatchesFromEdgesWithIsolatedUniverse) {
  util::Rng rng(43);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::uint32_t> ids;
    std::vector<std::uint32_t> isolated;
    for (std::uint32_t id = 0; id < 400; ++id) {
      const std::uint32_t label = id * 7919u + (trial == 3 ? 0xF0000000u : 0);
      (rng.uniformBelow(3) == 0 ? isolated : ids).push_back(label);
    }
    checkAgainstFromEdges(ids, isolated, 1500, rng);
  }
}

// Shapes large enough for every thread count to fill: hubs (a few ids in
// most edges, so one owner's rows hold most entries), isolated labels
// between and around the edges, and a uniform spread.
TEST(Graph, ThreadedFillMatchesSerialFill) {
  util::Rng rng(44);
  std::vector<std::uint32_t> ids(3000);
  std::iota(ids.begin(), ids.end(), 0u);
  checkAgainstFromEdges(ids, {}, 60000, rng);
  std::vector<std::uint32_t> connected;
  std::vector<std::uint32_t> isolated;
  for (std::uint32_t id = 0; id < 6000; ++id) {
    (id % 3 == 1 || id >= 5500 ? isolated : connected).push_back(id * 13u);
  }
  checkAgainstFromEdges(connected, isolated, 40000, rng);
  sparse::SymmetricAdjacency star;
  for (std::uint32_t id = 100; id < 9000; ++id) {
    star.add(7, id, id);
    star.add(id, 9, 1);
  }
  // A matching has twice as many vertices as edges: the chunks' id lists
  // together outgrow the edge count.
  sparse::SymmetricAdjacency matching;
  for (std::uint32_t id = 0; id < 20000; id += 2) {
    matching.add(id, id + 1, 1 + id);
  }
  for (const sparse::SymmetricAdjacency* shape : {&star, &matching}) {
    const std::vector<sparse::AdjacencyTriplet> triplets = shape->toTriplets();
    const Graph serial = Graph::fromTriplets(triplets, 1);
    for (const unsigned threads : {2u, 4u, 7u}) {
      expectSameCsr(Graph::fromTriplets(triplets, threads), serial);
      EXPECT_TRUE(std::ranges::equal(
          Graph::fromTriplets(triplets, threads).labels(), serial.labels()));
    }
  }
  const Graph hub = Graph::fromTriplets(star.toTriplets());
  EXPECT_EQ(hub.degree(*hub.vertexForLabel(7)), 8900u);
  EXPECT_EQ(Graph::fromTriplets(matching.toTriplets()).vertexCount(), 20000u);
}

TEST(Graph, FromTripletsEmptyInput) {
  const Graph empty = Graph::fromTriplets({});
  EXPECT_EQ(empty.vertexCount(), 0u);
  EXPECT_EQ(empty.edgeCount(), 0u);
  const std::vector<std::uint32_t> universe{30, 10};
  const Graph isolated = Graph::fromTriplets({}, universe);
  EXPECT_EQ(isolated.vertexCount(), 2u);
  EXPECT_EQ(isolated.edgeCount(), 0u);
  EXPECT_EQ(isolated.label(0), 10u);
  EXPECT_EQ(isolated.label(1), 30u);
}

TEST(Graph, FromTripletsHugeIdsNeedNoIdSizedTable) {
  const std::vector<sparse::AdjacencyTriplet> triplets{
      {4'000'000'000u, 4'100'000'000u, 2}, {4'000'000'000u, 4'294'967'295u, 5}};
  const Graph graph = Graph::fromTriplets(triplets);
  EXPECT_EQ(graph.vertexCount(), 3u);
  EXPECT_EQ(graph.weightBetween(0, 2), 5u);
  EXPECT_EQ(*graph.vertexForLabel(4'100'000'000u), 1u);
  EXPECT_LT(graph.memoryBytes(), 256u);
}

TEST(Graph, FromTripletsRejectsInputOutOfStrictAscent) {
  using Triplets = std::vector<sparse::AdjacencyTriplet>;
  const std::vector<Triplets> bad{
      {{1, 3, 1}, {1, 2, 1}},  // j out of order
      {{2, 3, 1}, {1, 4, 1}},  // i out of order
      {{1, 2, 1}, {1, 2, 1}},  // duplicate
      {{2, 2, 1}},             // i == j
      {{3, 1, 1}},             // i > j
  };
  const std::vector<std::uint32_t> universe{1, 2, 3, 4};
  for (const Triplets& triplets : bad) {
    EXPECT_THROW(Graph::fromTriplets(triplets), std::invalid_argument);
    EXPECT_THROW(Graph::fromTriplets(triplets, universe), std::invalid_argument);
  }
}

TEST(Algorithms, DegreeSequence) {
  const Graph graph = triangleWithTail();
  EXPECT_EQ(degreeSequence(graph),
            (std::vector<std::uint64_t>{2, 2, 3, 1}));
  EXPECT_DOUBLE_EQ(meanDegree(graph), 2.0);
}

TEST(Algorithms, ClusteringOnKnownGraph) {
  const Graph graph = triangleWithTail();
  const auto coefficients = localClusteringCoefficients(graph);
  EXPECT_DOUBLE_EQ(coefficients[0], 1.0);  // both neighbors connected
  EXPECT_DOUBLE_EQ(coefficients[1], 1.0);
  EXPECT_DOUBLE_EQ(coefficients[2], 1.0 / 3.0);  // one of three pairs closed
  EXPECT_DOUBLE_EQ(coefficients[3], 0.0);        // degree 1
}

TEST(Algorithms, CompleteGraphFullyClustered) {
  std::vector<Edge> edges;
  const Vertex n = 8;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      edges.push_back(Edge{u, v, 1});
    }
  }
  const Graph complete = Graph::fromEdges(edges, n);
  EXPECT_EQ(triangleCount(complete), 56u);  // C(8,3)
  EXPECT_DOUBLE_EQ(globalTransitivity(complete), 1.0);
  for (double c : localClusteringCoefficients(complete)) {
    EXPECT_DOUBLE_EQ(c, 1.0);
  }
}

/// O(n^3) reference clustering for the property sweep.
std::vector<double> bruteForceClustering(const Graph& graph) {
  std::vector<double> coefficients(graph.vertexCount(), 0.0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    if (row.size() < 2) {
      continue;
    }
    std::uint64_t closed = 0;
    for (std::size_t a = 0; a < row.size(); ++a) {
      for (std::size_t b = a + 1; b < row.size(); ++b) {
        closed += graph.hasEdge(row[a], row[b]) ? 1 : 0;
      }
    }
    coefficients[v] = static_cast<double>(closed) /
                      (static_cast<double>(row.size()) *
                       static_cast<double>(row.size() - 1) / 2.0);
  }
  return coefficients;
}

/// O(n^3) reference triangle count: every vertex triple tested directly.
std::uint64_t bruteForceTriangleCount(const Graph& graph) {
  const Vertex n = graph.vertexCount();
  std::uint64_t triangles = 0;
  for (Vertex a = 0; a < n; ++a) {
    for (Vertex b = a + 1; b < n; ++b) {
      if (!graph.hasEdge(a, b)) {
        continue;
      }
      for (Vertex c = b + 1; c < n; ++c) {
        triangles += graph.hasEdge(a, c) && graph.hasEdge(b, c) ? 1 : 0;
      }
    }
  }
  return triangles;
}

/// The formula localClusteringCoefficients used before the oriented kernel:
/// closed = Σ over neighbours of a sorted-list intersection (each triangle
/// at v counted twice), coefficient = closed / 2 / triples. The kernel must
/// reproduce it bit for bit.
std::vector<double> intersectionClustering(const Graph& graph) {
  const auto sharedNeighbors = [&graph](Vertex u, Vertex v) {
    const auto a = graph.neighbors(u);
    const auto b = graph.neighbors(v);
    std::uint64_t count = 0;
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < a.size() && ib < b.size()) {
      if (a[ia] < b[ib]) {
        ++ia;
      } else if (b[ib] < a[ia]) {
        ++ib;
      } else {
        ++count;
        ++ia;
        ++ib;
      }
    }
    return count;
  };
  std::vector<double> coefficients(graph.vertexCount(), 0.0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    if (degree < 2) {
      continue;
    }
    std::uint64_t closed = 0;
    for (Vertex neighbor : graph.neighbors(v)) {
      closed += sharedNeighbors(v, neighbor);
    }
    const double triples = static_cast<double>(degree) *
                           static_cast<double>(degree - 1) / 2.0;
    coefficients[v] = static_cast<double>(closed) / 2.0 / triples;
  }
  return coefficients;
}

/// Union of overlapping cliques, shaped like a collocation network: every
/// person sits in one household (2-6 people) and most in one workplace
/// (5-15 people), so degrees tie heavily and triangles are dense.
Graph overlappingCliques(Vertex persons, util::Rng& rng) {
  std::vector<Vertex> order(persons);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<Edge> edges;
  const auto addGroups = [&](std::uint64_t minSize, std::uint64_t maxSize,
                             double joinProbability) {
    rng.shuffle(order);
    std::size_t next = 0;
    while (next < order.size()) {
      const std::size_t size =
          minSize + rng.uniformBelow(maxSize - minSize + 1);
      const std::size_t end = std::min(order.size(), next + size);
      std::vector<Vertex> members;
      for (std::size_t i = next; i < end; ++i) {
        if (rng.bernoulli(joinProbability)) {
          members.push_back(order[i]);
        }
      }
      for (std::size_t a = 0; a < members.size(); ++a) {
        for (std::size_t b = a + 1; b < members.size(); ++b) {
          edges.push_back(Edge{members[a], members[b], 1});
        }
      }
      next = end;
    }
  };
  addGroups(2, 6, 1.0);   // households
  addGroups(5, 15, 0.8);  // workplaces
  return Graph::fromEdges(edges, persons);
}

/// Kernel against both oracles: coefficients bit-identical to the old
/// intersection formula and to the brute force, triangle count exact.
void expectExactClustering(const Graph& graph) {
  const auto fast = localClusteringCoefficients(graph);
  const auto reference = bruteForceClustering(graph);
  const auto previous = intersectionClustering(graph);
  ASSERT_EQ(fast.size(), graph.vertexCount());
  ASSERT_EQ(reference.size(), fast.size());
  for (std::size_t v = 0; v < fast.size(); ++v) {
    EXPECT_EQ(fast[v], previous[v]) << "vertex " << v;
    EXPECT_EQ(fast[v], reference[v]) << "vertex " << v;
  }
  const std::uint64_t triangles = bruteForceTriangleCount(graph);
  EXPECT_EQ(triangleCount(graph), triangles);
  std::uint64_t triples = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    triples += degree < 2 ? 0 : degree * (degree - 1) / 2;
  }
  EXPECT_EQ(globalTransitivity(graph),
            triples == 0 ? 0.0
                         : 3.0 * static_cast<double>(triangles) /
                               static_cast<double>(triples));
}

class ClusteringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusteringProperty, MatchesBruteForceOnRandomGraphs) {
  util::Rng rng(GetParam());
  {
    SCOPED_TRACE("erdos-renyi");
    expectExactClustering(erdosRenyi(60, 240, rng));
  }
  {
    SCOPED_TRACE("barabasi-albert");
    expectExactClustering(barabasiAlbert(200, 4, rng));
  }
  {
    SCOPED_TRACE("watts-strogatz");
    expectExactClustering(wattsStrogatz(150, 4, 0.2, rng));
  }
  {
    SCOPED_TRACE("overlapping cliques");
    expectExactClustering(overlappingCliques(200, rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Algorithms, ClusteringOnEmptyGraph) {
  for (const Graph& graph : {Graph{}, Graph::fromEdges({}, 0)}) {
    EXPECT_TRUE(localClusteringCoefficients(graph).empty());
    EXPECT_EQ(triangleCount(graph), 0u);
    EXPECT_EQ(globalTransitivity(graph), 0.0);
  }
}

TEST(Algorithms, ClusteringOnSingleEdge) {
  const std::vector<Edge> edges{{0, 1, 7}};
  const Graph graph = Graph::fromEdges(edges, 2);
  EXPECT_EQ(localClusteringCoefficients(graph),
            (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(triangleCount(graph), 0u);
  EXPECT_EQ(globalTransitivity(graph), 0.0);
}

TEST(Algorithms, ClusteringIgnoresIsolatedVertices) {
  // Triangle {1, 3, 5} among isolated vertices 0, 2, 4, 6.
  const std::vector<Edge> edges{{1, 3, 1}, {3, 5, 1}, {1, 5, 1}};
  const Graph graph = Graph::fromEdges(edges, 7);
  EXPECT_EQ(localClusteringCoefficients(graph),
            (std::vector<double>{0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0}));
  EXPECT_EQ(triangleCount(graph), 1u);
  EXPECT_EQ(globalTransitivity(graph), 1.0);
}

TEST(Algorithms, ClusteringOnRegularGraphs) {
  // Every vertex ties on degree, so the rank order falls back to ids.
  util::Rng rng(37);
  {
    SCOPED_TRACE("ring lattice");
    expectExactClustering(wattsStrogatz(64, 3, 0.0, rng));
  }
  {
    SCOPED_TRACE("disjoint K4s");
    std::vector<Edge> edges;
    for (Vertex base = 0; base < 40; base += 4) {
      for (Vertex a = 0; a < 4; ++a) {
        for (Vertex b = a + 1; b < 4; ++b) {
          edges.push_back(Edge{base + a, base + b, 1});
        }
      }
    }
    const Graph cliques = Graph::fromEdges(edges, 40);
    EXPECT_EQ(triangleCount(cliques), 40u);  // 10 x C(4,3)
    expectExactClustering(cliques);
  }
}

TEST(Algorithms, VerticesWithinRadius) {
  // Path 0-1-2-3-4.
  std::vector<Edge> edges;
  for (Vertex v = 0; v + 1 < 5; ++v) {
    edges.push_back(Edge{v, static_cast<Vertex>(v + 1), 1});
  }
  const Graph path = Graph::fromEdges(edges, 5);
  EXPECT_EQ(verticesWithinRadius(path, 0, 0), (std::vector<Vertex>{0}));
  EXPECT_EQ(verticesWithinRadius(path, 0, 2), (std::vector<Vertex>{0, 1, 2}));
  EXPECT_EQ(verticesWithinRadius(path, 2, 2),
            (std::vector<Vertex>{0, 1, 2, 3, 4}));
}

TEST(Algorithms, EgoNetworkPreservesInternalEdges) {
  const Graph graph = triangleWithTail();
  const Graph ego = egoNetwork(graph, 0, 1);  // 0 + neighbors {1, 2}
  EXPECT_EQ(ego.vertexCount(), 3u);
  EXPECT_EQ(ego.edgeCount(), 3u);  // the full triangle, incl. edge 1-2
  EXPECT_EQ(ego.weightBetween(*ego.vertexForLabel(1), *ego.vertexForLabel(2)),
            2u);
}

TEST(Algorithms, InducedSubgraphKeepsIsolatedVertices) {
  const Graph graph = triangleWithTail();
  const std::vector<Vertex> pick{0, 3};  // no edge between them
  const Graph sub = inducedSubgraph(graph, pick);
  EXPECT_EQ(sub.vertexCount(), 2u);
  EXPECT_EQ(sub.edgeCount(), 0u);
}

TEST(Algorithms, ConnectedComponents) {
  // Two components: triangle {0,1,2} and edge {3,4}; isolated 5.
  const std::vector<Edge> edges{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}};
  const Graph graph = Graph::fromEdges(edges, 6);
  const Components components = connectedComponents(graph);
  EXPECT_EQ(components.count(), 3u);
  EXPECT_EQ(components.giantSize(), 3u);
  EXPECT_EQ(components.componentOf[0], components.componentOf[2]);
  EXPECT_NE(components.componentOf[0], components.componentOf[3]);
}

TEST(Generators, ErdosRenyiExactEdgeCount) {
  util::Rng rng(11);
  const Graph graph = erdosRenyi(100, 350, rng);
  EXPECT_EQ(graph.vertexCount(), 100u);
  EXPECT_EQ(graph.edgeCount(), 350u);
}

TEST(Generators, ErdosRenyiRejectsImpossible) {
  util::Rng rng(1);
  EXPECT_THROW(erdosRenyi(3, 10, rng), std::invalid_argument);
}

TEST(Generators, BarabasiAlbertDegreesAndTail) {
  util::Rng rng(13);
  const Graph graph = barabasiAlbert(2000, 3, rng);
  EXPECT_EQ(graph.vertexCount(), 2000u);
  // Every non-seed vertex attaches with >= 3 edges.
  std::uint64_t maxDegree = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    EXPECT_GE(graph.degree(v), 3u);
    maxDegree = std::max(maxDegree, graph.degree(v));
  }
  // Preferential attachment grows hubs far beyond the minimum.
  EXPECT_GT(maxDegree, 30u);
}

TEST(Generators, WattsStrogatzZeroBetaIsLattice) {
  util::Rng rng(17);
  const Graph graph = wattsStrogatz(50, 2, 0.0, rng);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    EXPECT_EQ(graph.degree(v), 4u);
  }
  // Ring lattice with k=2 has transitivity 0.5.
  EXPECT_NEAR(globalTransitivity(graph), 0.5, 1e-9);
}

TEST(Generators, WattsStrogatzRewiringLowersClustering) {
  util::Rng rng(19);
  const Graph ordered = wattsStrogatz(400, 3, 0.0, rng);
  const Graph rewired = wattsStrogatz(400, 3, 0.9, rng);
  EXPECT_EQ(ordered.edgeCount(), rewired.edgeCount());
  EXPECT_GT(globalTransitivity(ordered), globalTransitivity(rewired) + 0.1);
}

class IoTest : public ::testing::Test {
 protected:
  testsupport::ScratchDir scratch_{"chisimnet_graph_io"};
  const std::filesystem::path& dir_ = scratch_.path();
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST_F(IoTest, EdgeListHasOneLinePerEdge) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.tsv";
  writeEdgeListTsv(graph, path);
  const std::string content = slurp(path);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 4);
  EXPECT_NE(content.find("2\t3\t4"), std::string::npos);
}

TEST_F(IoTest, GraphMlContainsNodesEdgesAndDegrees) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.graphml";
  writeGraphMl(graph, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("<graphml"), std::string::npos);
  EXPECT_NE(content.find("<node id=\"n0\">"), std::string::npos);
  EXPECT_NE(content.find("attr.name=\"degree\""), std::string::npos);
  // 5 header lines + 4 nodes + 4 edges + 2 closing lines.
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 5 + 4 + 4 + 2);
}

TEST_F(IoTest, DotOutputParses) {
  const Graph graph = triangleWithTail();
  const auto path = dir_ / "g.dot";
  writeDot(graph, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("graph G {"), std::string::npos);
  EXPECT_NE(content.find("0 -- 1"), std::string::npos);
}

TEST(Layout, PositionsFiniteAndClustersCloser) {
  // Two triangles joined by one bridge edge: layout should place
  // intra-triangle pairs closer than the triangles' centroids.
  const std::vector<Edge> edges{{0, 1, 5}, {1, 2, 5}, {0, 2, 5},
                                {3, 4, 5}, {4, 5, 5}, {3, 5, 5},
                                {2, 3, 1}};
  const Graph graph = Graph::fromEdges(edges, 6);
  util::Rng rng(23);
  LayoutOptions options;
  options.iterations = 300;
  const auto positions = forceAtlas2Layout(graph, options, rng);
  ASSERT_EQ(positions.size(), 6u);
  for (const Point& point : positions) {
    EXPECT_TRUE(std::isfinite(point.x));
    EXPECT_TRUE(std::isfinite(point.y));
  }
  const auto distance = [&positions](Vertex a, Vertex b) {
    const double dx = positions[a].x - positions[b].x;
    const double dy = positions[a].y - positions[b].y;
    return std::sqrt(dx * dx + dy * dy);
  };
  EXPECT_LT(distance(0, 1), distance(0, 4));
  EXPECT_LT(distance(3, 5), distance(1, 5));
}

TEST_F(IoTest, SvgRendererWritesValidFile) {
  const Graph graph = triangleWithTail();
  util::Rng rng(29);
  const auto positions = forceAtlas2Layout(graph, LayoutOptions{}, rng);
  const auto path = dir_ / "g.svg";
  writeSvg(graph, positions, path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'),
            // header+rect+2 group opens+4 edges+4 nodes+2 group closes+close
            2 + 2 + 4 + 4 + 2 + 1);
}

TEST(Layout, EmptyGraph) {
  const Graph graph;
  util::Rng rng(1);
  EXPECT_TRUE(forceAtlas2Layout(graph, LayoutOptions{}, rng).empty());
}

}  // namespace
}  // namespace chisimnet::graph
