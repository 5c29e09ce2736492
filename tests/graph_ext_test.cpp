#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "chisimnet/graph/algorithms.hpp"
#include "chisimnet/graph/generators.hpp"
#include "chisimnet/graph/weighted_stats.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

/// Tests for the graph/sparse extension features: the configuration model,
/// weighted statistics, and adjacency persistence.

namespace chisimnet {
namespace {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

// ---- configuration model ---------------------------------------------------

class ConfigModelSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigModelSeeds, ApproximatesTargetDegrees) {
  util::Rng degreeRng(GetParam());
  std::vector<std::uint64_t> degrees(500);
  for (auto& degree : degrees) {
    degree = 1 + degreeRng.uniformBelow(20);
  }
  util::Rng rng(GetParam() + 1000);
  const Graph graph = graph::configurationModel(degrees, rng);
  ASSERT_EQ(graph.vertexCount(), degrees.size());

  // Stub matching with rejection may shave a few stubs; realized degrees
  // never exceed targets and total shortfall is small.
  std::uint64_t target = std::accumulate(degrees.begin(), degrees.end(),
                                         std::uint64_t{0});
  std::uint64_t realized = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    EXPECT_LE(graph.degree(v), degrees[v]) << "vertex " << v;
    realized += graph.degree(v);
  }
  EXPECT_GE(realized, target * 97 / 100);
}

TEST_P(ConfigModelSeeds, ProducesSimpleGraph) {
  util::Rng rng(GetParam());
  std::vector<std::uint64_t> degrees(200, 6);
  const Graph graph = graph::configurationModel(degrees, rng);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const auto row = graph.neighbors(v);
    EXPECT_TRUE(std::adjacent_find(row.begin(), row.end()) == row.end())
        << "parallel edge at " << v;
    EXPECT_FALSE(std::binary_search(row.begin(), row.end(), v))
        << "self-loop at " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigModelSeeds,
                         ::testing::Values(1, 2, 3, 4));

TEST(ConfigModel, HeavyTailDegreesPreserved) {
  // A hub with degree 100 among degree-2 vertices must come out as a hub.
  std::vector<std::uint64_t> degrees(301, 2);
  degrees[0] = 100;
  util::Rng rng(9);
  const Graph graph = graph::configurationModel(degrees, rng);
  EXPECT_GT(graph.degree(0), 80u);
}

TEST(ConfigModel, MatchedDegreesDoNotReproduceClustering) {
  // The §VI point: a degree-matched random graph misses the clustering of
  // a clique-rich source network.
  std::vector<Edge> edges;
  const unsigned cliques = 30;
  const unsigned size = 6;
  for (unsigned c = 0; c < cliques; ++c) {
    const Vertex base = c * size;
    for (Vertex u = 0; u < size; ++u) {
      for (Vertex v = u + 1; v < size; ++v) {
        edges.push_back(Edge{base + u, base + v, 1});
      }
    }
  }
  const Graph cliquey = Graph::fromEdges(edges, cliques * size);
  util::Rng rng(21);
  const Graph matched =
      graph::configurationModel(graph::degreeSequence(cliquey), rng);
  const double sourceClustering = graph::globalTransitivity(cliquey);
  const double matchedClustering = graph::globalTransitivity(matched);
  EXPECT_DOUBLE_EQ(sourceClustering, 1.0);
  EXPECT_LT(matchedClustering, 0.3);
}

// ---- weighted statistics -----------------------------------------------------

Graph weightedTriangle() {
  const std::vector<Edge> edges{{0, 1, 10}, {1, 2, 20}, {0, 2, 30}, {2, 3, 5}};
  return Graph::fromEdges(edges, 4);
}

TEST(WeightedStats, StrengthSequence) {
  const auto strengths = graph::strengthSequence(weightedTriangle());
  EXPECT_EQ(strengths, (std::vector<std::uint64_t>{40, 30, 55, 5}));
}

TEST(WeightedStats, EdgeWeightSequence) {
  auto weights = graph::edgeWeightSequence(weightedTriangle());
  std::sort(weights.begin(), weights.end());
  EXPECT_EQ(weights, (std::vector<std::uint64_t>{5, 10, 20, 30}));
}

TEST(WeightedStats, DegreeStrengthCorrelationUnitWeights) {
  // With all weights equal, strength == weight * degree -> correlation 1.
  util::Rng rng(4);
  const Graph graph = graph::erdosRenyi(100, 300, rng);
  EXPECT_NEAR(graph::degreeStrengthCorrelation(graph), 1.0, 1e-9);
}

TEST(WeightedStats, AssortativityOfStarIsNegative) {
  // A star is maximally disassortative: hubs connect to leaves only.
  std::vector<Edge> edges;
  for (Vertex leaf = 1; leaf <= 10; ++leaf) {
    edges.push_back(Edge{0, leaf, 1});
  }
  const Graph star = Graph::fromEdges(edges, 11);
  EXPECT_LT(graph::degreeAssortativity(star), -0.99);
}

TEST(WeightedStats, AssortativityOfRegularGraphIsDegenerate) {
  util::Rng rng(8);
  const Graph ring = graph::wattsStrogatz(50, 2, 0.0, rng);
  // All degrees equal -> zero variance -> defined as 0.
  EXPECT_DOUBLE_EQ(graph::degreeAssortativity(ring), 0.0);
}

TEST(WeightedStats, BarratEqualsUnweightedForUnitWeights) {
  util::Rng rng(6);
  const Graph graph = graph::erdosRenyi(80, 320, rng);
  const auto weighted = graph::weightedClusteringCoefficients(graph);
  const auto unweighted = graph::localClusteringCoefficients(graph);
  ASSERT_EQ(weighted.size(), unweighted.size());
  for (std::size_t v = 0; v < weighted.size(); ++v) {
    EXPECT_NEAR(weighted[v], unweighted[v], 1e-12) << "vertex " << v;
  }
}

TEST(WeightedStats, BarratWeighsTrianglesByIncidentEdges) {
  // Vertex 0 has neighbors {1, 2, 3}; only the pair (1, 2) closes a
  // triangle. Heavy weights on the triangle edges (0-1, 0-2) versus the
  // dangling edge (0-3) raise c_w(0); light ones lower it.
  //   c_w(0) = (w01 + w02) / ((w01 + w02 + w03) * (k - 1)).
  const auto build = [](graph::Weight triangleWeight) {
    const std::vector<Edge> edges{{0, 1, triangleWeight},
                                  {0, 2, triangleWeight},
                                  {0, 3, 10},
                                  {1, 2, 10}};
    return Graph::fromEdges(edges, 4);
  };
  const auto heavy = graph::weightedClusteringCoefficients(build(100));
  const auto light = graph::weightedClusteringCoefficients(build(1));
  EXPECT_NEAR(heavy[0], 200.0 / (210.0 * 2.0), 1e-12);
  EXPECT_NEAR(light[0], 2.0 / (12.0 * 2.0), 1e-12);
  EXPECT_GT(heavy[0], light[0]);
  const auto unweighted = graph::localClusteringCoefficients(build(10));
  const auto balanced = graph::weightedClusteringCoefficients(build(10));
  EXPECT_NEAR(balanced[0], unweighted[0], 1e-12);
}

TEST(WeightedStats, BarratZeroForLowDegree) {
  const std::vector<Edge> edges{{0, 1, 5}};
  const Graph graph = Graph::fromEdges(edges, 2);
  const auto weighted = graph::weightedClusteringCoefficients(graph);
  EXPECT_DOUBLE_EQ(weighted[0], 0.0);
  EXPECT_DOUBLE_EQ(weighted[1], 0.0);
}

TEST(WeightedStats, MeanNeighborDegree) {
  const Graph graph = weightedTriangle();
  const auto knn = graph::meanNeighborDegree(graph);
  EXPECT_DOUBLE_EQ(knn[3], 3.0);              // neighbor 2 has degree 3
  EXPECT_DOUBLE_EQ(knn[0], (2.0 + 3.0) / 2);  // neighbors 1 (2), 2 (3)
}

// ---- adjacency persistence ----------------------------------------------------

class AdjacencyIoTest : public ::testing::Test {
 protected:
  testsupport::ScratchDir scratch_{"chisimnet_adj_io"};
  const std::filesystem::path& dir_ = scratch_.path();
};

sparse::SymmetricAdjacency randomAdjacency(std::uint64_t seed,
                                           std::size_t edges) {
  util::Rng rng(seed);
  sparse::SymmetricAdjacency adjacency(edges);
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.uniformBelow(10000));
    const auto v = static_cast<std::uint32_t>(rng.uniformBelow(10000));
    if (u != v) {
      adjacency.add(u, v, 1 + rng.uniformBelow(1000000));
    }
  }
  return adjacency;
}

TEST_F(AdjacencyIoTest, RoundTrip) {
  const auto adjacency = randomAdjacency(1, 5000);
  const auto path = dir_ / "net.cadj";
  sparse::saveAdjacency(adjacency, path);
  const auto loaded = sparse::loadAdjacency(path);
  EXPECT_EQ(loaded.toTriplets(), adjacency.toTriplets());
}

TEST_F(AdjacencyIoTest, EmptyAdjacency) {
  const sparse::SymmetricAdjacency empty;
  const auto path = dir_ / "empty.cadj";
  sparse::saveAdjacency(empty, path);
  EXPECT_TRUE(sparse::loadTriplets(path).empty());
}

TEST_F(AdjacencyIoTest, LargeWeightsSurvive) {
  sparse::SymmetricAdjacency adjacency;
  adjacency.add(1, 2, (1ull << 40) + 123);
  const auto path = dir_ / "big.cadj";
  sparse::saveAdjacency(adjacency, path);
  const auto triplets = sparse::loadTriplets(path);
  ASSERT_EQ(triplets.size(), 1u);
  EXPECT_EQ(triplets[0].weight, (1ull << 40) + 123);
}

TEST_F(AdjacencyIoTest, TruncationDetected) {
  const auto adjacency = randomAdjacency(2, 100);
  const auto path = dir_ / "trunc.cadj";
  sparse::saveAdjacency(adjacency, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 6);
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);
}

TEST_F(AdjacencyIoTest, CorruptionDetected) {
  const auto adjacency = randomAdjacency(3, 100);
  const auto path = dir_ / "corrupt.cadj";
  sparse::saveAdjacency(adjacency, path);
  {
    std::fstream stream(path, std::ios::binary | std::ios::in | std::ios::out);
    stream.seekp(40);
    char byte = 0;
    stream.read(&byte, 1);
    stream.seekp(40);
    byte = static_cast<char>(byte ^ 0x10);
    stream.write(&byte, 1);
  }
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);
}

TEST_F(AdjacencyIoTest, NotAnAdjacencyFileRejected) {
  const auto path = dir_ / "junk.cadj";
  {
    std::ofstream out(path);
    out << "hello";
  }
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);
}

/// Whole-file bytes of a CADJ, for tests that forge headers and rows.
std::vector<std::byte> readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::byte> bytes(std::filesystem::file_size(path));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

/// Writes `bytes` back with the payload CRC footer recomputed, so only the
/// forged content (not a CRC mismatch) can make the load fail.
void writeWithFreshCrc(const std::filesystem::path& path,
                       std::vector<std::byte> bytes) {
  const std::span<const std::byte> payload(bytes.data() + 16,
                                           bytes.size() - 20);
  const std::uint32_t crc = util::crc32(payload);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST_F(AdjacencyIoTest, InflatedHeaderCountRejectedBeforeAllocating) {
  const auto adjacency = randomAdjacency(6, 50);
  const auto path = dir_ / "inflated.cadj";
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62, adjacency.edgeCount() + 1,
        ~std::uint64_t{0}}) {
    sparse::saveAdjacency(adjacency, path);
    std::vector<std::byte> bytes = readFile(path);
    std::memcpy(bytes.data() + 8, &count, 8);
    writeWithFreshCrc(path, bytes);
    try {
      sparse::loadTriplets(path);
      ADD_FAILURE() << "count " << count << " was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("does not match the file size"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST_F(AdjacencyIoTest, RowsOutOfOrderRejected) {
  const auto adjacency = randomAdjacency(7, 50);
  const auto path = dir_ / "swapped.cadj";
  sparse::saveAdjacency(adjacency, path);
  std::vector<std::byte> bytes = readFile(path);
  // Swap rows 3 and 4 (16 B each, payload starts at byte 16).
  std::swap_ranges(bytes.begin() + 16 + 3 * 16, bytes.begin() + 16 + 4 * 16,
                   bytes.begin() + 16 + 4 * 16);
  writeWithFreshCrc(path, bytes);
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);

  // A duplicated row (row 4 := row 3) is not strictly ascending either.
  bytes = readFile(path);
  std::copy(bytes.begin() + 16 + 4 * 16, bytes.begin() + 16 + 5 * 16,
            bytes.begin() + 16 + 3 * 16);
  writeWithFreshCrc(path, bytes);
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);
}

// A payload of several 1 MiB chunks: the CRC is computed per chunk and
// joined, and each chunk checks its first row against the row before it.
TEST_F(AdjacencyIoTest, ChunkedPayloadChecksEveryChunkBoundary) {
  constexpr std::size_t kRows = 5 * (std::size_t{1} << 16);
  std::vector<sparse::AdjacencyTriplet> triplets(kRows);
  for (std::size_t k = 0; k < kRows; ++k) {
    const auto i = static_cast<std::uint32_t>(k / 64);
    triplets[k] = {i, i + 1 + static_cast<std::uint32_t>(k % 64), k + 1};
  }
  const auto path = dir_ / "chunked.cadj";
  sparse::saveTriplets(triplets, path);
  const std::vector<std::byte> saved = readFile(path);
  std::uint32_t footer = 0;
  std::memcpy(&footer, saved.data() + saved.size() - 4, 4);
  EXPECT_EQ(footer, util::crc32(std::span<const std::byte>(
                        saved.data() + 16, saved.size() - 20)));
  EXPECT_EQ(sparse::loadTriplets(path), triplets);

  // A row equal to its predecessor on a chunk boundary of 2 to 5 chunks.
  for (const std::size_t row :
       {kRows / 2, kRows / 3, 2 * kRows / 3, kRows / 4, 3 * kRows / 4,
        kRows / 5, kRows - 1}) {
    std::vector<std::byte> bytes = saved;
    std::copy(bytes.begin() + static_cast<std::ptrdiff_t>(16 * row),
              bytes.begin() + static_cast<std::ptrdiff_t>(16 * row + 16),
              bytes.begin() + static_cast<std::ptrdiff_t>(16 * row + 16));
    writeWithFreshCrc(path, bytes);
    try {
      sparse::loadTriplets(path);
      ADD_FAILURE() << "duplicate row " << row << " was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("CADJ row " + std::to_string(row) + " is not"),
                std::string::npos)
          << error.what();
    }
  }

  // A flipped bit in the last chunk fails the joined CRC.
  std::vector<std::byte> bytes = saved;
  bytes[bytes.size() - 30] ^= std::byte{0x01};
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  try {
    sparse::loadTriplets(path);
    ADD_FAILURE() << "corrupt payload was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("adjacency CRC mismatch"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(AdjacencyIoTest, DiagonalRowRejected) {
  const auto path = dir_ / "diagonal.cadj";
  const std::vector<sparse::AdjacencyTriplet> triplets{{1, 2, 1}, {3, 4, 1}};
  sparse::saveTriplets(triplets, path);
  std::vector<std::byte> bytes = readFile(path);
  // Row 1's j := its i, giving (3, 3) — still after row 0 in key order.
  std::copy(bytes.begin() + 32, bytes.begin() + 36, bytes.begin() + 36);
  writeWithFreshCrc(path, bytes);
  EXPECT_THROW(sparse::loadTriplets(path), std::runtime_error);
}

TEST_F(AdjacencyIoTest, SummingStoredPartials) {
  // The paper's batch workflow: store per-batch adjacencies, sum later.
  auto a = randomAdjacency(4, 500);
  auto b = randomAdjacency(5, 500);
  sparse::saveAdjacency(a, dir_ / "a.cadj");
  sparse::saveAdjacency(b, dir_ / "b.cadj");

  auto sum = sparse::loadAdjacency(dir_ / "a.cadj");
  sum.merge(sparse::loadAdjacency(dir_ / "b.cadj"));

  a.merge(b);
  EXPECT_EQ(sum.toTriplets(), a.toTriplets());
}

}  // namespace
}  // namespace chisimnet
