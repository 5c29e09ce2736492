#include "chisimnet/graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <thread>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::graph {

std::vector<std::uint64_t> degreeSequence(const Graph& graph) {
  std::vector<std::uint64_t> degrees(graph.vertexCount());
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    degrees[v] = graph.degree(v);
  }
  return degrees;
}

namespace {

/// Exact number of triangles through each vertex. Every edge is oriented
/// from lower to higher (degree, id) rank, so each vertex keeps at most
/// O(√m) forward neighbours and each triangle u < v < w (in rank) is found
/// once: at u, by marking u's forward list and scanning v's. All three
/// corners are credited in per-worker counters that are summed at the end;
/// integer sums make the result independent of the thread split.
std::vector<std::uint64_t> trianglesPerVertex(const Graph& graph) {
  const Vertex n = graph.vertexCount();
  const auto precedes = [&graph](Vertex a, Vertex b) {
    const std::uint64_t da = graph.degree(a);
    const std::uint64_t db = graph.degree(b);
    return da != db ? da < db : a < b;
  };
  std::vector<std::uint64_t> forwardOffsets(n + 1, 0);
  std::vector<Vertex> forward;
  forward.reserve(graph.edgeCount());
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v : graph.neighbors(u)) {
      if (precedes(u, v)) {
        forward.push_back(v);
      }
    }
    forwardOffsets[u + 1] = forward.size();
  }

  const unsigned workers = static_cast<unsigned>(std::clamp<std::uint64_t>(
      std::thread::hardware_concurrency(), 1, std::max<Vertex>(n, 1)));
  std::vector<std::vector<std::uint8_t>> marked(
      workers, std::vector<std::uint8_t>(n, 0));
  std::vector<std::vector<std::uint64_t>> corners(
      workers, std::vector<std::uint64_t>(n, 0));
  runtime::parallelFor(n, workers, [&](std::uint64_t u, unsigned worker) {
    const std::uint64_t begin = forwardOffsets[u];
    const std::uint64_t end = forwardOffsets[u + 1];
    if (end - begin < 2) {
      return;  // a triangle needs two forward neighbours of its lowest corner
    }
    std::vector<std::uint8_t>& mark = marked[worker];
    std::vector<std::uint64_t>& count = corners[worker];
    for (std::uint64_t i = begin; i < end; ++i) {
      mark[forward[i]] = 1;
    }
    std::uint64_t atU = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      const Vertex v = forward[i];
      std::uint64_t atV = 0;
      for (std::uint64_t j = forwardOffsets[v]; j < forwardOffsets[v + 1];
           ++j) {
        // Branch-free: about half the probes hit on collocation networks,
        // so a branch mispredicts often; adding 0 or 1 does not.
        const Vertex w = forward[j];
        const std::uint64_t hit = mark[w];
        atV += hit;
        count[w] += hit;
      }
      count[v] += atV;
      atU += atV;
    }
    count[u] += atU;
    for (std::uint64_t i = begin; i < end; ++i) {
      mark[forward[i]] = 0;
    }
  });

  for (unsigned worker = 1; worker < workers; ++worker) {
    for (Vertex v = 0; v < n; ++v) {
      corners[0][v] += corners[worker][v];
    }
  }
  return std::move(corners[0]);
}

}  // namespace

std::vector<double> localClusteringCoefficients(const Graph& graph) {
  const std::vector<std::uint64_t> triangles = trianglesPerVertex(graph);
  std::vector<double> coefficients(graph.vertexCount(), 0.0);
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    if (degree < 2) {
      continue;
    }
    const double triples = static_cast<double>(degree) *
                           static_cast<double>(degree - 1) / 2.0;
    coefficients[v] = static_cast<double>(triangles[v]) / triples;
  }
  return coefficients;
}

std::uint64_t triangleCount(const Graph& graph) {
  std::uint64_t corners = 0;
  for (std::uint64_t count : trianglesPerVertex(graph)) {
    corners += count;
  }
  return corners / 3;  // each triangle has three corners
}

double globalTransitivity(const Graph& graph) {
  std::uint64_t triples = 0;
  for (Vertex v = 0; v < graph.vertexCount(); ++v) {
    const std::uint64_t degree = graph.degree(v);
    triples += degree * (degree - 1) / 2;
  }
  if (triples == 0) {
    return 0.0;
  }
  return 3.0 * static_cast<double>(triangleCount(graph)) /
         static_cast<double>(triples);
}

std::vector<Vertex> verticesWithinRadius(const Graph& graph, Vertex source,
                                         unsigned radius) {
  CHISIM_REQUIRE(source < graph.vertexCount(), "source vertex out of range");
  std::vector<bool> visited(graph.vertexCount(), false);
  std::vector<Vertex> result;
  std::deque<std::pair<Vertex, unsigned>> frontier;
  visited[source] = true;
  frontier.emplace_back(source, 0u);
  result.push_back(source);
  while (!frontier.empty()) {
    const auto [vertex, depth] = frontier.front();
    frontier.pop_front();
    if (depth == radius) {
      continue;
    }
    for (Vertex neighbor : graph.neighbors(vertex)) {
      if (!visited[neighbor]) {
        visited[neighbor] = true;
        result.push_back(neighbor);
        frontier.emplace_back(neighbor, depth + 1);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

Graph inducedSubgraph(const Graph& graph, std::span<const Vertex> vertices) {
  std::vector<Vertex> selected(vertices.begin(), vertices.end());
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()), selected.end());
  for (Vertex v : selected) {
    CHISIM_REQUIRE(v < graph.vertexCount(), "subgraph vertex out of range");
  }

  const auto localIndex = [&selected](Vertex v) {
    const auto it = std::lower_bound(selected.begin(), selected.end(), v);
    return it != selected.end() && *it == v
               ? static_cast<Vertex>(it - selected.begin())
               : static_cast<Vertex>(selected.size());
  };

  std::vector<sparse::AdjacencyTriplet> triplets;
  for (Vertex u : selected) {
    const auto row = graph.neighbors(u);
    const auto rowWeights = graph.edgeWeights(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const Vertex v = row[i];
      if (v <= u) {
        continue;  // count each edge once
      }
      if (localIndex(v) == selected.size()) {
        continue;  // endpoint not selected
      }
      // Keep parent labels so person ids survive the extraction.
      triplets.push_back(sparse::AdjacencyTriplet{
          graph.label(u), graph.label(v), rowWeights[i]});
    }
  }
  // Build over the full selected-vertex universe so isolated vertices are
  // preserved.
  std::vector<std::uint32_t> labels;
  labels.reserve(selected.size());
  for (Vertex v : selected) {
    labels.push_back(graph.label(v));
  }
  return Graph::fromTriplets(triplets, labels);
}

Graph egoNetwork(const Graph& graph, Vertex source, unsigned radius) {
  const std::vector<Vertex> vertices =
      verticesWithinRadius(graph, source, radius);
  return inducedSubgraph(graph, vertices);
}

Components connectedComponents(const Graph& graph) {
  Components components;
  components.componentOf.assign(graph.vertexCount(),
                                static_cast<std::uint32_t>(-1));
  for (Vertex start = 0; start < graph.vertexCount(); ++start) {
    if (components.componentOf[start] != static_cast<std::uint32_t>(-1)) {
      continue;
    }
    const auto id = static_cast<std::uint32_t>(components.sizes.size());
    std::uint64_t size = 0;
    std::deque<Vertex> frontier{start};
    components.componentOf[start] = id;
    while (!frontier.empty()) {
      const Vertex vertex = frontier.front();
      frontier.pop_front();
      ++size;
      for (Vertex neighbor : graph.neighbors(vertex)) {
        if (components.componentOf[neighbor] == static_cast<std::uint32_t>(-1)) {
          components.componentOf[neighbor] = id;
          frontier.push_back(neighbor);
        }
      }
    }
    components.sizes.push_back(size);
  }
  return components;
}

std::uint64_t Components::giantSize() const noexcept {
  std::uint64_t giant = 0;
  for (std::uint64_t size : sizes) {
    giant = std::max(giant, size);
  }
  return giant;
}

std::vector<std::uint32_t> kCoreDecomposition(const Graph& graph) {
  const std::size_t n = graph.vertexCount();
  std::vector<std::uint32_t> degree(n);
  std::uint32_t maxDegree = 0;
  for (Vertex v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(graph.degree(v));
    maxDegree = std::max(maxDegree, degree[v]);
  }

  // Bucket-sort vertices by current degree (Batagelj-Zaversnik: O(E)).
  std::vector<std::uint32_t> binStart(maxDegree + 2, 0);
  for (Vertex v = 0; v < n; ++v) {
    ++binStart[degree[v] + 1];
  }
  for (std::size_t d = 1; d < binStart.size(); ++d) {
    binStart[d] += binStart[d - 1];
  }
  std::vector<Vertex> order(n);
  std::vector<std::uint32_t> position(n);
  {
    std::vector<std::uint32_t> cursor(binStart.begin(), binStart.end() - 1);
    for (Vertex v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]];
      order[position[v]] = v;
      ++cursor[degree[v]];
    }
  }

  std::vector<std::uint32_t> core(n, 0);
  std::vector<bool> removed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const Vertex v = order[i];
    core[v] = degree[v];
    removed[v] = true;
    for (Vertex neighbor : graph.neighbors(v)) {
      if (removed[neighbor] || degree[neighbor] <= degree[v]) {
        continue;
      }
      // Move `neighbor` one bucket down: swap it with the first vertex of
      // its current bucket, then shrink the bucket boundary.
      const std::uint32_t d = degree[neighbor];
      const std::uint32_t firstPos = binStart[d];
      const Vertex firstVertex = order[firstPos];
      if (firstVertex != neighbor) {
        std::swap(order[firstPos], order[position[neighbor]]);
        std::swap(position[firstVertex], position[neighbor]);
      }
      ++binStart[d];
      --degree[neighbor];
    }
  }
  return core;
}

double meanDegree(const Graph& graph) {
  if (graph.vertexCount() == 0) {
    return 0.0;
  }
  return 2.0 * static_cast<double>(graph.edgeCount()) /
         static_cast<double>(graph.vertexCount());
}

}  // namespace chisimnet::graph
