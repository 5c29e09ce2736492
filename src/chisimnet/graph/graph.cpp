#include "chisimnet/graph/graph.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "chisimnet/util/error.hpp"
#include "chisimnet/util/label_index.hpp"
#include "chisimnet/util/radix_sort.hpp"

namespace chisimnet::graph {

namespace {

/// Checks fromTriplets' input contract (upper-triangular rows in strict
/// (i, j) ascent) and returns the distinct endpoint ids, ascending. The
/// i's arrive ascending, so they dedupe on the fly; only the j's need a
/// sort.
std::vector<std::uint32_t> checkedEndpointIds(
    std::span<const sparse::AdjacencyTriplet> triplets) {
  std::vector<std::uint32_t> rowIds;
  std::vector<std::uint32_t> columnIds;
  columnIds.reserve(triplets.size());
  std::uint64_t previous = 0;  // every valid key is >= 1: j > i >= 0
  for (const sparse::AdjacencyTriplet& triplet : triplets) {
    const std::uint64_t key = sparse::packPair(triplet.i, triplet.j);
    CHISIM_REQUIRE(triplet.i < triplet.j && key > previous,
                   "adjacency triplets must be upper-triangular (i < j) in "
                   "strict (i, j) ascent");
    previous = key;
    if (rowIds.empty() || rowIds.back() != triplet.i) {
      rowIds.push_back(triplet.i);
    }
    columnIds.push_back(triplet.j);
  }
  util::radixSort(columnIds, [](std::uint32_t id) { return id; });
  columnIds.erase(std::unique(columnIds.begin(), columnIds.end()),
                  columnIds.end());
  std::vector<std::uint32_t> ids;
  ids.reserve(rowIds.size() + columnIds.size());
  std::set_union(rowIds.begin(), rowIds.end(), columnIds.begin(),
                 columnIds.end(), std::back_inserter(ids));
  return ids;
}

}  // namespace

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets) {
  return assemble(triplets, checkedEndpointIds(triplets));
}

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                          std::span<const std::uint32_t> vertexLabels) {
  const std::vector<std::uint32_t> endpoints = checkedEndpointIds(triplets);
  std::vector<std::uint32_t> labels(vertexLabels.begin(), vertexLabels.end());
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  CHISIM_REQUIRE(std::includes(labels.begin(), labels.end(), endpoints.begin(),
                               endpoints.end()),
                 "triplet endpoint missing from vertex label universe");
  return assemble(triplets, std::move(labels));
}

Graph Graph::assemble(std::span<const sparse::AdjacencyTriplet> triplets,
                      std::vector<std::uint32_t> labels) {
  Graph graph;
  graph.labels_ = std::move(labels);
  const std::size_t n = graph.labels_.size();
  graph.offsets_.assign(n + 1, 0);
  // Degree pass. Rows arrive in ascending i, so the row vertex advances
  // with a cursor over the labels; columns go through the bucket index
  // once and are kept for the fill pass.
  const util::LabelIndex index(graph.labels_);
  std::vector<Vertex> columns(triplets.size());
  Vertex u = 0;
  for (std::size_t e = 0; e < triplets.size(); ++e) {
    while (graph.labels_[u] != triplets[e].i) {
      ++u;
    }
    columns[e] = index.positionOf(triplets[e].j);
    ++graph.offsets_[u + 1];
    ++graph.offsets_[columns[e] + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) {
    graph.offsets_[v] += graph.offsets_[v - 1];
  }
  // Fill pass. The triplets are in (i, j) order with i < j and labels are
  // monotone, so every row comes out sorted, as in build().
  graph.neighbors_.resize(triplets.size() * 2);
  graph.weights_.resize(triplets.size() * 2);
  std::vector<std::uint64_t> cursor(graph.offsets_.begin(),
                                    graph.offsets_.end() - 1);
  u = 0;
  for (std::size_t e = 0; e < triplets.size(); ++e) {
    while (graph.labels_[u] != triplets[e].i) {
      ++u;
    }
    const Vertex v = columns[e];
    graph.neighbors_[cursor[u]] = v;
    graph.weights_[cursor[u]++] = triplets[e].weight;
    graph.neighbors_[cursor[v]] = u;
    graph.weights_[cursor[v]++] = triplets[e].weight;
  }
  return graph;
}

Graph Graph::fromEdges(std::span<const Edge> edges, Vertex vertexCount) {
  std::vector<std::uint32_t> labels(vertexCount);
  std::iota(labels.begin(), labels.end(), 0u);
  std::vector<Edge> copy(edges.begin(), edges.end());
  for (const Edge& edge : copy) {
    CHISIM_REQUIRE(edge.u < vertexCount && edge.v < vertexCount,
                   "edge endpoint out of range");
    CHISIM_REQUIRE(edge.u != edge.v, "self-loops are not supported");
  }
  return build(std::move(copy), std::move(labels));
}

Graph Graph::build(std::vector<Edge> edges, std::vector<std::uint32_t> labels) {
  // Canonicalize, sort and merge parallel edges.
  for (Edge& edge : edges) {
    if (edge.u > edge.v) {
      std::swap(edge.u, edge.v);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::vector<Edge> merged;
  merged.reserve(edges.size());
  for (const Edge& edge : edges) {
    if (!merged.empty() && merged.back().u == edge.u && merged.back().v == edge.v) {
      merged.back().weight += edge.weight;
    } else {
      merged.push_back(edge);
    }
  }

  Graph graph;
  graph.labels_ = std::move(labels);
  const std::size_t n = graph.labels_.size();
  graph.offsets_.assign(n + 1, 0);
  for (const Edge& edge : merged) {
    ++graph.offsets_[edge.u + 1];
    ++graph.offsets_[edge.v + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) {
    graph.offsets_[v] += graph.offsets_[v - 1];
  }
  graph.neighbors_.resize(merged.size() * 2);
  graph.weights_.resize(merged.size() * 2);
  // `merged` is sorted by (u, v) with u < v, so row x receives its (w, x)
  // entries (w < x, ascending) before its (x, y) entries (y > x,
  // ascending): every row comes out sorted without a per-row sort.
  std::vector<std::uint64_t> cursor(graph.offsets_.begin(),
                                    graph.offsets_.end() - 1);
  for (const Edge& edge : merged) {
    graph.neighbors_[cursor[edge.u]] = edge.v;
    graph.weights_[cursor[edge.u]++] = edge.weight;
    graph.neighbors_[cursor[edge.v]] = edge.u;
    graph.weights_[cursor[edge.v]++] = edge.weight;
  }
  return graph;
}

Weight Graph::totalWeight() const noexcept {
  Weight doubled = 0;
  for (Weight weight : weights_) {
    doubled += weight;
  }
  return doubled / 2;
}

bool Graph::hasEdge(Vertex u, Vertex v) const noexcept {
  if (u >= vertexCount() || v >= vertexCount()) {
    return false;
  }
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

Weight Graph::weightBetween(Vertex u, Vertex v) const noexcept {
  if (u >= vertexCount() || v >= vertexCount()) {
    return 0;
  }
  const auto row = neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) {
    return 0;
  }
  return edgeWeights(u)[static_cast<std::size_t>(it - row.begin())];
}

std::optional<Vertex> Graph::vertexForLabel(std::uint32_t label) const noexcept {
  const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
  if (it == labels_.end() || *it != label) {
    return std::nullopt;
  }
  return static_cast<Vertex>(it - labels_.begin());
}

std::size_t Graph::memoryBytes() const noexcept {
  return offsets_.size() * sizeof(std::uint64_t) +
         neighbors_.size() * sizeof(Vertex) + weights_.size() * sizeof(Weight) +
         labels_.size() * sizeof(std::uint32_t);
}

}  // namespace chisimnet::graph
