#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/util/default_init_vector.hpp"

/// Undirected weighted graph in CSR form (the iGraph substitute).
///
/// The collocation network is built from the sparse triangular adjacency
/// matrix (paper §IV-V): vertices are persons, edge weights are collocated
/// person-hours. Vertex ids are compacted to [0, n); the original person ids
/// are retained as labels so analyses can join back to demographic data.
/// Neighbor lists are sorted by vertex id without a per-row sort: the
/// sort-and-merge build fills rows in (i, j) edge order, and the triplet
/// build's owner threads fill each row with its lower neighbours in
/// ascending order, then its own ascending row;
/// hasEdge/weightBetween binary-search a row and subgraph extraction relies
/// on it. The triangle kernel behind the clustering analyses does not: it
/// builds its own rank-oriented lists.

namespace chisimnet::graph {

using Vertex = std::uint32_t;
using Weight = std::uint64_t;

struct Edge {
  Vertex u = 0;
  Vertex v = 0;
  Weight weight = 1;
};

class Graph {
 public:
  Graph() = default;

  /// Builds from upper-triangular adjacency triplets; vertex labels are the
  /// person ids appearing in the triplets, compacted in ascending order.
  /// Contract: triplets are in strict (i, j) ascent with i < j, exactly as
  /// SymmetricAdjacency::toTriplets and sparse::loadTriplets deliver them;
  /// anything else (unsorted, duplicate or i >= j rows) throws
  /// std::invalid_argument. That makes the build linear: no sort of the
  /// edges, no merge copy, and an id-to-vertex index bounded by the vertex
  /// count, never by the id values. The CSR fill runs on up to `threads`
  /// threads (fewer on small inputs); the graph is the same for any count.
  static Graph fromTriplets(
      std::span<const sparse::AdjacencyTriplet> triplets,
      unsigned threads = std::thread::hardware_concurrency());

  /// Same, but over an explicit vertex universe: `vertexLabels` lists every
  /// vertex (by original id) that must exist, including isolated ones, in
  /// any order; every triplet endpoint must be in the list
  /// (std::invalid_argument otherwise).
  static Graph fromTriplets(
      std::span<const sparse::AdjacencyTriplet> triplets,
      std::span<const std::uint32_t> vertexLabels,
      unsigned threads = std::thread::hardware_concurrency());

  /// Builds from explicit edges over compact vertex ids [0, vertexCount),
  /// in any order. Parallel edges are merged by summing weights; self-loops
  /// are rejected. This sort-and-merge path serves generators and tests.
  static Graph fromEdges(std::span<const Edge> edges, Vertex vertexCount);

  Vertex vertexCount() const noexcept {
    return static_cast<Vertex>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  std::uint64_t edgeCount() const noexcept { return neighbors_.size() / 2; }

  std::span<const Vertex> neighbors(Vertex v) const {
    return {neighbors_.data() + offsets_[v], neighbors_.data() + offsets_[v + 1]};
  }
  std::span<const Weight> edgeWeights(Vertex v) const {
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  std::uint64_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Sum of all edge weights (each undirected edge counted once).
  Weight totalWeight() const noexcept;

  bool hasEdge(Vertex u, Vertex v) const noexcept;

  /// Weight of edge (u, v), or 0 when absent.
  Weight weightBetween(Vertex u, Vertex v) const noexcept;

  /// Original id (e.g. person id) of compact vertex v.
  std::uint32_t label(Vertex v) const { return labels_[v]; }
  std::span<const std::uint32_t> labels() const noexcept { return labels_; }

  /// Compact vertex for an original id, if present.
  std::optional<Vertex> vertexForLabel(std::uint32_t label) const noexcept;

  /// Approximate heap bytes of the CSR storage.
  std::size_t memoryBytes() const noexcept;

 private:
  static Graph build(std::vector<Edge> edges, std::vector<std::uint32_t> labels);
  /// The linear CSR fill behind fromTriplets: `triplets` already checked,
  /// `labels` sorted, unique and covering every endpoint. Edge chunks map
  /// columns to vertices, then owner threads over vertex ranges count
  /// degrees and fill their own rows.
  static Graph assemble(std::span<const sparse::AdjacencyTriplet> triplets,
                        std::vector<std::uint32_t> labels, unsigned threads);

  std::vector<std::uint64_t> offsets_;  ///< size n+1
  /// Both directions, sorted per row. Every slot is written by the fill,
  /// so the buffers are sized without zeroing them first.
  util::DefaultInitVector<Vertex> neighbors_;
  util::DefaultInitVector<Weight> weights_;
  std::vector<std::uint32_t> labels_;   ///< compact vertex -> original id (sorted)
};

}  // namespace chisimnet::graph
