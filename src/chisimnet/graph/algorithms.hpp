#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chisimnet/graph/graph.hpp"

/// Graph analyses used in the paper's §V: degree sequences (Figs 3, 5),
/// local clustering coefficients (Fig 4), radius-limited ego networks and
/// induced subgraphs (Figs 1, 2), plus connected components.

namespace chisimnet::graph {

/// degrees()[v] is the (unweighted) vertex degree of v.
std::vector<std::uint64_t> degreeSequence(const Graph& graph);

/// The three triangle analyses below share one kernel: edges oriented by
/// (degree, id) rank, each triangle found once with a per-thread marker
/// array, and exact integer corner counts per vertex. They run on
/// std::thread::hardware_concurrency() threads; the counts are summed as
/// integers, so the output does not depend on the thread count.

/// Local clustering coefficient per vertex: the ratio of closed triangles
/// to connected triples centered on the vertex (Wasserman & Faust), i.e.
/// triangles(v) / (d(d-1)/2) with an exact triangle count. By convention
/// vertices with degree < 2 get coefficient 0.
std::vector<double> localClusteringCoefficients(const Graph& graph);

/// Global transitivity: 3 x triangleCount / connected triples over the
/// whole graph (0 for triple-free graphs).
double globalTransitivity(const Graph& graph);

/// Exact total number of triangles in the graph.
std::uint64_t triangleCount(const Graph& graph);

/// All vertices within `radius` hops of `source` (including the source),
/// sorted ascending. Radius 0 yields just the source.
std::vector<Vertex> verticesWithinRadius(const Graph& graph, Vertex source,
                                         unsigned radius);

/// Induced subgraph over `vertices` (need not be sorted; duplicates
/// ignored). All edges between selected vertices are preserved, as are
/// their weights; subgraph labels are the parent graph's labels, so results
/// can still be joined back to person ids.
Graph inducedSubgraph(const Graph& graph, std::span<const Vertex> vertices);

/// Ego network: the induced subgraph on all vertices within `radius` of
/// `source` — the V = V1 ∪ V2 construction of paper §V.A for radius 2.
Graph egoNetwork(const Graph& graph, Vertex source, unsigned radius);

struct Components {
  std::vector<std::uint32_t> componentOf;  ///< per-vertex component id
  std::vector<std::uint64_t> sizes;        ///< per-component vertex count

  std::size_t count() const noexcept { return sizes.size(); }
  std::uint64_t giantSize() const noexcept;
};

/// Connected components via BFS.
Components connectedComponents(const Graph& graph);

/// k-core decomposition (Batagelj-Zaversnik peeling): coreOf[v] is the
/// largest k such that v belongs to a subgraph where every vertex has
/// degree >= k. A macro-structure summary complementing the degree
/// distribution: congregate places show up as deep cores.
std::vector<std::uint32_t> kCoreDecomposition(const Graph& graph);

/// Mean unweighted degree (0 for the empty graph).
double meanDegree(const Graph& graph);

}  // namespace chisimnet::graph
