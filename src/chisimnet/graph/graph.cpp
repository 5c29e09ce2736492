#include "chisimnet/graph/graph.hpp"

#include <algorithm>
#include <numeric>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/label_index.hpp"
#include "chisimnet/util/radix_sort.hpp"

namespace chisimnet::graph {

namespace {

/// Below this many edges per thread, starting threads costs more than the
/// work they share.
constexpr std::size_t kMinEdgesPerThread = 1024;

unsigned workersFor(std::size_t edges, unsigned threads) {
  return static_cast<unsigned>(std::clamp<std::size_t>(
      edges / kMinEdgesPerThread, 1, std::max(1u, threads)));
}

/// Checks fromTriplets' input contract (upper-triangular rows in strict
/// (i, j) ascent) and returns the distinct endpoint ids, ascending. Each
/// edge chunk checks its rows against their predecessors (its first row
/// against the last row of the chunk before it), dedupes its i's on the
/// fly (they arrive ascending) and sorts and dedupes its j's, in its own
/// range of buffers sized here, so the threads allocate nothing. The
/// chunks' id lists, none longer than the vertex count, are joined by one
/// more sort.
std::vector<std::uint32_t> checkedEndpointIds(
    std::span<const sparse::AdjacencyTriplet> triplets, unsigned threads) {
  const std::size_t m = triplets.size();
  const unsigned chunks = workersFor(m, threads);
  const auto first = [m, chunks](std::size_t chunk) {
    return m * chunk / chunks;
  };
  util::DefaultInitVector<std::uint32_t> rowIds(m);
  util::DefaultInitVector<std::uint32_t> columnIds(m);
  util::DefaultInitVector<std::uint32_t> scratch(m);
  std::vector<std::size_t> rowCount(chunks, 0);
  std::vector<std::size_t> columnCount(chunks, 0);
  runtime::parallelFor(chunks, chunks, [&](std::uint64_t chunk) {
    const std::size_t begin = first(chunk);
    const std::size_t end = first(chunk + 1);
    std::size_t rows = 0;
    // Every valid key is >= 1 (j > i >= 0), so 0 precedes row 0.
    std::uint64_t previous =
        begin == 0 ? 0
                   : sparse::packPair(triplets[begin - 1].i,
                                      triplets[begin - 1].j);
    for (std::size_t e = begin; e < end; ++e) {
      const sparse::AdjacencyTriplet& triplet = triplets[e];
      const std::uint64_t key = sparse::packPair(triplet.i, triplet.j);
      CHISIM_REQUIRE(triplet.i < triplet.j && key > previous,
                     "adjacency triplets must be upper-triangular (i < j) in "
                     "strict (i, j) ascent");
      previous = key;
      if (rows == 0 || rowIds[begin + rows - 1] != triplet.i) {
        rowIds[begin + rows++] = triplet.i;
      }
      columnIds[e] = triplet.j;
    }
    const std::span<std::uint32_t> columns =
        std::span(columnIds).subspan(begin, end - begin);
    util::radixSort(columns, std::span(scratch).subspan(begin, end - begin),
                    [](std::uint32_t id) { return id; });
    rowCount[chunk] = rows;
    columnCount[chunk] = static_cast<std::size_t>(
        std::unique(columns.begin(), columns.end()) - columns.begin());
  });
  // Gather the lists into `scratch` and sort them there, with `rowIds` as
  // the second buffer once its lists are copied out. Together they can
  // outgrow m only on graphs with about as many vertices as edges.
  const std::size_t total =
      std::accumulate(rowCount.begin(), rowCount.end(), std::size_t{0}) +
      std::accumulate(columnCount.begin(), columnCount.end(), std::size_t{0});
  if (total > m) {
    scratch.resize(total);
  }
  auto gathered = scratch.begin();
  for (unsigned chunk = 0; chunk < chunks; ++chunk) {
    const auto rows = rowIds.begin() + static_cast<std::ptrdiff_t>(first(chunk));
    const auto columns =
        columnIds.begin() + static_cast<std::ptrdiff_t>(first(chunk));
    gathered = std::copy(rows, rows + static_cast<std::ptrdiff_t>(rowCount[chunk]),
                         gathered);
    gathered = std::copy(
        columns, columns + static_cast<std::ptrdiff_t>(columnCount[chunk]),
        gathered);
  }
  rowIds.resize(std::max(m, total));
  const std::span<std::uint32_t> all = std::span(scratch).first(total);
  util::radixSort(all, std::span(rowIds).first(total),
                  [](std::uint32_t id) { return id; });
  return {all.begin(), std::unique(all.begin(), all.end())};
}

}  // namespace

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                          unsigned threads) {
  return assemble(triplets, checkedEndpointIds(triplets, threads), threads);
}

Graph Graph::fromTriplets(std::span<const sparse::AdjacencyTriplet> triplets,
                          std::span<const std::uint32_t> vertexLabels,
                          unsigned threads) {
  const std::vector<std::uint32_t> endpoints =
      checkedEndpointIds(triplets, threads);
  std::vector<std::uint32_t> labels(vertexLabels.begin(), vertexLabels.end());
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  CHISIM_REQUIRE(std::includes(labels.begin(), labels.end(), endpoints.begin(),
                               endpoints.end()),
                 "triplet endpoint missing from vertex label universe");
  return assemble(triplets, std::move(labels), threads);
}

Graph Graph::assemble(std::span<const sparse::AdjacencyTriplet> triplets,
                      std::vector<std::uint32_t> labels, unsigned threads) {
  Graph graph;
  graph.labels_ = std::move(labels);
  const std::size_t n = graph.labels_.size();
  const std::size_t m = triplets.size();
  const unsigned workers = workersFor(m, threads);
  const std::vector<std::uint32_t>& ids = graph.labels_;
  const util::LabelIndex index(ids);

  // Pass 1, over edge chunks that start on row boundaries: each edge's
  // column vertex, and each row's edge count. Rows arrive in ascending i
  // (labels are monotone), so a chunk finds its first row once and then
  // advances a cursor. rowEdges[u] becomes the first edge of row u, so row
  // u's edges are [rowEdges[u], rowEdges[u + 1]) with ascending columns.
  util::DefaultInitVector<Vertex> columns(m);
  std::vector<std::uint64_t> rowEdges(n + 1, 0);
  const auto chunkStart = [&](std::uint64_t chunk) {
    std::size_t e = static_cast<std::size_t>(m * chunk / workers);
    while (e > 0 && e < m && triplets[e].i == triplets[e - 1].i) {
      ++e;
    }
    return e;
  };
  runtime::parallelFor(workers, workers, [&](std::uint64_t chunk) {
    const std::size_t end = chunkStart(chunk + 1);
    std::size_t e = chunkStart(chunk);
    if (e >= end) {
      return;
    }
    Vertex u = index.positionOf(triplets[e].i);
    for (; e < end; ++e) {
      while (ids[u] != triplets[e].i) {
        ++u;
      }
      columns[e] = index.positionOf(triplets[e].j);
      ++rowEdges[u + 1];
    }
  });
  for (std::size_t u = 1; u <= n; ++u) {
    rowEdges[u] += rowEdges[u - 1];
  }

  // The part of row u whose columns fall in [first, last): contiguous,
  // since a row's columns ascend.
  const auto columnsIn = [&](std::size_t u, std::size_t first,
                             std::size_t last) {
    const auto rowBegin = columns.begin() + static_cast<std::ptrdiff_t>(rowEdges[u]);
    const auto rowEnd = columns.begin() + static_cast<std::ptrdiff_t>(rowEdges[u + 1]);
    const auto low = std::lower_bound(rowBegin, rowEnd, first);
    const auto high = std::lower_bound(low, rowEnd, last);
    return std::pair{static_cast<std::size_t>(low - columns.begin()),
                     static_cast<std::size_t>(high - columns.begin())};
  };

  // Pass 2, owner threads over equal vertex ranges: degree(v) is v's row
  // edges plus the edges (w, v), w < v, which sit in rows w < v.
  graph.offsets_.assign(n + 1, 0);
  runtime::parallelFor(workers, workers, [&](std::uint64_t owner) {
    const std::size_t first = n * owner / workers;
    const std::size_t last = n * (owner + 1) / workers;
    for (std::size_t w = 0; w < last; ++w) {
      const auto [low, high] = columnsIn(w, first, last);
      for (std::size_t e = low; e < high; ++e) {
        ++graph.offsets_[columns[e] + 1];
      }
    }
    for (std::size_t v = first; v < last; ++v) {
      graph.offsets_[v + 1] += rowEdges[v + 1] - rowEdges[v];
    }
  });
  for (std::size_t v = 1; v <= n; ++v) {
    graph.offsets_[v] += graph.offsets_[v - 1];
  }

  // Pass 3, owner threads over vertex ranges holding equal shares of the
  // 2m entries: each owner writes only its own rows. Row v gets its edges
  // (w, v) in ascending w, then its own row in ascending column — sorted,
  // exactly as a serial fill in (i, j) order leaves it. offsets_[v] is row
  // v's write cursor meanwhile, which leaves it at the start of row v + 1;
  // one shift restores the offsets.
  graph.neighbors_.resize(m * 2);
  graph.weights_.resize(m * 2);
  std::vector<std::size_t> ownerFirst(workers + 1, n);
  for (unsigned owner = 0; owner < workers; ++owner) {
    ownerFirst[owner] = static_cast<std::size_t>(
        std::lower_bound(graph.offsets_.begin(),
                         graph.offsets_.begin() + static_cast<std::ptrdiff_t>(n),
                         2 * m * owner / workers) -
        graph.offsets_.begin());
  }
  runtime::parallelFor(workers, workers, [&](std::uint64_t owner) {
    const std::size_t first = ownerFirst[owner];
    const std::size_t last = ownerFirst[owner + 1];
    for (std::size_t w = 0; w < last; ++w) {
      const auto [low, high] = columnsIn(w, first, last);
      for (std::size_t e = low; e < high; ++e) {
        const std::uint64_t slot = graph.offsets_[columns[e]]++;
        graph.neighbors_[slot] = static_cast<Vertex>(w);
        graph.weights_[slot] = triplets[e].weight;
      }
      if (w >= first) {
        // Every (u, w) entry is in: rows u < w came first.
        std::uint64_t& slot = graph.offsets_[w];
        for (std::uint64_t e = rowEdges[w]; e < rowEdges[w + 1]; ++e) {
          graph.neighbors_[slot] = columns[e];
          graph.weights_[slot++] = triplets[e].weight;
        }
      }
    }
  });
  for (std::size_t v = n; v > 0; --v) {
    graph.offsets_[v] = graph.offsets_[v - 1];
  }
  graph.offsets_[0] = 0;
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
