#include "chisimnet/sparse/adjacency.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/sparse/local_kernel.hpp"
#include "chisimnet/util/default_init_vector.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/radix_sort.hpp"

namespace chisimnet::sparse {

void SymmetricAdjacency::add(std::uint32_t i, std::uint32_t j,
                             std::uint64_t weight) {
  CHISIM_REQUIRE(i != j, "self-collocation is not an edge");
  if (weight == 0) {
    return;
  }
  pairs_.add(packPair(i, j), weight);
}

std::uint64_t SymmetricAdjacency::weight(std::uint32_t i,
                                         std::uint32_t j) const noexcept {
  if (i == j) {
    return 0;
  }
  return pairs_.get(packPair(i, j));
}

namespace detail {

ColumnIndex buildColumnIndex(const CollocationMatrix& matrix) {
  ColumnIndex index;
  const std::size_t personCount = matrix.personCount();
  index.offsets.assign(matrix.sliceHours() + 1, 0);
  for (std::size_t row = 0; row < personCount; ++row) {
    for (std::uint32_t hour : matrix.hoursAt(row)) {
      ++index.offsets[hour + 1];
    }
  }
  for (std::size_t h = 1; h < index.offsets.size(); ++h) {
    const std::uint64_t columnSize = index.offsets[h];
    index.pairHours += columnSize * (columnSize - 1) / 2;
    index.offsets[h] += index.offsets[h - 1];
  }
  index.rows.resize(matrix.nnz());
  std::vector<std::uint64_t> cursor(index.offsets.begin(),
                                    index.offsets.end() - 1);
  for (std::size_t row = 0; row < personCount; ++row) {
    for (std::uint32_t hour : matrix.hoursAt(row)) {
      index.rows[cursor[hour]++] = static_cast<std::uint32_t>(row);
    }
  }
  return index;
}

std::vector<std::uint32_t>& denseScratch(std::uint64_t pairSlots) {
  // One per thread, shared by every emit target, persisting across places.
  thread_local std::vector<std::uint32_t> scratch;
  if (scratch.size() < pairSlots) {
    scratch.assign(static_cast<std::size_t>(pairSlots), 0);
  }
  return scratch;
}

}  // namespace detail

void SymmetricAdjacency::addCollocation(const CollocationMatrix& matrix) {
  detail::addViaLocalAccumulate(
      matrix, kernelStats_,
      [this](std::uint64_t key, std::uint64_t count) { pairs_.add(key, count); });
}

std::vector<AdjacencyTriplet> SymmetricAdjacency::toTriplets(
    unsigned threads) const {
  const auto packedKey = [](const AdjacencyTriplet& triplet) {
    return packPair(triplet.i, triplet.j);
  };
  if (threads <= 1) {
    std::vector<AdjacencyTriplet> triplets;
    triplets.reserve(pairs_.size());
    pairs_.forEach([&triplets](std::uint64_t key, std::uint64_t count) {
      triplets.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), count});
    });
    // Keys are unique, so sorting by the packed key is the (i, j) order.
    util::radixSort(triplets, packedKey);
    return triplets;
  }
  // Each thread walks one contiguous slot range (chunk) three times: for
  // the highest row, for its per-bucket counts and to scatter. Bucket b
  // holds rows [b << shift, (b + 1) << shift), so sorting every bucket
  // sorts the whole run.
  const std::size_t slots = pairs_.slotCount();
  const auto slotBegin = [slots, threads](std::uint64_t chunk) {
    return static_cast<std::size_t>(slots * chunk / threads);
  };
  std::vector<std::uint64_t> highestRow(threads, 0);
  runtime::parallelFor(threads, threads, [&](std::uint64_t chunk) {
    std::uint64_t highest = 0;
    pairs_.forEachInSlots(slotBegin(chunk), slotBegin(chunk + 1),
                          [&highest](std::uint64_t key, std::uint64_t) {
                            highest = std::max<std::uint64_t>(highest,
                                                              pairLow(key));
                          });
    highestRow[chunk] = highest;
  });
  // Eight buckets per thread: rows low in the id range hold more pairs
  // (j > i), so dynamic scheduling over smaller buckets levels the sorts.
  const std::uint64_t top =
      *std::max_element(highestRow.begin(), highestRow.end());
  unsigned shift = 0;
  while ((top >> shift) >= std::uint64_t{8} * threads) {
    ++shift;
  }
  const std::size_t buckets = static_cast<std::size_t>(top >> shift) + 1;
  // cursors[chunk * buckets + b]: first the chunk's count in bucket b, then
  // where its next entry of bucket b goes (buckets in order, chunks in
  // order within a bucket).
  std::vector<std::size_t> cursors(threads * buckets, 0);
  runtime::parallelFor(threads, threads, [&](std::uint64_t chunk) {
    std::size_t* counts = cursors.data() + chunk * buckets;
    pairs_.forEachInSlots(slotBegin(chunk), slotBegin(chunk + 1),
                          [&](std::uint64_t key, std::uint64_t) {
                            ++counts[pairLow(key) >> shift];
                          });
  });
  std::vector<std::size_t> bucketStart(buckets + 1, 0);
  std::size_t placed = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    bucketStart[b] = placed;
    for (std::size_t chunk = 0; chunk < threads; ++chunk) {
      const std::size_t count = cursors[chunk * buckets + b];
      cursors[chunk * buckets + b] = placed;
      placed += count;
    }
  }
  bucketStart[buckets] = placed;
  std::vector<AdjacencyTriplet> triplets(placed);
  runtime::parallelFor(threads, threads, [&](std::uint64_t chunk) {
    std::size_t* cursor = cursors.data() + chunk * buckets;
    pairs_.forEachInSlots(
        slotBegin(chunk), slotBegin(chunk + 1),
        [&](std::uint64_t key, std::uint64_t count) {
          triplets[cursor[pairLow(key) >> shift]++] =
              AdjacencyTriplet{pairLow(key), pairHigh(key), count};
        });
  });
  // One scratch span per thread, as long as the largest bucket, allocated
  // here so no memory is left behind in the threads' malloc arenas.
  std::size_t largest = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    largest = std::max(largest, bucketStart[b + 1] - bucketStart[b]);
  }
  util::DefaultInitVector<AdjacencyTriplet> scratch(largest * threads);
  runtime::parallelFor(
      buckets, threads, [&](std::uint64_t b, unsigned worker) {
        util::radixSort(
            std::span(triplets).subspan(bucketStart[b],
                                        bucketStart[b + 1] - bucketStart[b]),
            std::span(scratch).subspan(largest * worker, largest), packedKey);
      });
  return triplets;
}

namespace {

/// Exhausted-leaf sentinel. Real packed keys satisfy i < j, so the key of a
/// legitimate triplet is at most ((2^32-2) << 32) | (2^32-1) < ~0.
constexpr std::uint64_t kExhaustedKey = ~std::uint64_t{0};

}  // namespace

TripletMerger::TripletMerger(std::vector<TripletSource*> sources)
    : sources_(std::move(sources)) {
  start(sources_.size());
}

TripletMerger::TripletMerger(
    std::vector<std::unique_ptr<TripletSource>> sources)
    : owned_(std::move(sources)) {
  sources_.reserve(owned_.size());
  for (const std::unique_ptr<TripletSource>& source : owned_) {
    sources_.push_back(source.get());
  }
  start(sources_.size());
}

void TripletMerger::start(std::size_t sourceCount) {
  if (sourceCount == 0) {
    leafCount_ = 0;
    return;
  }
  leafCount_ = std::bit_ceil(sourceCount);
  heads_.resize(leafCount_);
  keys_.assign(leafCount_, kExhaustedKey);
  for (std::size_t leaf = 0; leaf < sourceCount; ++leaf) {
    if (sources_[leaf]->next(heads_[leaf])) {
      keys_[leaf] = packPair(heads_[leaf].i, heads_[leaf].j);
    }
  }
  // Initial tournament, bottom-up: internal node n holds the LOSER of the
  // match between its subtrees; the winner carries upward. Leaf `l` sits at
  // tree position leafCount_ + l; internal nodes are 1..leafCount_-1.
  losers_.assign(leafCount_, 0);
  std::vector<std::size_t> winners(2 * leafCount_);
  for (std::size_t leaf = 0; leaf < leafCount_; ++leaf) {
    winners[leafCount_ + leaf] = leaf;
  }
  for (std::size_t node = leafCount_ - 1; node >= 1; --node) {
    const std::size_t a = winners[2 * node];
    const std::size_t b = winners[2 * node + 1];
    if (keyOf(a) <= keyOf(b)) {
      winners[node] = a;
      losers_[node] = b;
    } else {
      winners[node] = b;
      losers_[node] = a;
    }
  }
  winner_ = winners[1];
}

void TripletMerger::advance(std::size_t leaf) {
  const std::uint64_t previous = keys_[leaf];
  if (sources_[leaf]->next(heads_[leaf])) {
    keys_[leaf] = packPair(heads_[leaf].i, heads_[leaf].j);
    CHISIM_CHECK(keys_[leaf] > previous,
                 "merge source is not strictly key-ascending (corrupt or "
                 "unsorted run)");
  } else {
    keys_[leaf] = kExhaustedKey;
  }
}

void TripletMerger::replay(std::size_t leaf) {
  // Replay the matches on the path from `leaf` to the root: at each node
  // the stored loser challenges the carried winner.
  std::size_t current = leaf;
  for (std::size_t node = (leafCount_ + leaf) / 2; node >= 1; node /= 2) {
    if (keyOf(losers_[node]) < keyOf(current)) {
      std::swap(losers_[node], current);
    }
  }
  winner_ = current;
}

bool TripletMerger::next(AdjacencyTriplet& out) {
  if (leafCount_ == 0 || keys_[winner_] == kExhaustedKey) {
    return false;
  }
  const std::uint64_t key = keys_[winner_];
  out = heads_[winner_];
  advance(winner_);
  replay(winner_);
  // Sources are strictly ascending individually, so every further head with
  // the same key is a duplicate pair from another source: sum it in.
  while (keys_[winner_] == key) {
    out.weight += heads_[winner_].weight;
    advance(winner_);
    replay(winner_);
  }
  return true;
}

std::vector<AdjacencyTriplet> mergeKSortedTriplets(
    std::span<const std::span<const AdjacencyTriplet>> runs) {
  std::vector<SpanTripletSource> spanSources;
  spanSources.reserve(runs.size());
  std::size_t total = 0;
  for (const std::span<const AdjacencyTriplet> run : runs) {
    spanSources.emplace_back(run);
    total += run.size();
  }
  std::vector<TripletSource*> sources;
  sources.reserve(spanSources.size());
  for (SpanTripletSource& source : spanSources) {
    sources.push_back(&source);
  }
  TripletMerger merger(std::move(sources));
  std::vector<AdjacencyTriplet> merged;
  merged.reserve(total);
  AdjacencyTriplet triplet;
  while (merger.next(triplet)) {
    merged.push_back(triplet);
  }
  return merged;
}

SymmetricAdjacency adjacencyFromCollocations(
    std::span<const CollocationMatrix> matrices) {
  std::uint64_t expected = 0;
  for (const CollocationMatrix& matrix : matrices) {
    expected += matrix.nnz();
  }
  SymmetricAdjacency adjacency(static_cast<std::size_t>(expected));
  for (const CollocationMatrix& matrix : matrices) {
    adjacency.addCollocation(matrix);
  }
  return adjacency;
}

SymmetricAdjacency spGemmAdjacency(const CollocationMatrix& matrix) {
  SymmetricAdjacency adjacency(matrix.nnz());
  if (matrix.personCount() < 2) {
    return adjacency;
  }
  const detail::ColumnIndex index = detail::buildColumnIndex(matrix);
  for (std::uint32_t hour = 0; hour < matrix.sliceHours(); ++hour) {
    const std::uint64_t begin = index.offsets[hour];
    const std::uint64_t end = index.offsets[hour + 1];
    for (std::uint64_t a = begin; a < end; ++a) {
      const table::PersonId personA = matrix.personAt(index.rows[a]);
      for (std::uint64_t b = a + 1; b < end; ++b) {
        adjacency.add(personA, matrix.personAt(index.rows[b]), 1);
      }
    }
  }
  return adjacency;
}

}  // namespace chisimnet::sparse
