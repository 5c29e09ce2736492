#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "chisimnet/util/error.hpp"

/// Maps ids back to their positions in a sorted, distinct id list without a
/// table sized by the ids: the sorted labels are bucketed on `id >> shift`,
/// with the shift chosen so there are at most 2V buckets (2V+1 bucket
/// starts). Dense ids get one label per bucket; a skewed id set degrades to
/// a binary search within a bucket, never to an allocation in the id range.
///
/// The CSR build (graph::Graph) maps triplet endpoints to vertices with it,
/// and the place index (table::EventTable::buildPlaceIndex) maps each row's
/// place id to its group.

namespace chisimnet::util {

class LabelIndex {
 public:
  /// `labels` must be strictly ascending and outlive the index.
  explicit LabelIndex(std::span<const std::uint32_t> labels) : labels_(labels) {
    if (labels.empty()) {
      return;
    }
    CHISIM_REQUIRE(labels.size() <= UINT32_MAX,
                   "label index holds at most 2^32 - 1 labels");
    const std::uint64_t limit = 2 * static_cast<std::uint64_t>(labels.size());
    while ((static_cast<std::uint64_t>(labels.back()) >> shift_) >= limit) {
      ++shift_;
    }
    const std::size_t buckets = (labels.back() >> shift_) + 1;
    starts_.assign(buckets + 1, 0);
    for (const std::uint32_t label : labels) {
      ++starts_[(label >> shift_) + 1];
    }
    for (std::size_t b = 1; b <= buckets; ++b) {
      starts_[b] += starts_[b - 1];
    }
  }

  /// The position of `id`, which must be one of the labels.
  std::uint32_t positionOf(std::uint32_t id) const noexcept {
    const std::size_t bucket = id >> shift_;
    const auto first = labels_.begin() + starts_[bucket];
    const auto last = labels_.begin() + starts_[bucket + 1];
    return static_cast<std::uint32_t>(std::lower_bound(first, last, id) -
                                      labels_.begin());
  }

 private:
  std::span<const std::uint32_t> labels_;
  std::vector<std::uint32_t> starts_;  ///< bucket b holds labels[starts_[b], starts_[b+1])
  unsigned shift_ = 0;
};

}  // namespace chisimnet::util
