#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "chisimnet/util/error.hpp"

/// LSD radix sort on an unsigned integer key, one byte per pass.
///
/// The CADJ writer sorts the accumulator's packed (i, j) keys with it and
/// the CSR build sorts endpoint ids. Both key sets are much narrower than
/// their type (person ids use the low 17–22 bits of a u32), so one
/// histogram pass counts every byte position up front and any position
/// that is constant across all keys costs no pass at all. Stable, so a
/// byte pass never disturbs the order the earlier passes established.
/// Stage-5 sums sort their pair buffers with radixSortInPlace, which
/// needs a scratch of one bucket instead of one of the whole buffer.

namespace chisimnet::util {

namespace detail {

/// Sorts `items` by ping-ponging between it and the buffer `scratchFor()`
/// returns (room for items.size(); asked for once, on the first pass that
/// is not skipped). Returns true when the sorted items ended in scratch.
template <typename T, typename KeyFn, typename ScratchFn>
bool radixSortPasses(std::span<T> items, KeyFn& keyOf, ScratchFn&& scratchFor) {
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  static_assert(std::is_unsigned_v<Key>, "radix key must be unsigned");
  constexpr std::size_t kBytes = sizeof(Key);
  const std::size_t n = items.size();
  if (n < 2) {
    return false;
  }
  std::array<std::array<std::size_t, 256>, kBytes> counts{};
  for (const T& item : items) {
    const Key key = keyOf(item);
    for (std::size_t b = 0; b < kBytes; ++b) {
      ++counts[b][(key >> (8 * b)) & 0xFF];
    }
  }
  T* from = items.data();
  T* to = nullptr;
  bool inScratch = false;
  for (std::size_t b = 0; b < kBytes; ++b) {
    std::array<std::size_t, 256>& next = counts[b];
    // Every key shares this byte: the pass would be the identity.
    if (next[(keyOf(items.front()) >> (8 * b)) & 0xFF] == n) {
      continue;
    }
    std::size_t sum = 0;
    for (std::size_t& slot : next) {
      const std::size_t count = slot;
      slot = sum;
      sum += count;
    }
    if (to == nullptr) {
      to = scratchFor();
    }
    for (std::size_t k = 0; k < n; ++k) {
      to[next[(keyOf(from[k]) >> (8 * b)) & 0xFF]++] = from[k];
    }
    std::swap(from, to);
    inScratch = !inScratch;
  }
  return inScratch;
}

}  // namespace detail

/// Sorts `items` ascending by `keyOf(item)`, an unsigned integer.
template <typename T, typename KeyFn>
void radixSort(std::vector<T>& items, KeyFn keyOf) {
  std::vector<T> scratch;
  if (detail::radixSortPasses(std::span<T>(items), keyOf, [&] {
        scratch.resize(items.size());
        return scratch.data();
      })) {
    items.swap(scratch);
  }
}

/// Sorts the span in place, with `scratch` (at least as long as `items`;
/// its contents are overwritten) for the passes. Callers sorting many
/// spans on one thread, or sizing buffers before threads start, pass one
/// buffer for all of them.
template <typename T, typename KeyFn>
void radixSort(std::span<T> items, std::span<T> scratch, KeyFn keyOf) {
  CHISIM_REQUIRE(scratch.size() >= items.size(),
                 "radix sort scratch is shorter than the items");
  if (detail::radixSortPasses(items, keyOf, [&] { return scratch.data(); })) {
    std::copy(scratch.begin(),
              scratch.begin() + static_cast<std::ptrdiff_t>(items.size()),
              items.begin());
  }
}

/// Spans up to this long skip radixSortInPlace's bucketing pass: their
/// scratch is small anyway.
inline constexpr std::size_t kInPlaceMinItems = std::size_t{1} << 16;

/// Sorts `items` by `keyOf(item)` with a scratch far smaller than the
/// items: one in-place MSD pass (American flag sort) on the highest eight
/// bits where the keys differ deals them into 256 buckets, then the LSD
/// passes sort each bucket through `scratch`, grown to the largest bucket,
/// in cache. Not stable: for items whose equal keys are interchangeable.
template <typename T, typename Alloc, typename KeyFn>
void radixSortInPlace(std::span<T> items, std::vector<T, Alloc>& scratch,
                      KeyFn keyOf) {
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  const std::size_t n = items.size();
  if (n <= kInPlaceMinItems) {
    scratch.resize(std::max(scratch.size(), n));
    radixSort(items, std::span<T>(scratch), keyOf);
    return;
  }
  const Key first = keyOf(items.front());
  Key differ = 0;
  for (const T& item : items) {
    differ |= keyOf(item) ^ first;
  }
  if (differ == 0) {
    return;
  }
  const int top = std::bit_width(differ) - 1;
  const int shift = std::max(top - 7, 0);
  const auto bucketOf = [&keyOf, shift](const T& item) {
    return static_cast<std::size_t>((keyOf(item) >> shift) & 0xFF);
  };
  std::array<std::size_t, 257> start{};
  for (const T& item : items) {
    ++start[bucketOf(item) + 1];
  }
  for (std::size_t b = 0; b < 256; ++b) {
    start[b + 1] += start[b];
  }
  // Each item is swapped straight into the next free slot of its bucket
  // until the slot being filled receives one of its own bucket.
  std::array<std::size_t, 256> next{};
  std::copy(start.begin(), start.end() - 1, next.begin());
  for (std::size_t b = 0; b < 256; ++b) {
    while (next[b] < start[b + 1]) {
      T item = items[next[b]];
      for (std::size_t home = bucketOf(item); home != b;
           home = bucketOf(item)) {
        std::swap(item, items[next[home]++]);
      }
      items[next[b]++] = item;
    }
  }
  std::size_t largest = 0;
  for (std::size_t b = 0; b < 256; ++b) {
    largest = std::max(largest, start[b + 1] - start[b]);
  }
  scratch.resize(std::max(scratch.size(), largest));
  for (std::size_t b = 0; b < 256; ++b) {
    radixSort(items.subspan(start[b], start[b + 1] - start[b]),
              std::span<T>(scratch), keyOf);
  }
}

}  // namespace chisimnet::util
