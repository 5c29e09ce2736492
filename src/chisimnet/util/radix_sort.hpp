#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

/// LSD radix sort on an unsigned integer key, one byte per pass.
///
/// The CADJ writer sorts the accumulator's packed (i, j) keys with it and
/// the CSR build sorts endpoint ids. Both key sets are much narrower than
/// their type (person ids use the low 17–22 bits of a u32), so one
/// histogram pass counts every byte position up front and any position
/// that is constant across all keys costs no pass at all. Stable, so a
/// byte pass never disturbs the order the earlier passes established.

namespace chisimnet::util {

/// Sorts `items` ascending by `keyOf(item)`, an unsigned integer.
template <typename T, typename KeyFn>
void radixSort(std::vector<T>& items, KeyFn keyOf) {
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  static_assert(std::is_unsigned_v<Key>, "radix key must be unsigned");
  constexpr std::size_t kBytes = sizeof(Key);
  const std::size_t n = items.size();
  if (n < 2) {
    return;
  }
  std::array<std::array<std::size_t, 256>, kBytes> counts{};
  for (const T& item : items) {
    const Key key = keyOf(item);
    for (std::size_t b = 0; b < kBytes; ++b) {
      ++counts[b][(key >> (8 * b)) & 0xFF];
    }
  }
  std::vector<T> scratch;
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
    if (scratch.empty()) {
      scratch.resize(n);
    }
    for (const T& item : items) {
      scratch[next[(keyOf(item) >> (8 * b)) & 0xFF]++] = item;
    }
    items.swap(scratch);
  }
}

}  // namespace chisimnet::util
