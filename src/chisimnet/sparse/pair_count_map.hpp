#pragma once

#include <cstdint>
#include <vector>

#include "chisimnet/util/error.hpp"

/// Open-addressing hash map from a packed (i,j) vertex pair to an
/// accumulated collocation weight.
///
/// This is the workhorse behind the sparse symmetric adjacency matrix
/// (paper §IV): each worker accumulates A_l = x·xᵀ contributions into one of
/// these, then maps are merged pairwise during the reduction to the root.
/// Linear probing over a power-of-two table keeps the accumulate path to a
/// hash, a probe loop and an add — no allocation unless a rehash is due.

namespace chisimnet::sparse {

class PairCountMap {
 public:
  explicit PairCountMap(std::size_t expectedEntries = 64);

  /// Adds `weight` to the count for `key` (inserting if absent).
  void add(std::uint64_t key, std::uint64_t weight);

  /// The accumulated count for `key`, or 0 when absent.
  std::uint64_t get(std::uint64_t key) const noexcept;

  /// Grows the table so `expectedEntries` total entries fit without a
  /// rehash. No-op if the table is already big enough; never shrinks.
  void reserve(std::size_t expectedEntries);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Merges all entries of `other` into this map. Reserves room for the
  /// worst-case union up front so the insert loop never rehashes mid-merge.
  void merge(const PairCountMap& other);

  /// Visits every (key, count) entry in unspecified (slot) order without
  /// materializing them, so callers that extract sorted runs or triplets
  /// hold no transient beyond their own output.
  template <typename Visitor>
  void forEach(Visitor&& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmpty) {
        visit(slot.key, slot.count);
      }
    }
  }

  /// Approximate heap bytes held by the table.
  std::size_t memoryBytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint64_t count = 0;
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  void rehash(std::size_t newCapacity);
  static std::uint64_t mixHash(std::uint64_t key) noexcept;

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Packs an unordered vertex pair into a canonical (min,max) 64-bit key.
/// Requires i != j.
inline std::uint64_t packPair(std::uint32_t i, std::uint32_t j) noexcept {
  const std::uint32_t lo = i < j ? i : j;
  const std::uint32_t hi = i < j ? j : i;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

inline std::uint32_t pairLow(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key >> 32);
}

inline std::uint32_t pairHigh(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key);
}

}  // namespace chisimnet::sparse
