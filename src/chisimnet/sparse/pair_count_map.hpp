#pragma once

#include <cstdint>
#include <span>

#include "chisimnet/util/default_init_vector.hpp"
#include "chisimnet/util/error.hpp"

/// Open-addressing hash map from a packed (i,j) vertex pair to an
/// accumulated collocation weight.
///
/// This is the workhorse behind the sparse symmetric adjacency matrix
/// (paper §IV): each worker accumulates A_l = x·xᵀ contributions into one of
/// these, then the root folds the worker maps into one.
/// Linear probing over a power-of-two table keeps the accumulate path to a
/// hash, a probe loop and an add — no allocation unless a rehash is due.
/// A fold or rehash on several threads inserts disjoint slot ranges of the
/// source table concurrently: the table is sized for the union first, a
/// thread claims an empty slot with a compare-and-swap on its key and adds
/// weights with an atomic add, so the counts are the serial fold's (sums of
/// integers) and only the slot layout may differ, which no caller reads.

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
  void reserve(std::size_t expectedEntries) { grow(expectedEntries, 1); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Merges all entries of `other` into this map. Reserves room for the
  /// worst-case union up front so the insert loop never rehashes mid-merge.
  /// With threads > 1, `threads` threads insert disjoint slot ranges of
  /// `other` concurrently; threads <= 1 is the serial insert loop.
  void merge(const PairCountMap& other, unsigned threads = 1);

  /// Visits every (key, count) entry in unspecified (slot) order without
  /// materializing them, so callers that extract sorted runs or triplets
  /// hold no transient beyond their own output.
  template <typename Visitor>
  void forEach(Visitor&& visit) const {
    forEachInSlots(0, slots_.size(), visit);
  }

  /// Table slots; [0, slotCount()) split into disjoint ranges lets
  /// threads visit the entries concurrently through forEachInSlots.
  std::size_t slotCount() const noexcept { return slots_.size(); }

  /// Visits the entries stored in slots [begin, end), in slot order.
  template <typename Visitor>
  void forEachInSlots(std::size_t begin, std::size_t end,
                      Visitor&& visit) const {
    const Slot* const last = slots_.data() + end;
    for (const Slot* slot = slots_.data() + begin; slot != last; ++slot) {
      if (slot->key != kEmpty) {
        visit(slot->key, slot->count);
      }
    }
  }

  /// Approximate heap bytes held by the table.
  std::size_t memoryBytes() const noexcept {
    return slots_.size() * sizeof(Slot);
  }

 private:
  /// Trivial, so the table grows without a serial zero-fill: emptySlots()
  /// writes every slot, on the threads that then insert into it.
  struct Slot {
    std::uint64_t key;
    std::uint64_t count;
  };
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// reserve(), moving the entries into the new table on `threads`
  /// threads.
  void grow(std::size_t expectedEntries, unsigned threads);
  /// Replaces the table with `capacity` empty slots, written on `threads`
  /// threads.
  void emptySlots(std::size_t capacity, unsigned threads);
  void rehash(std::size_t newCapacity, unsigned threads);
  /// Inserts the occupied slots of `from`: through add() on one thread, or
  /// through addConcurrent() on `threads` threads into a table that
  /// already has room for all of them.
  void insertSlots(std::span<const Slot> from, unsigned threads);
  /// add() for a table with room for the key, safe against other threads
  /// inserting concurrently; returns 1 when it claimed a new slot. size_
  /// is the caller's to update.
  std::size_t addConcurrent(std::uint64_t key, std::uint64_t weight) noexcept;
  static std::uint64_t mixHash(std::uint64_t key) noexcept;

  util::DefaultInitVector<Slot> slots_;
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
