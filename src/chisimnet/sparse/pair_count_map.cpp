#include "chisimnet/sparse/pair_count_map.hpp"

#include <bit>

namespace chisimnet::sparse {

namespace {

std::size_t nextPowerOfTwo(std::size_t value) {
  return std::bit_ceil(value < 16 ? std::size_t{16} : value);
}

}  // namespace

PairCountMap::PairCountMap(std::size_t expectedEntries) {
  const std::size_t capacity = nextPowerOfTwo(expectedEntries * 2);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
}

std::uint64_t PairCountMap::mixHash(std::uint64_t key) noexcept {
  // splitmix64 finalizer: full-avalanche mix of the packed pair.
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return key;
}

void PairCountMap::add(std::uint64_t key, std::uint64_t weight) {
  CHISIM_REQUIRE(key != kEmpty, "key 2^64-1 is reserved");
  if ((size_ + 1) * 10 > slots_.size() * 7) {  // load factor 0.7
    rehash(slots_.size() * 2);
  }
  std::size_t index = mixHash(key) & mask_;
  while (true) {
    Slot& slot = slots_[index];
    if (slot.key == key) {
      slot.count += weight;
      return;
    }
    if (slot.key == kEmpty) {
      slot.key = key;
      slot.count = weight;
      ++size_;
      return;
    }
    index = (index + 1) & mask_;
  }
}

std::uint64_t PairCountMap::get(std::uint64_t key) const noexcept {
  std::size_t index = mixHash(key) & mask_;
  while (true) {
    const Slot& slot = slots_[index];
    if (slot.key == key) {
      return slot.count;
    }
    if (slot.key == kEmpty) {
      return 0;
    }
    index = (index + 1) & mask_;
  }
}

void PairCountMap::reserve(std::size_t expectedEntries) {
  // Invert the load-factor-0.7 growth trigger used by add().
  const std::size_t needed =
      nextPowerOfTwo((expectedEntries * 10 + 6) / 7);
  if (needed > slots_.size()) {
    rehash(needed);
  }
}

void PairCountMap::merge(const PairCountMap& other) {
  reserve(size_ + other.size_);
  for (const Slot& slot : other.slots_) {
    if (slot.key != kEmpty) {
      add(slot.key, slot.count);
    }
  }
}

void PairCountMap::rehash(std::size_t newCapacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(newCapacity, Slot{});
  mask_ = newCapacity - 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.key != kEmpty) {
      add(slot.key, slot.count);
    }
  }
}

}  // namespace chisimnet::sparse
