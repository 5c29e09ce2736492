#include "chisimnet/sparse/pair_count_map.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>

#include "chisimnet/runtime/thread_pool.hpp"

namespace chisimnet::sparse {

namespace {

std::size_t nextPowerOfTwo(std::size_t value) {
  return std::bit_ceil(value < 16 ? std::size_t{16} : value);
}

}  // namespace

PairCountMap::PairCountMap(std::size_t expectedEntries) {
  emptySlots(nextPowerOfTwo(expectedEntries * 2), 1);
}

void PairCountMap::emptySlots(std::size_t capacity, unsigned threads) {
  slots_.clear();
  slots_.resize(capacity);
  mask_ = capacity - 1;
  size_ = 0;
  if (threads <= 1) {
    std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0});
    return;
  }
  runtime::parallelFor(threads, threads, [&](std::uint64_t chunk) {
    std::fill(slots_.data() + capacity * chunk / threads,
              slots_.data() + capacity * (chunk + 1) / threads,
              Slot{kEmpty, 0});
  });
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
    rehash(slots_.size() * 2, 1);
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

void PairCountMap::grow(std::size_t expectedEntries, unsigned threads) {
  // Invert the load-factor-0.7 growth trigger used by add().
  const std::size_t needed =
      nextPowerOfTwo((expectedEntries * 10 + 6) / 7);
  if (needed > slots_.size()) {
    rehash(needed, threads);
  }
}

void PairCountMap::merge(const PairCountMap& other, unsigned threads) {
  grow(size_ + other.size_, threads);
  insertSlots(other.slots_, threads);
}

void PairCountMap::rehash(std::size_t newCapacity, unsigned threads) {
  const util::DefaultInitVector<Slot> old = std::move(slots_);
  emptySlots(newCapacity, threads);
  insertSlots(old, threads);
}

void PairCountMap::insertSlots(std::span<const Slot> from, unsigned threads) {
  if (threads <= 1) {
    for (const Slot& slot : from) {
      if (slot.key != kEmpty) {
        add(slot.key, slot.count);
      }
    }
    return;
  }
  // Several chunks per thread keep the threads level when one is
  // preempted; each chunk is a contiguous slot range of `from`.
  const std::size_t chunks = std::size_t{8} * threads;
  std::vector<std::size_t> claimed(threads, 0);
  runtime::parallelFor(
      chunks, threads, [&](std::uint64_t chunk, unsigned worker) {
        const std::size_t begin = from.size() * chunk / chunks;
        const std::size_t end = from.size() * (chunk + 1) / chunks;
        std::size_t fresh = 0;
        for (std::size_t s = begin; s < end; ++s) {
          if (from[s].key != kEmpty) {
            fresh += addConcurrent(from[s].key, from[s].count);
          }
        }
        claimed[worker] += fresh;
      });
  size_ += std::accumulate(claimed.begin(), claimed.end(), std::size_t{0});
}

std::size_t PairCountMap::addConcurrent(std::uint64_t key,
                                        std::uint64_t weight) noexcept {
  // Relaxed ordering suffices: a slot's key goes from empty to its final
  // value once (the CAS), counts only take atomic adds, and nothing reads
  // a count until the threads have been joined.
  std::size_t index = mixHash(key) & mask_;
  while (true) {
    Slot& slot = slots_[index];
    std::atomic_ref<std::uint64_t> slotKey(slot.key);
    std::uint64_t seen = slotKey.load(std::memory_order_relaxed);
    bool fresh = false;
    if (seen == kEmpty) {
      // On failure `seen` becomes the key another thread stored here.
      fresh = slotKey.compare_exchange_strong(seen, key,
                                              std::memory_order_relaxed);
    }
    if (fresh || seen == key) {
      std::atomic_ref<std::uint64_t>(slot.count)
          .fetch_add(weight, std::memory_order_relaxed);
      return fresh ? 1 : 0;
    }
    index = (index + 1) & mask_;
  }
}

}  // namespace chisimnet::sparse
