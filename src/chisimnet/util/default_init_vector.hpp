#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

/// A std::vector whose resize(n) default-initializes the new elements, so
/// for a trivially default-constructible element type it writes nothing.
///
/// The dense stage-6 tail and the CSR build size buffers of hundreds of
/// MiB whose every element is written next, by several threads: the hash
/// table (filled with its empty marker) and the CSR rows. A value-
/// initializing resize would first zero them on one thread, page fault by
/// page fault; left unwritten, the pages are first touched by the threads
/// that fill them.

namespace chisimnet::util {

template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace chisimnet::util
