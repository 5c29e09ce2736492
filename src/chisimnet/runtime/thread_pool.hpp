#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "chisimnet/util/timer.hpp"

/// Fixed-size worker pool plus a chunked parallel-for. Used by the Cluster
/// task farm, the prefetching log loader, and by callers that want
/// shared-memory parallelism inside a rank (the OpenMP-style layer of the
/// paper's hybrid setup).

namespace chisimnet::runtime {

class ThreadPool {
 public:
  /// Spawns `threadCount` workers (>= 1).
  explicit ThreadPool(unsigned threadCount);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threadCount() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueues a fire-and-forget task; tasks may run on any worker in any
  /// order. An exception escaping the task is captured and rethrown from the
  /// next waitIdle() call (first one wins) instead of terminating the worker.
  void submit(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result. An exception
  /// thrown by the callable surfaces from future.get(), not from waitIdle().
  template <class F>
  auto submitTask(F&& callable)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(callable));
    std::future<Result> future = task->get_future();
    // packaged_task captures its own exception, so this never trips the
    // fire-and-forget error path.
    submit([task] { (*task)(); });
    return future;
  }

  /// Blocks until all submitted tasks have finished, then rethrows the first
  /// exception a fire-and-forget task raised since the last waitIdle(). The
  /// pool stays usable after a throw.
  void waitIdle();

 private:
  void workerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  std::condition_variable idle_;
  std::uint64_t inFlight_ = 0;
  std::exception_ptr pendingError_;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, count) across up to `workers` threads with
/// dynamic chunking. Exceptions from body propagate (first one wins).
void parallelFor(std::uint64_t count, unsigned workers,
                 const std::function<void(std::uint64_t)>& body);

/// Same, but body(i, worker) also receives the index in [0, workers) of the
/// thread running it, so callers can keep per-thread scratch state (marker
/// arrays, partial counters) without locks. The calling thread is worker 0.
void parallelFor(std::uint64_t count, unsigned workers,
                 const std::function<void(std::uint64_t, unsigned)>& body);

/// Timing record of one treeReduce() call. `criticalSeconds` sums the
/// slowest merge of each level — the modeled parallel time of the tree,
/// which is what a multi-core host would observe (this repo's benches run
/// on one core, so wall time alone cannot show the log-depth win). Merges
/// are timed on the per-thread CPU clock so the model stays valid when
/// concurrent merges time-slice a smaller core count.
struct TreeReduceStats {
  unsigned depth = 0;             ///< number of merge levels (⌈log2 n⌉)
  std::uint64_t merges = 0;       ///< total pairwise merges (n-1)
  double criticalSeconds = 0.0;   ///< Σ per-level max merge seconds
};

/// Log-depth pairwise reduction of `items` into items[0]. Each level merges
/// disjoint (left, left+stride) pairs concurrently via parallelFor;
/// `merge(into, from)` must leave the sum in `into` and may gut `from`.
/// Odd leftovers at a level are carried to the next, so any item count —
/// including odd worker counts — folds in ⌈log2 n⌉ levels. Deterministic
/// for commutative+associative merges regardless of worker count.
template <class T, class Merge>
TreeReduceStats treeReduce(std::vector<T>& items, unsigned workers,
                           Merge&& merge) {
  TreeReduceStats stats;
  const std::uint64_t n = items.size();
  for (std::uint64_t stride = 1; stride < n; stride *= 2) {
    const std::uint64_t pairCount = (n - stride - 1) / (2 * stride) + 1;
    std::vector<double> mergeSeconds(pairCount, 0.0);
    parallelFor(pairCount,
                std::max<unsigned>(
                    1, std::min<std::uint64_t>(workers, pairCount)),
                [&](std::uint64_t k) {
                  const std::uint64_t left = 2 * stride * k;
                  util::ThreadCpuTimer timer;
                  merge(items[left], items[left + stride]);
                  mergeSeconds[k] = timer.seconds();
                });
    stats.criticalSeconds +=
        *std::max_element(mergeSeconds.begin(), mergeSeconds.end());
    stats.merges += pairCount;
    ++stats.depth;
  }
  return stats;
}

}  // namespace chisimnet::runtime
