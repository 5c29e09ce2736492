#pragma once

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

}  // namespace chisimnet::runtime
