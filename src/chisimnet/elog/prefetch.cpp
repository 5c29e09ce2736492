#include "chisimnet/elog/prefetch.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::elog {

PrefetchingLoader::PrefetchingLoader(std::vector<std::filesystem::path> files,
                                     Options options)
    : files_(std::move(files)),
      options_(options),
      pool_(std::max(1u, options.decodeThreads)) {
  CHISIM_REQUIRE(options_.depth >= 1, "prefetch depth must be >= 1");
  const std::size_t batchSize =
      options_.filesPerBatch == 0 ? std::max<std::size_t>(1, files_.size())
                                  : options_.filesPerBatch;
  options_.filesPerBatch = batchSize;
  batchCount_ = (files_.size() + batchSize - 1) / batchSize;
  producer_ = std::thread([this] { producerLoop(); });
}

PrefetchingLoader::~PrefetchingLoader() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
  }
  slotFree_.notify_all();
  producer_.join();
}

void PrefetchingLoader::producerLoop() {
  for (std::size_t batch = 0; batch < batchCount_; ++batch) {
    const std::size_t begin = batch * options_.filesPerBatch;
    const std::size_t end =
        std::min(files_.size(), begin + options_.filesPerBatch);

    Slot slot;
    slot.batch.filesInBatch = end - begin;
    util::WallTimer decodeTimer;
    try {
      runtime::fault::hit("prefetch.decode");
      const std::vector<std::filesystem::path> batchFiles(
          files_.begin() + static_cast<std::ptrdiff_t>(begin),
          files_.begin() + static_cast<std::ptrdiff_t>(end));
      if (options_.quarantineCorrupt) {
        slot.batch.table = loadEventsQuarantiningParallel(
            batchFiles, options_.windowStart, options_.windowEnd, pool_,
            slot.batch.quarantined);
      } else {
        slot.batch.table = loadEventsParallel(batchFiles, options_.windowStart,
                                              options_.windowEnd, pool_);
      }
    } catch (...) {
      slot.error = std::current_exception();
    }
    const double seconds = decodeTimer.seconds();

    std::unique_lock<std::mutex> lock(mutex_);
    stats_.decodeSeconds += seconds;
    slotFree_.wait(lock, [this] {
      return cancelled_ || ready_.size() < options_.depth;
    });
    if (cancelled_) {
      return;
    }
    const bool failed = slot.error != nullptr;
    ready_.push_back(std::move(slot));
    stats_.peakOccupancy =
        std::max<std::uint64_t>(stats_.peakOccupancy, ready_.size());
    if (failed) {
      // A decode error ends the stream; the consumer rethrows it.
      producerDone_ = true;
      lock.unlock();
      slotReady_.notify_all();
      return;
    }
    lock.unlock();
    slotReady_.notify_all();
    // Hand the CPU to a consumer blocked on this batch; on a core-bound host
    // the producer would otherwise burn its whole timeslice reading ahead
    // while the compute thread sits runnable.
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    producerDone_ = true;
  }
  slotReady_.notify_all();
}

std::optional<LoadedBatch> PrefetchingLoader::next() {
  std::unique_lock<std::mutex> lock(mutex_);
  occupancySum_ += static_cast<double>(ready_.size());
  ++occupancySamples_;
  stats_.meanOccupancy = occupancySum_ / static_cast<double>(occupancySamples_);
  util::WallTimer waitTimer;
  slotReady_.wait(lock, [this] { return producerDone_ || !ready_.empty(); });
  stats_.exposedSeconds += waitTimer.seconds();
  if (ready_.empty()) {
    return std::nullopt;  // producer finished and everything was handed out
  }
  Slot slot = std::move(ready_.front());
  ready_.pop_front();
  ++consumed_;
  lock.unlock();
  slotFree_.notify_all();
  if (slot.error) {
    std::rethrow_exception(slot.error);
  }
  {
    std::lock_guard<std::mutex> statsLock(mutex_);
    ++stats_.batchesLoaded;
  }
  return std::move(slot.batch);
}

PrefetchStats PrefetchingLoader::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace chisimnet::elog
