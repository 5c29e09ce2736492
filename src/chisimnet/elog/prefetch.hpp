#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/table/event_table.hpp"

/// Two-stage synthesis pipeline, stage 1 (paper §IV-V): while the compute
/// thread consumes batch k, a background producer decodes batch k+1 so file
/// I/O overlaps stage 2-6 compute instead of serializing in front of it.
///
/// The producer walks the file list in fixed batch order, fans the per-file
/// CLG5 decode out across a runtime::ThreadPool, merges the file results in
/// file order (so the produced table is byte-identical to the serial
/// loadEvents path), and parks each decoded batch in a bounded depth-N
/// buffer. next() hands batches out strictly in order; when the buffer is
/// full the producer blocks, bounding memory at depth+1 decoded batches.

namespace chisimnet::elog {

/// Counters of one PrefetchingLoader lifetime, for SynthesisReport.
struct PrefetchStats {
  std::uint64_t batchesLoaded = 0;
  /// Wall seconds the producer spent decoding batches (total load work).
  double decodeSeconds = 0.0;
  /// Wall seconds next() blocked waiting on the producer — the only load
  /// time the consumer actually sees on its critical path.
  double exposedSeconds = 0.0;
  /// Ready-buffer occupancy sampled at each next() call.
  double meanOccupancy = 0.0;
  std::uint64_t peakOccupancy = 0;
};

/// One decoded batch as handed to the consumer: the merged table, the
/// files of this batch that failed to decode (empty unless
/// Options::quarantineCorrupt), and how many files the batch spanned.
struct LoadedBatch {
  table::EventTable table;
  std::vector<QuarantinedFile> quarantined;
  std::size_t filesInBatch = 0;
};

class PrefetchingLoader {
 public:
  struct Options {
    table::Hour windowStart = 0;
    table::Hour windowEnd = 0xFFFFFFFFu;
    /// Files per decoded batch; 0 loads all files in one batch.
    std::size_t filesPerBatch = 0;
    /// Max decoded batches buffered ahead of the consumer (>= 1).
    std::size_t depth = 2;
    /// Threads decoding files of one batch in parallel (>= 1).
    unsigned decodeThreads = 1;
    /// When true, an undecodable file is reported in
    /// LoadedBatch::quarantined instead of ending the stream with an
    /// exception (graceful-degradation mode).
    bool quarantineCorrupt = false;
  };

  PrefetchingLoader(std::vector<std::filesystem::path> files, Options options);
  ~PrefetchingLoader();

  PrefetchingLoader(const PrefetchingLoader&) = delete;
  PrefetchingLoader& operator=(const PrefetchingLoader&) = delete;

  std::size_t batchCount() const noexcept { return batchCount_; }

  /// Blocks until the next batch (in file order) is decoded and returns it;
  /// std::nullopt once all batches have been handed out. Rethrows a decode
  /// error on the consumer thread (unless quarantineCorrupt).
  std::optional<LoadedBatch> next();

  /// Stats so far; stable once next() has returned nullopt.
  PrefetchStats stats() const;

 private:
  struct Slot {
    LoadedBatch batch;
    std::exception_ptr error;
  };

  void producerLoop();

  std::vector<std::filesystem::path> files_;
  Options options_;
  std::size_t batchCount_ = 0;
  std::size_t consumed_ = 0;

  runtime::ThreadPool pool_;
  mutable std::mutex mutex_;
  std::condition_variable slotFree_;
  std::condition_variable slotReady_;
  std::deque<Slot> ready_;
  bool producerDone_ = false;
  bool cancelled_ = false;
  PrefetchStats stats_;
  std::uint64_t occupancySamples_ = 0;
  double occupancySum_ = 0.0;
  std::thread producer_;
};

}  // namespace chisimnet::elog
