/// LOG-CACHE — logging throughput vs cache size (paper §III).
///
/// "The log cache size is variable although a nominal size of 10,000 log
/// entries is used ... A smaller cache will reduce memory usage but will
/// result in more individual write operations, which can be computationally
/// expensive. In contrast, a larger cache will require more memory but will
/// provide a speed tradeoff as fewer write operations are required."
///
/// google-benchmark sweep over cache sizes, logging a fixed stream of
/// events through EventLogger into a CLG5 file on tmpfs-ish temp storage.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>

#include "chisimnet/elog/event_logger.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/elog/prefetch.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"

namespace {

using namespace chisimnet;

std::vector<table::Event> makeEvents(std::size_t count, std::uint64_t seed = 99) {
  util::Rng rng(seed);
  std::vector<table::Event> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(168));
    events.push_back(table::Event{
        start, start + 1 + static_cast<table::Hour>(rng.uniformBelow(10)),
        static_cast<table::PersonId>(rng.uniformBelow(3'000'000)),
        static_cast<table::ActivityId>(rng.uniformBelow(9)),
        static_cast<table::PlaceId>(rng.uniformBelow(1'200'000))});
  }
  return events;
}

void BM_LogThroughputVsCacheSize(benchmark::State& state) {
  const auto cacheSize = static_cast<std::size_t>(state.range(0));
  static const std::vector<table::Event> events = makeEvents(200'000);
  const auto path =
      std::filesystem::temp_directory_path() / "chisimnet_bench_cache.clg5";

  std::uint64_t flushes = 0;
  for (auto _ : state) {
    elog::EventLogger logger(std::make_unique<elog::ChunkedLogWriter>(path),
                             cacheSize);
    for (const table::Event& event : events) {
      logger.log(event);
    }
    logger.close();
    flushes = logger.flushCount();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size() * 20));
  state.counters["flushes"] = static_cast<double>(flushes);
  std::filesystem::remove(path);
}

BENCHMARK(BM_LogThroughputVsCacheSize)
    ->Arg(100)
    ->Arg(1'000)
    ->Arg(10'000)  // the paper's nominal cache
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

/// Read-side: full scan vs windowed (index-pushdown) read of a chunked log.
void BM_LogReadFullScan(benchmark::State& state) {
  const auto path =
      std::filesystem::temp_directory_path() / "chisimnet_bench_read.clg5";
  {
    const auto events = makeEvents(200'000);
    elog::EventLogger logger(std::make_unique<elog::ChunkedLogWriter>(path),
                             10'000);
    // Sort by start so chunks have tight time ranges, as in a real run.
    auto sorted = events;
    std::sort(sorted.begin(), sorted.end());
    for (const table::Event& event : sorted) {
      logger.log(event);
    }
    logger.close();
  }
  for (auto _ : state) {
    elog::ChunkedLogReader reader(path);
    benchmark::DoNotOptimize(reader.readAll());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_LogReadFullScan)->Unit(benchmark::kMillisecond);

void BM_LogReadWindowPushdown(benchmark::State& state) {
  const auto path =
      std::filesystem::temp_directory_path() / "chisimnet_bench_read2.clg5";
  {
    const auto events = makeEvents(200'000);
    elog::EventLogger logger(std::make_unique<elog::ChunkedLogWriter>(path),
                             10'000);
    auto sorted = events;
    std::sort(sorted.begin(), sorted.end());
    for (const table::Event& event : sorted) {
      logger.log(event);
    }
    logger.close();
  }
  std::size_t chunksRead = 0;
  for (auto _ : state) {
    elog::ChunkedLogReader reader(path);
    benchmark::DoNotOptimize(reader.readOverlapping(80, 90));
    chunksRead = reader.lastChunksRead();
  }
  state.counters["chunks_read"] = static_cast<double>(chunksRead);
  std::filesystem::remove(path);
}
BENCHMARK(BM_LogReadWindowPushdown)->Unit(benchmark::kMillisecond);

/// CRC-32 throughput of the table fallback and of the kernel crc32 picks
/// (the PCLMULQDQ fold where the CPU has it), over a 4 KiB frame, a 64 KiB
/// chunk and a 16 MiB buffer that outgrows the caches. Every CLG5 chunk,
/// spill frame, CADJ payload and checkpoint body is CRC-checked.
void crc32Throughput(benchmark::State& state, util::detail::Crc32Kernel kernel) {
  const auto size = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<std::byte> bytes(size);
  for (std::byte& b : bytes) {
    b = static_cast<std::byte>(rng.uniformBelow(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(bytes, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}

void BM_Crc32Table(benchmark::State& state) {
  crc32Throughput(state, &util::detail::crc32Table);
}
BENCHMARK(BM_Crc32Table)->Arg(4 << 10)->Arg(64 << 10)->Arg(16 << 20);

void BM_Crc32(benchmark::State& state) {
  crc32Throughput(state, util::detail::crc32Kernel());
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(64 << 10)->Arg(16 << 20);

/// Batched read pipeline: serial load-then-consume vs the background
/// prefetcher. The consume step (sort + place index) stands in for synthesis
/// stages 2-6; the prefetch counters show how much decode time leaves the
/// consumer's critical path even when wall time is core-bound.
const std::vector<std::filesystem::path>& prefetchBenchFiles() {
  static const std::vector<std::filesystem::path> files = [] {
    const auto dir =
        std::filesystem::temp_directory_path() / "chisimnet_bench_prefetch";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::filesystem::path> out;
    for (int rank = 0; rank < 8; ++rank) {
      const auto path = elog::logFilePath(dir, rank);
      auto events = makeEvents(60'000, 100 + static_cast<std::uint64_t>(rank));
      std::sort(events.begin(), events.end());
      elog::EventLogger logger(std::make_unique<elog::ChunkedLogWriter>(path),
                               10'000);
      for (const table::Event& event : events) {
        logger.log(event);
      }
      logger.close();
      out.push_back(path);
    }
    return out;
  }();
  return files;
}

std::uint64_t consumeBatch(table::EventTable& events) {
  events.sortByStart();
  return events.buildPlaceIndex().placeIds.size();
}

void BM_BatchReadSerial(benchmark::State& state) {
  const auto& files = prefetchBenchFiles();
  std::uint64_t places = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < files.size(); i += 2) {
      table::EventTable events = elog::loadEvents(
          {files.begin() + static_cast<std::ptrdiff_t>(i),
           files.begin() + static_cast<std::ptrdiff_t>(i + 2)},
          0, 168);
      places += consumeBatch(events);
    }
  }
  benchmark::DoNotOptimize(places);
}
BENCHMARK(BM_BatchReadSerial)->Unit(benchmark::kMillisecond);

void BM_BatchReadPrefetch(benchmark::State& state) {
  const auto& files = prefetchBenchFiles();
  std::uint64_t places = 0;
  double exposedSeconds = 0.0;
  double decodeSeconds = 0.0;
  for (auto _ : state) {
    elog::PrefetchingLoader::Options options;
    options.windowStart = 0;
    options.windowEnd = 168;
    options.filesPerBatch = 2;
    options.depth = 2;
    options.decodeThreads = 2;
    elog::PrefetchingLoader loader(files, options);
    while (auto batch = loader.next()) {
      places += consumeBatch(batch->table);
    }
    exposedSeconds = loader.stats().exposedSeconds;
    decodeSeconds = loader.stats().decodeSeconds;
  }
  benchmark::DoNotOptimize(places);
  state.counters["exposed_s"] = exposedSeconds;
  state.counters["decode_s"] = decodeSeconds;
}
BENCHMARK(BM_BatchReadPrefetch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
