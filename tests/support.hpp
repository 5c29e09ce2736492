#pragma once

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"

/// Fixtures shared by the test binaries: a hermetic scratch directory and
/// the small synthesis cases the fault, spill and transport suites run.

namespace chisimnet::testsupport {

/// A fresh, empty directory unique to this process and the running test:
/// <tmp>/<name>-<pid>-<suite>.<test>. Parallel test processes (ctest -j)
/// never share one. Removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    std::string id = name + "-" + std::to_string(::getpid());
    if (const auto* test =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      id += std::string("-") + test->test_suite_name() + "." + test->name();
    }
    std::replace(id.begin(), id.end(), '/', '_');  // parameterized names
    dir_ = std::filesystem::temp_directory_path() / id;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

/// Lowers this process's open-file limit so that exactly `extra` more
/// descriptors can be opened than are open now: the limit is set just past
/// the `extra`-th free descriptor number. Restores the old limit on
/// destruction. A test wraps a merge in one to bound the files it opens.
class OpenFileHeadroom {
 public:
  explicit OpenFileHeadroom(int extra) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &old_), 0);
    int fd = 0;
    for (int free = 0;; ++fd) {
      if (::fcntl(fd, F_GETFD) == -1 && ++free == extra) {
        break;
      }
    }
    rlimit lowered = old_;
    lowered.rlim_cur = static_cast<rlim_t>(fd + 1);
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~OpenFileHeadroom() { ::setrlimit(RLIMIT_NOFILE, &old_); }
  OpenFileHeadroom(const OpenFileHeadroom&) = delete;
  OpenFileHeadroom& operator=(const OpenFileHeadroom&) = delete;

 private:
  rlimit old_{};
};

/// Cuts a sorted run into consecutive slices of `width` rows (the last may
/// be shorter); each slice is itself a sorted run, the form a spilling
/// accumulator is fed in.
inline std::vector<std::vector<sparse::AdjacencyTriplet>> sortedSlices(
    std::span<const sparse::AdjacencyTriplet> rows, std::size_t width) {
  std::vector<std::vector<sparse::AdjacencyTriplet>> slices;
  for (std::size_t begin = 0; begin < rows.size(); begin += width) {
    const std::size_t end = std::min(rows.size(), begin + width);
    slices.emplace_back(rows.begin() + static_cast<std::ptrdiff_t>(begin),
                        rows.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return slices;
}

/// The rows of a finished merge segment. A segment is a headerless CADJ
/// payload, not a CSPL1 run: it is read in place as one row block.
inline std::vector<sparse::AdjacencyTriplet> segmentRows(
    const sparse::ShardSegment& segment) {
  std::vector<sparse::AdjacencyTriplet> rows(
      static_cast<std::size_t>(segment.triplets));
  const std::span<std::byte> bytes =
      util::writableRowBytes(std::span<sparse::AdjacencyTriplet>(rows));
  std::ifstream in(segment.file, std::ios::binary);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  EXPECT_EQ(static_cast<std::uint64_t>(in.gcount()), segment.bytes)
      << segment.file;
  return rows;
}

/// Merges every group of a shard merge plan through mergeShardRuns, one
/// segment per shard written into `segmentDir`, and returns the segments'
/// rows in ascending shard order: synthesizeToFile's sharded tail, minus
/// the executor. `segments`, when given, receives each group's segment.
inline std::vector<sparse::AdjacencyTriplet> mergePlanRows(
    const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& plan,
    const std::filesystem::path& segmentDir,
    std::vector<sparse::ShardSegment>* segments = nullptr) {
  std::vector<sparse::AdjacencyTriplet> rows;
  for (const auto& group : plan) {
    const sparse::ShardSegment segment = sparse::mergeShardRuns(
        group.shard, group.runs,
        segmentDir / ("seg." + std::to_string(group.shard) + ".cseg"));
    const std::vector<sparse::AdjacencyTriplet> part = segmentRows(segment);
    rows.insert(rows.end(), part.begin(), part.end());
    if (segments != nullptr) {
      segments->push_back(segment);
    }
  }
  return rows;
}

/// A spilling accumulator's one finish: buildShardMergePlan, then
/// mergePlanRows over the plan. The result is the sorted,
/// duplicate-summed triplets of everything the accumulator was given.
inline std::vector<sparse::AdjacencyTriplet> drainAccumulator(
    sparse::SpillingAccumulator& accumulator,
    const std::filesystem::path& segmentDir,
    std::vector<sparse::ShardSegment>* segments = nullptr) {
  return mergePlanRows(accumulator.buildShardMergePlan(), segmentDir,
                       segments);
}

struct FuzzCase {
  table::EventTable events;
  table::Hour windowStart = 0;
  table::Hour windowEnd = 0;
};

/// A small seeded event table: 8-55 persons over 3-12 places, 80-199
/// events around a 24-71 hour window.
inline FuzzCase makeCase(std::uint64_t seed) {
  using table::Hour;
  util::Rng rng(seed * 2654435761u + 17);
  FuzzCase out;
  const auto persons = static_cast<std::uint32_t>(8 + rng.uniformBelow(48));
  const auto places = static_cast<std::uint32_t>(3 + rng.uniformBelow(10));
  out.windowStart = static_cast<Hour>(rng.uniformBelow(8));
  out.windowEnd = out.windowStart + 24 + static_cast<Hour>(rng.uniformBelow(48));
  const std::size_t count = 80 + rng.uniformBelow(120);
  for (std::size_t i = 0; i < count; ++i) {
    const Hour start = static_cast<Hour>(rng.uniformBelow(out.windowEnd + 8));
    const Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(9));
    out.events.append(table::Event{
        start, end, static_cast<table::PersonId>(rng.uniformBelow(persons)),
        static_cast<table::ActivityId>(rng.uniformBelow(5)),
        static_cast<table::PlaceId>(rng.uniformBelow(places))});
  }
  return out;
}

/// Writes `events` into `fileCount` CLG5 files partitioned by place id, the
/// way real per-rank logs partition events by the rank owning the place.
/// Place-disjoint files make any whole-file batching exactly additive.
/// Multiple sorted chunks per file let the reader's per-chunk time-range
/// pushdown participate.
inline std::vector<std::filesystem::path> writePlacePartitionedFiles(
    const table::EventTable& events, const std::filesystem::path& dir,
    int fileCount) {
  std::vector<std::vector<table::Event>> buffers(
      static_cast<std::size_t>(fileCount));
  for (std::uint64_t row = 0; row < events.size(); ++row) {
    const table::Event event = events.row(row);
    buffers[event.place % static_cast<std::uint32_t>(fileCount)].push_back(
        event);
  }
  std::vector<std::filesystem::path> files;
  for (int i = 0; i < fileCount; ++i) {
    const auto path = elog::logFilePath(dir, i);
    elog::ChunkedLogWriter writer(path);
    auto& buffer = buffers[static_cast<std::size_t>(i)];
    std::sort(buffer.begin(), buffer.end());
    for (std::size_t begin = 0; begin < buffer.size(); begin += 32) {
      const std::size_t end = std::min(buffer.size(), begin + 32);
      writer.writeChunk(
          std::span<const table::Event>(buffer.data() + begin, end - begin));
    }
    writer.close();
    files.push_back(path);
  }
  return files;
}

inline void expectEqualAdjacency(const sparse::SymmetricAdjacency& got,
                                 const sparse::SymmetricAdjacency& want,
                                 const std::string& label) {
  EXPECT_EQ(got.edgeCount(), want.edgeCount()) << label;
  EXPECT_EQ(got.toTriplets(), want.toTriplets()) << label;
}

inline bool hasFault(const net::SynthesisReport& report,
                     net::FaultEvent::Kind kind) {
  return std::any_of(
      report.faults.begin(), report.faults.end(),
      [kind](const net::FaultEvent& event) { return event.kind == kind; });
}

}  // namespace chisimnet::testsupport
