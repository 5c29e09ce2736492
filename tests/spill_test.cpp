#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/table/event.hpp"
#include "chisimnet/util/radix_sort.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

namespace {

/// The largest single heap allocation this thread made while
/// gTrackAllocations was set: how the extent tests bound a reader's
/// memory without a hook in the reader.
thread_local bool gTrackAllocations = false;
thread_local std::size_t gLargestAllocation = 0;

}  // namespace

// Every unaligned form is replaced, so no block crosses between these and
// a sanitizer runtime's own; out of line, so the compiler never pairs an
// inlined free() with a new.
namespace {

void* trackedAlloc(std::size_t size) noexcept {
  if (gTrackAllocations) {
    gLargestAllocation = std::max(gLargestAllocation, size);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* block = trackedAlloc(size)) {
    return block;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return trackedAlloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return trackedAlloc(size);
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block,
                                       const std::nothrow_t&) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block,
                                         const std::nothrow_t&) noexcept {
  std::free(block);
}

/// Disk-spilling accumulation suite: the k-way loser-tree merge against a
/// brute-force sum, the CSPL1 run container (round trip, truncation and
/// bit-flip rejection with file + byte-offset context, runs as extents of
/// one file, each reader bounded to one frame), the stage-5 sum's one run
/// file, and the
/// SpillingAccumulator's budget guarantee — the bytes of the sorted runs
/// it keeps in memory must never exceed the configured cap, asserted here
/// as a test, not just observed in a bench.

namespace chisimnet::sparse {
namespace {

using testsupport::ScratchDir;

/// A strictly key-ascending random run: distinct (i, j) pairs, sorted.
std::vector<AdjacencyTriplet> makeRun(util::Rng& rng, std::size_t size,
                                      std::uint32_t personSpace) {
  std::map<std::uint64_t, std::uint64_t> byKey;
  while (byKey.size() < size) {
    const auto a = static_cast<std::uint32_t>(rng.uniformBelow(personSpace));
    const auto b = static_cast<std::uint32_t>(rng.uniformBelow(personSpace));
    if (a == b) {
      continue;
    }
    byKey[packPair(a, b)] += 1 + rng.uniformBelow(100);
  }
  std::vector<AdjacencyTriplet> run;
  run.reserve(byKey.size());
  for (const auto& [key, weight] : byKey) {
    run.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  return run;
}

/// Brute-force reference: sum every run into one key-ordered map.
std::vector<AdjacencyTriplet> bruteForceSum(
    const std::vector<std::vector<AdjacencyTriplet>>& runs) {
  std::map<std::uint64_t, std::uint64_t> sum;
  for (const auto& run : runs) {
    for (const AdjacencyTriplet& triplet : run) {
      sum[packPair(triplet.i, triplet.j)] += triplet.weight;
    }
  }
  std::vector<AdjacencyTriplet> merged;
  merged.reserve(sum.size());
  for (const auto& [key, weight] : sum) {
    merged.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), weight});
  }
  return merged;
}

std::vector<AdjacencyTriplet> drain(TripletSource& source) {
  std::vector<AdjacencyTriplet> out;
  AdjacencyTriplet triplet;
  while (source.next(triplet)) {
    out.push_back(triplet);
  }
  return out;
}

// ---- k-way merge properties ----

TEST(TripletMergerTest, RandomRunsMatchBruteForceSum) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    util::Rng rng(seed * 7919 + 3);
    const std::size_t runCount = rng.uniformBelow(9);  // 0..8 runs
    std::vector<std::vector<AdjacencyTriplet>> runs;
    for (std::size_t r = 0; r < runCount; ++r) {
      // Small person space forces key overlap across runs.
      runs.push_back(makeRun(rng, rng.uniformBelow(300), 40));
    }
    std::vector<std::span<const AdjacencyTriplet>> spans(runs.begin(),
                                                         runs.end());
    EXPECT_EQ(mergeKSortedTriplets(spans), bruteForceSum(runs))
        << "seed " << seed << ", " << runCount << " runs";
  }
}

TEST(TripletMergerTest, DuplicatePairsAcrossManyRunsSum) {
  // The same pair in five runs must come out once, with the summed weight.
  std::vector<std::vector<AdjacencyTriplet>> runs;
  for (std::uint64_t r = 0; r < 5; ++r) {
    runs.push_back({AdjacencyTriplet{2, 9, 10 + r},
                    AdjacencyTriplet{3, 7, 1}});
  }
  runs.push_back({AdjacencyTriplet{1, 2, 4}});
  std::vector<std::span<const AdjacencyTriplet>> spans(runs.begin(),
                                                       runs.end());
  const std::vector<AdjacencyTriplet> merged = mergeKSortedTriplets(spans);
  const std::vector<AdjacencyTriplet> want = {AdjacencyTriplet{1, 2, 4},
                                              AdjacencyTriplet{2, 9, 60},
                                              AdjacencyTriplet{3, 7, 5}};
  EXPECT_EQ(merged, bruteForceSum(runs));
  EXPECT_EQ(merged, want);
}

TEST(TripletMergerTest, DegenerateInputs) {
  // No sources at all.
  EXPECT_TRUE(mergeKSortedTriplets({}).empty());

  // A single run passes through unchanged.
  util::Rng rng(17);
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 100, 64);
  const std::vector<std::span<const AdjacencyTriplet>> one = {run};
  EXPECT_EQ(mergeKSortedTriplets(one), run);

  // Empty runs beside real ones contribute nothing.
  const std::vector<AdjacencyTriplet> empty;
  const std::vector<std::span<const AdjacencyTriplet>> mixed = {empty, run,
                                                                empty};
  EXPECT_EQ(mergeKSortedTriplets(mixed), run);

  // Only empty runs.
  const std::vector<std::span<const AdjacencyTriplet>> empties = {empty,
                                                                  empty};
  EXPECT_TRUE(mergeKSortedTriplets(empties).empty());
}

TEST(TripletMergerTest, RejectsMisorderedSource) {
  const std::vector<AdjacencyTriplet> bad = {AdjacencyTriplet{5, 9, 1},
                                             AdjacencyTriplet{1, 2, 1}};
  SpanTripletSource source(bad);
  TripletMerger merger(std::vector<TripletSource*>{&source});
  // The merger validates as it advances; the violation surfaces while
  // draining (possibly on the very first pull, which pre-reads heads).
  EXPECT_THROW(drain(merger), std::runtime_error);
}

// ---- CSPL1 run container ----

TEST(SpillRunTest, RoundTripsAcrossFrameBoundaries) {
  ScratchDir scratch("chisimnet_spill_roundtrip");
  util::Rng rng(23);
  // > one frame (64 Ki rows) so the reader crosses a frame boundary.
  const std::vector<AdjacencyTriplet> run =
      makeRun(rng, kSpillFrameTriplets + 1000, 1u << 20);

  const std::filesystem::path path = scratch.path() / "run.0.spl";
  SpillRunWriter writer(path);
  writer.append(std::span<const AdjacencyTriplet>(run));
  const SpillRunInfo info = writer.finish();
  EXPECT_EQ(info.file, path);
  EXPECT_EQ(info.triplets, run.size());
  EXPECT_EQ(info.bytes, std::filesystem::file_size(path));
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));

  SpillRunReader reader(path);
  EXPECT_EQ(reader.tripletCount(), run.size());
  EXPECT_EQ(drain(reader), run);
}

TEST(SpillRunTest, EmptyRunRoundTrips) {
  ScratchDir scratch("chisimnet_spill_empty");
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  SpillRunWriter writer(path);
  const SpillRunInfo info = writer.finish();
  EXPECT_EQ(info.triplets, 0u);
  SpillRunReader reader(path);
  EXPECT_TRUE(drain(reader).empty());
}

TEST(SpillRunTest, TwoRowRunFileBytesArePinned) {
  // The whole CSPL1 file: header (magic, version, count), one frame
  // (count, CRC32 of the payload) and the two 16-byte triplet rows.
  ScratchDir scratch("chisimnet_spill_pinned");
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  const std::vector<AdjacencyTriplet> run{{1, 2, 3}, {1, 5, 0x100000000ull}};
  {
    SpillRunWriter writer(path);
    writer.append(std::span<const AdjacencyTriplet>(run));
    writer.finish();
  }
  const std::vector<unsigned char> want{
      0x43, 0x53, 0x50, 0x4C, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0xF1, 0x82, 0xD2, 0x3D,
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00};
  std::ifstream in(path, std::ios::binary);
  const std::vector<unsigned char> got((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want);
  SpillRunReader reader(path);
  EXPECT_EQ(drain(reader), run);
}

TEST(SpillRunTest, WriterRejectsMisorderedAppend) {
  ScratchDir scratch("chisimnet_spill_misordered");
  SpillRunWriter writer(scratch.path() / "run.0.spl");
  writer.append(AdjacencyTriplet{4, 8, 1});
  EXPECT_THROW(writer.append(AdjacencyTriplet{1, 2, 1}), std::runtime_error);
  // Duplicate keys are mis-ordered too (strictly ascending).
  EXPECT_THROW(writer.append(AdjacencyTriplet{4, 8, 2}), std::runtime_error);
}

TEST(SpillRunTest, AbandonedWriterLeavesNoFile) {
  ScratchDir scratch("chisimnet_spill_abandoned");
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  {
    SpillRunWriter writer(path);
    writer.append(AdjacencyTriplet{1, 2, 3});
    // No finish(): models a crash mid-spill.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST(SpillRunTest, TruncationIsRejectedWithFileAndOffset) {
  ScratchDir scratch("chisimnet_spill_truncated");
  util::Rng rng(29);
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 5000, 1u << 16);
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  {
    SpillRunWriter writer(path);
    writer.append(std::span<const AdjacencyTriplet>(run));
    writer.finish();
  }
  // Cut mid-frame: the payload read comes up short.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  SpillRunReader reader(path);
  try {
    drain(reader);
    FAIL() << "truncated run should be rejected";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
}

TEST(SpillRunTest, HeaderCountMismatchIsRejected) {
  ScratchDir scratch("chisimnet_spill_count_mismatch");
  util::Rng rng(31);
  // Exactly one frame, then chop whole frames off by truncating at the
  // frame boundary: the per-frame CRCs still pass, but the header count
  // doesn't, which the clean-EOF path must catch.
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 100, 1u << 16);
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  {
    SpillRunWriter writer(path);
    writer.append(std::span<const AdjacencyTriplet>(run));
    writer.finish();
  }
  // Header is 16 bytes; drop the single frame entirely.
  std::filesystem::resize_file(path, 16);
  SpillRunReader reader(path);
  try {
    drain(reader);
    FAIL() << "count mismatch should be rejected";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("declares"), std::string::npos) << what;
  }
}

TEST(SpillRunTest, BitFlipIsRejectedWithCrcContext) {
  ScratchDir scratch("chisimnet_spill_bitflip");
  util::Rng rng(37);
  const std::vector<AdjacencyTriplet> run = makeRun(rng, 4000, 1u << 16);
  const std::filesystem::path path = scratch.path() / "run.0.spl";
  {
    SpillRunWriter writer(path);
    writer.append(std::span<const AdjacencyTriplet>(run));
    writer.finish();
  }
  // Flip one bit deep inside the frame payload (past header + frame
  // header), leaving structure intact so only the CRC can notice.
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(1024);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(1024);
    file.write(&byte, 1);
  }
  SpillRunReader reader(path);
  try {
    drain(reader);
    FAIL() << "bit-flipped run should be rejected";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
  }
}

// ---- runs as extents of one file ----

/// Writes `runs` into one file, whole runs and streamed ones alternating,
/// and returns their records.
std::vector<SpillRunInfo> writeOneFile(
    const std::filesystem::path& path,
    const std::vector<std::vector<AdjacencyTriplet>>& runs) {
  SpillRunWriter writer(path);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (r % 2 == 0) {
      writer.appendRun(runs[r]);
    } else {
      writer.append(std::span<const AdjacencyTriplet>(runs[r]));
      writer.endRun();
    }
  }
  return writer.commit();
}

TEST(SpillExtentTest, RunsInOneFileReadBackIndependentlyInAnyOrder) {
  ScratchDir scratch("chisimnet_spill_extents");
  util::Rng rng(41);
  for (const std::size_t count : {std::size_t{2}, std::size_t{3}}) {
    // The middle run spans two frames; the others are small.
    std::vector<std::vector<AdjacencyTriplet>> runs;
    for (std::size_t r = 0; r < count; ++r) {
      runs.push_back(makeRun(rng, r == 1 ? kSpillFrameTriplets + 77 : 300 + r,
                             1u << 20));
    }
    const std::filesystem::path path =
        scratch.path() / ("multi." + std::to_string(count) + ".spl");
    const std::vector<SpillRunInfo> infos = writeOneFile(path, runs);
    ASSERT_EQ(infos.size(), count);
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
    std::uint64_t end = 0;
    for (std::size_t r = 0; r < count; ++r) {
      EXPECT_EQ(infos[r].file, path);
      EXPECT_EQ(infos[r].offset, end) << "run " << r;
      EXPECT_EQ(infos[r].triplets, runs[r].size());
      EXPECT_EQ(infos[r].firstKey,
                packPair(runs[r].front().i, runs[r].front().j));
      EXPECT_EQ(infos[r].lastKey,
                packPair(runs[r].back().i, runs[r].back().j));
      end += infos[r].bytes;
    }
    EXPECT_EQ(end, std::filesystem::file_size(path));

    // Every read order gives every run back on its own.
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    do {
      for (const std::size_t r : order) {
        SpillRunReader reader(infos[r]);
        EXPECT_EQ(reader.tripletCount(), runs[r].size());
        EXPECT_EQ(drain(reader), runs[r]) << "run " << r;
      }
    } while (std::next_permutation(order.begin(), order.end()));
    // All open at once, drained a row at a time in turn.
    std::vector<std::unique_ptr<SpillRunReader>> readers;
    for (const SpillRunInfo& info : infos) {
      readers.push_back(std::make_unique<SpillRunReader>(info));
    }
    std::vector<std::vector<AdjacencyTriplet>> interleaved(count);
    for (bool any = true; any;) {
      any = false;
      for (std::size_t r = count; r-- > 0;) {
        AdjacencyTriplet triplet;
        if (readers[r]->next(triplet)) {
          interleaved[r].push_back(triplet);
          any = true;
        }
      }
    }
    EXPECT_EQ(interleaved, runs);
  }
}

/// Reading `run` must fail with a typed error that names the file and
/// the byte offset, and says `why`.
void expectExtentRefused(const SpillRunInfo& run, std::uint64_t offset,
                         const std::string& why) {
  try {
    SpillRunReader reader(run);
    drain(reader);
    ADD_FAILURE() << why << ": the extent was accepted";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(run.file.string()), std::string::npos) << what;
    EXPECT_NE(what.find("at byte offset " + std::to_string(offset) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
}

TEST(SpillExtentTest, ExtentsThatDoNotFitTheirRunAreRefused) {
  ScratchDir scratch("chisimnet_spill_extent_refused");
  util::Rng rng(43);
  const std::filesystem::path path = scratch.path() / "two.spl";
  const std::vector<SpillRunInfo> infos = writeOneFile(
      path, {makeRun(rng, 300, 1u << 16), makeRun(rng, 200, 1u << 16)});
  ASSERT_EQ(infos.size(), 2u);
  const std::uint64_t size = std::filesystem::file_size(path);

  // The frames end before the extent does: it reaches into the next run.
  SpillRunInfo longer = infos[0];
  longer.bytes += 16;
  expectExtentRefused(longer, infos[0].bytes, "before its extent does");

  // The frames end after the extent does: the last frame runs past it.
  // (Eight bytes short still holds the header's 300 rows; the frame's own
  // header is what no longer fits.)
  SpillRunInfo shorter = infos[0];
  shorter.bytes -= 8;
  expectExtentRefused(shorter, 16, "past the run's extent");

  // An extent that starts, or ends, past the end of the file.
  SpillRunInfo beyond = infos[1];
  beyond.offset = size + 64;
  expectExtentRefused(beyond, size + 64, "past the end of the file");
  SpillRunInfo overhang = infos[1];
  overhang.bytes += 1;
  expectExtentRefused(overhang, infos[1].offset, "past the end of the file");

  // A header count the extent cannot hold is refused before anything is
  // sized from it.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(infos[1].offset + 8));
    const std::uint64_t inflated = std::uint64_t{1} << 40;
    file.write(reinterpret_cast<const char*>(&inflated), 8);
  }
  gLargestAllocation = 0;
  gTrackAllocations = true;
  expectExtentRefused(infos[1], infos[1].offset + 16, "declares 1099511627776");
  gTrackAllocations = false;
  EXPECT_LT(gLargestAllocation, kSpillFrameTriplets * sizeof(AdjacencyTriplet));
  // The first run, untouched, still reads.
  SpillRunReader first(infos[0]);
  EXPECT_EQ(first.tripletCount(), 300u);
}

TEST(SpillExtentTest, NoReadAllocatesMoreThanOneFrame) {
  ScratchDir scratch("chisimnet_spill_extent_frame");
  util::Rng rng(47);
  // A small run and one of two frames, both in one file.
  const std::vector<std::vector<AdjacencyTriplet>> runs = {
      makeRun(rng, 1000, 1u << 20),
      makeRun(rng, kSpillFrameTriplets + 5000, 1u << 20)};
  const std::vector<SpillRunInfo> infos =
      writeOneFile(scratch.path() / "frames.spl", runs);
  for (std::size_t r = 0; r < infos.size(); ++r) {
    const std::size_t frameBytes =
        std::min<std::size_t>(runs[r].size(), kSpillFrameTriplets) *
        sizeof(AdjacencyTriplet);
    std::uint64_t rows = 0;
    gLargestAllocation = 0;
    gTrackAllocations = true;
    {
      SpillRunReader reader(infos[r]);
      AdjacencyTriplet triplet;
      while (reader.next(triplet)) {
        ++rows;
      }
    }
    gTrackAllocations = false;
    EXPECT_EQ(rows, runs[r].size());
    EXPECT_LE(gLargestAllocation, frameBytes) << "run " << r;
  }
}

// ---- SpillingAccumulator ----

/// Overlapping runs under a tiny budget spill many times; the merge equals
/// the brute-force sum whatever order the runs arrive in.
TEST(SpillingAccumulatorTest, MatchesBruteForceAcrossSpills) {
  ScratchDir scratch("chisimnet_spill_acc_bruteforce");
  util::Rng rng(41);
  std::vector<std::vector<AdjacencyTriplet>> runs;
  for (int n = 0; n < 40; ++n) {
    runs.push_back(makeRun(rng, 500, 2000));
  }
  const std::vector<AdjacencyTriplet> want = bruteForceSum(runs);

  std::vector<std::vector<AdjacencyTriplet>> shuffled = runs;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniformBelow(i)]);
  }
  for (const bool inOrder : {true, false}) {
    SpillingAccumulator::Options options;
    options.dir = scratch.path() / (inOrder ? "in-order" : "shuffled");
    options.budgetBytes = 64 * 1024;  // tiny: forces many spills
    SpillingAccumulator accumulator(options);
    for (std::vector<AdjacencyTriplet> run : inOrder ? runs : shuffled) {
      accumulator.addSortedRun(std::move(run));
    }
    EXPECT_GT(accumulator.stats().runsWritten, 0u);
    EXPECT_EQ(testsupport::drainAccumulator(accumulator, options.dir), want);
  }
}

TEST(SpillingAccumulatorTest, PeakNeverExceedsTheBudget) {
  // The tested guarantee, not a bench observation: with a budget of at
  // least a few KiB (above the 4 KiB threshold floor), the bytes of the
  // runs the accumulator keeps in memory stay at or below the cap,
  // including when a single run alone is larger than the spill threshold.
  ScratchDir scratch("chisimnet_spill_acc_budget");
  util::Rng rng(43);
  const std::uint64_t budget = 1 << 20;  // 1 MiB

  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.budgetBytes = budget;
  SpillingAccumulator accumulator(options);
  std::vector<std::vector<AdjacencyTriplet>> runs;
  for (int n = 0; n < 200; ++n) {
    // Every 50th run is 640 KiB, over the 512 KiB spill threshold.
    const std::size_t size = n % 50 == 49 ? 40000 : 1500;
    runs.push_back(makeRun(rng, size, 1u << 20));
    accumulator.addSortedRun(std::vector<AdjacencyTriplet>(runs.back()));
    ASSERT_LE(accumulator.residentBytes(), budget);
  }
  EXPECT_GT(accumulator.stats().runsWritten, 0u);
  EXPECT_GT(accumulator.stats().peakResidentBytes, 0u);
  EXPECT_LE(accumulator.stats().peakResidentBytes, budget);

  EXPECT_EQ(testsupport::drainAccumulator(accumulator, scratch.path()),
            bruteForceSum(runs));
  EXPECT_EQ(accumulator.residentBytes(), 0u);
  EXPECT_LE(accumulator.stats().peakResidentBytes, budget);
}

/// Kept runs are written as they are, one shard-pure run per touched
/// shard, so a merge plan at the same shard width splits nothing.
TEST(SpillingAccumulatorTest, KeptRunsSpillShardPure) {
  ScratchDir scratch("chisimnet_spill_acc_shard_pure");
  util::Rng rng(59);
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.rowsPerShard = 16;  // a 96-row space spans 6 shards
  options.budgetBytes = 16 * 1024;
  SpillingAccumulator accumulator(options);
  std::vector<std::vector<AdjacencyTriplet>> runs;
  for (int n = 0; n < 12; ++n) {
    runs.push_back(makeRun(rng, 300, 96));
    accumulator.addSortedRun(std::vector<AdjacencyTriplet>(runs.back()));
  }
  const auto plan = accumulator.buildShardMergePlan();
  EXPECT_EQ(accumulator.stats().runsSplit, 0u);
  EXPECT_GT(plan.size(), 1u);
  std::vector<std::vector<AdjacencyTriplet>> merged;
  for (const SpillRunInfo& run : accumulator.liveRuns()) {
    EXPECT_GE(run.shardOf(options.rowsPerShard), 0) << run.file;
    SpillRunReader reader(run);
    merged.push_back(drain(reader));
  }
  EXPECT_EQ(bruteForceSum(merged), bruteForceSum(runs));
}

/// Inline runs come off the wire, so a row off the upper triangle or a
/// key that does not strictly ascend is a typed error, and nothing of the
/// bad run is kept.
TEST(SpillingAccumulatorTest, AddSortedRunRejectsMalformedRuns) {
  ScratchDir scratch("chisimnet_spill_acc_malformed");
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  const std::vector<std::vector<AdjacencyTriplet>> bad = {
      {AdjacencyTriplet{1, 2, 1}, AdjacencyTriplet{5, 5, 1}},  // i == j
      {AdjacencyTriplet{7, 3, 1}},                             // i > j
      {AdjacencyTriplet{1, 3, 1}, AdjacencyTriplet{1, 2, 1}},  // descends
      {AdjacencyTriplet{1, 2, 1}, AdjacencyTriplet{1, 2, 4}},  // repeats
  };
  for (const std::vector<AdjacencyTriplet>& run : bad) {
    EXPECT_THROW(accumulator.addSortedRun(std::vector<AdjacencyTriplet>(run)),
                 std::runtime_error);
  }
  EXPECT_EQ(accumulator.residentBytes(), 0u);
  accumulator.spillAll();
  EXPECT_TRUE(accumulator.liveRuns().empty());
}

/// The bound is on the merge, not the live set: 70 live runs stay 70
/// through the merge plan, and the shard owner's passes bring them down to
/// kMergeFanIn. The whole merge runs with room for only kMergeFanIn
/// readers plus one writer, so a merge that opened more runs at once would
/// fail to open.
TEST(SpillingAccumulatorTest, CompactionBoundsLiveRuns) {
  ScratchDir scratch("chisimnet_spill_acc_compact");
  util::Rng rng(47);
  const std::vector<AdjacencyTriplet> adds = makeRun(rng, 7000, 500);

  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  // Force 70 runs via explicit spillAll between slices.
  for (std::vector<AdjacencyTriplet>& slice :
       testsupport::sortedSlices(adds, adds.size() / 70)) {
    accumulator.addSortedRun(std::move(slice));
    accumulator.spillAll();
  }
  ASSERT_EQ(accumulator.liveRuns().size(), 70u);

  std::vector<AdjacencyTriplet> drained;
  std::vector<ShardSegment> segments;
  {
    const testsupport::OpenFileHeadroom headroom(
        static_cast<int>(kMergeFanIn) + 1);
    drained =
        testsupport::drainAccumulator(accumulator, scratch.path(), &segments);
  }
  EXPECT_EQ(drained, adds);
  // The passes are the owner's: the live set is never compacted.
  EXPECT_EQ(accumulator.liveRuns().size(), 70u);
  // 70 runs: a first pass of 8 leaves 63, one full pass leaves 32.
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].mergePasses, 2u);
}

/// Adoption only records a run: 100 adoptions read and write nothing, so
/// the counters are exactly the adopted runs and the directory holds only
/// the renamed inputs.
TEST(SpillingAccumulatorTest, AdoptionNeverRewritesRuns) {
  ScratchDir scratch("chisimnet_spill_acc_adopt_only");
  util::Rng rng(53);
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.budgetBytes = 1 << 20;
  SpillingAccumulator accumulator(options);
  std::uint64_t triplets = 0;
  std::uint64_t bytes = 0;
  for (int n = 0; n < 100; ++n) {
    const std::vector<AdjacencyTriplet> run = makeRun(rng, 20, 60);
    SpillRunWriter writer(scratch.path() / ("w0.t" + std::to_string(n) +
                                            ".0.spl"));
    writer.append(std::span<const AdjacencyTriplet>(run));
    const SpillRunInfo info = writer.finish();
    triplets += info.triplets;
    bytes += info.bytes;
    accumulator.adoptRunFile(info);
  }
  EXPECT_EQ(accumulator.stats().runsWritten, 100u);
  EXPECT_EQ(accumulator.stats().spilledTriplets, triplets);
  EXPECT_EQ(accumulator.stats().spilledBytes, bytes);
  ASSERT_EQ(accumulator.liveRuns().size(), 100u);
  std::vector<std::string> onDisk;
  for (const auto& entry : std::filesystem::directory_iterator(scratch.path())) {
    onDisk.push_back(entry.path().filename().string());
  }
  std::vector<std::string> adopted;
  for (const SpillRunInfo& run : accumulator.liveRuns()) {
    adopted.push_back(run.file.filename().string());
    EXPECT_TRUE(adopted.back().starts_with("run.")) << adopted.back();
  }
  std::sort(onDisk.begin(), onDisk.end());
  std::sort(adopted.begin(), adopted.end());
  EXPECT_EQ(onDisk, adopted);
}

TEST(SpillingAccumulatorTest, AdoptRenamesIntoOwnNamespace) {
  ScratchDir scratch("chisimnet_spill_acc_adopt");
  // A worker-named run: after a resume, worker names restart from zero,
  // so adoption must move the file out of the collidable namespace.
  const std::filesystem::path workerFile = scratch.path() / "w0.b0.0.spl";
  SpillRunInfo info;
  {
    SpillRunWriter writer(workerFile);
    writer.append(AdjacencyTriplet{1, 2, 5});
    info = writer.finish();
  }
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  accumulator.adoptRunFile(info);
  EXPECT_FALSE(std::filesystem::exists(workerFile));
  ASSERT_EQ(accumulator.liveRuns().size(), 1u);
  const std::string adopted =
      accumulator.liveRuns()[0].file.filename().string();
  EXPECT_TRUE(adopted.starts_with("run.")) << adopted;
  EXPECT_EQ(testsupport::drainAccumulator(accumulator, scratch.path()),
            (std::vector<AdjacencyTriplet>{AdjacencyTriplet{1, 2, 5}}));
}

TEST(SpillingAccumulatorTest, RestoreKeepsTheManifestName) {
  ScratchDir scratch("chisimnet_spill_acc_restore");
  const std::filesystem::path runFile = scratch.path() / "run.3.spl";
  SpillRunInfo info;
  {
    SpillRunWriter writer(runFile);
    writer.append(AdjacencyTriplet{4, 9, 2});
    info = writer.finish();
  }
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  accumulator.restoreRunFile(info);
  // Name preserved (the current manifest references it), and new runs
  // number above it instead of colliding.
  EXPECT_TRUE(std::filesystem::exists(runFile));
  accumulator.addSortedRun({AdjacencyTriplet{1, 2, 1}});
  accumulator.spillAll();
  ASSERT_EQ(accumulator.liveRuns().size(), 2u);
  EXPECT_EQ(accumulator.liveRuns()[1].file.filename().string(), "run.4.spl");
}

/// A worker file holding many runs is renamed once, by its first run's
/// adoption; the others follow it into the accumulator's namespace.
TEST(SpillingAccumulatorTest, AdoptingAMultiRunFileRenamesItOnce) {
  ScratchDir scratch("chisimnet_spill_acc_adopt_multi");
  util::Rng rng(61);
  std::vector<std::vector<AdjacencyTriplet>> runs;
  for (int n = 0; n < 3; ++n) {
    runs.push_back(makeRun(rng, 50, 40));
  }
  const std::filesystem::path workerFile = scratch.path() / "sum.w0.b0.0.spl";
  const std::vector<SpillRunInfo> infos = writeOneFile(workerFile, runs);
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  for (const SpillRunInfo& info : infos) {
    accumulator.adoptRunFile(info);
  }
  EXPECT_FALSE(std::filesystem::exists(workerFile));
  ASSERT_EQ(accumulator.liveRuns().size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(accumulator.liveRuns()[r].file, scratch.path() / "run.0.spl");
    EXPECT_EQ(accumulator.liveRuns()[r].offset, infos[r].offset);
  }
  EXPECT_EQ(accumulator.stats().runsWritten, 3u);
  EXPECT_EQ(testsupport::drainAccumulator(accumulator, scratch.path()),
            bruteForceSum(runs));
}

/// Splitting a straddler never deletes a file that still holds a live
/// run; a file whose runs were all split goes (here: is retired).
TEST(SpillingAccumulatorTest, SplitRetiresAFileOnlyOnceNoRunOfItIsLive) {
  ScratchDir scratch("chisimnet_spill_acc_split_shared");
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  options.rowsPerShard = 10;
  options.deferDeletes = true;
  // mixed.spl: a shard-0 run and a straddler; split.spl: two straddlers.
  const std::vector<AdjacencyTriplet> pure = {{1, 2, 1}, {3, 4, 1}};
  const std::vector<AdjacencyTriplet> straddler = {{2, 5, 1}, {12, 13, 1}};
  const std::vector<AdjacencyTriplet> other = {{5, 9, 2}, {25, 30, 2}};
  const std::vector<SpillRunInfo> mixed =
      writeOneFile(scratch.path() / "mixed.spl", {pure, straddler});
  const std::vector<SpillRunInfo> split =
      writeOneFile(scratch.path() / "split.spl", {straddler, other});
  SpillingAccumulator accumulator(options);
  for (const SpillRunInfo& run : mixed) {
    accumulator.restoreRunFile(run);
  }
  for (const SpillRunInfo& run : split) {
    accumulator.restoreRunFile(run);
  }
  const auto plan = accumulator.buildShardMergePlan();
  EXPECT_EQ(accumulator.stats().runsSplit, 3u);
  // Six parts, all in one new file, plus the pure run left in mixed.spl.
  std::set<std::filesystem::path> files;
  for (const SpillRunInfo& run : accumulator.liveRuns()) {
    files.insert(run.file);
  }
  EXPECT_EQ(accumulator.liveRuns().size(), 7u);
  EXPECT_EQ(files.size(), 2u);
  EXPECT_TRUE(files.contains(scratch.path() / "mixed.spl"));
  EXPECT_EQ(accumulator.takeRetiredFiles(),
            (std::vector<std::filesystem::path>{scratch.path() / "split.spl"}));
  EXPECT_EQ(testsupport::mergePlanRows(plan, scratch.path()),
            bruteForceSum({pure, straddler, straddler, other}));
}

// ---- SpillingSum ----

/// Every flush of a worker sum appends to one .tmp file, renamed once when
/// the sum is drained: many runs, one file. Each place puts 30 of 40
/// persons together for at least 17 hours, so its 435 pairs alone pass the
/// 4 KiB (256-row) floor the threshold of 1 is raised to: every place
/// flushes.
TEST(SpillingSumTest, EveryFlushGoesToOneFileRenamedOnce) {
  ScratchDir scratch("chisimnet_spill_sum_one_file");
  util::Rng rng(67);
  SpillingSum sum(scratch.path(), "w0.b0.", 1, 8);
  SymmetricAdjacency reference(64);
  const auto listDir = [&scratch] {
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(scratch.path())) {
      names.push_back(entry.path().filename().string());
    }
    return names;
  };
  int flushes = 0;
  for (table::PlaceId place = 0; place < 12; ++place) {
    std::vector<table::Event> events;
    const auto first = static_cast<table::PersonId>(rng.uniformBelow(40));
    for (table::PersonId e = 0; e < 30; ++e) {
      const auto start = static_cast<table::Hour>(rng.uniformBelow(4));
      events.push_back(table::Event{
          start, start + 20 + static_cast<table::Hour>(rng.uniformBelow(6)),
          (first + e) % 40, 0, place});
    }
    const CollocationMatrix matrix(place, events, 0, 48);
    reference.addCollocation(matrix);
    flushes += sum.addCollocation(matrix) ? 1 : 0;
    if (flushes > 0) {
      EXPECT_EQ(listDir(), std::vector<std::string>{"sum.w0.b0.0.spl.tmp"});
    }
  }
  sum.flush();
  ASSERT_GE(flushes, 2);
  EXPECT_EQ(flushes, 12);
  const std::vector<SpillRunInfo> runs = sum.takeRuns();
  EXPECT_EQ(listDir(), std::vector<std::string>{"sum.w0.b0.0.spl"});
  EXPECT_GT(runs.size(), static_cast<std::size_t>(flushes));
  std::vector<std::vector<AdjacencyTriplet>> read;
  for (const SpillRunInfo& run : runs) {
    EXPECT_EQ(run.file, scratch.path() / "sum.w0.b0.0.spl");
    EXPECT_GE(run.shardOf(8), 0);
    SpillRunReader reader(run);
    read.push_back(drain(reader));
  }
  EXPECT_EQ(bruteForceSum(read), reference.toTriplets());
  EXPECT_TRUE(sum.takeRuns().empty());
}

/// Dense-path places (20 visits of 1-6 hours by 60 persons) and, every
/// fourth, a hash-path one (300 one-hour visits spread over 150 hours, so
/// its pair slots dwarf its pair-hours). Persons recur across places, so
/// pairs repeat within a flush and across flushes.
std::vector<CollocationMatrix> mixedPlaces(util::Rng& rng, std::size_t count) {
  std::vector<CollocationMatrix> places;
  for (table::PlaceId place = 0; place < count; ++place) {
    std::vector<table::Event> events;
    const bool hub = place % 4 == 3;
    for (int e = 0; e < (hub ? 300 : 20); ++e) {
      const auto start =
          static_cast<table::Hour>(rng.uniformBelow(hub ? 150 : 24));
      const auto hours =
          hub ? 1 : 1 + static_cast<table::Hour>(rng.uniformBelow(6));
      events.push_back(table::Event{
          start, start + hours,
          static_cast<table::PersonId>(rng.uniformBelow(hub ? 400 : 60)), 0,
          place});
    }
    places.emplace_back(place, events, 0, 168);
  }
  return places;
}

/// Every row of `run` is upper-triangular and its keys strictly ascend.
bool strictlyAscending(std::span<const AdjacencyTriplet> run) {
  for (std::size_t row = 0; row < run.size(); ++row) {
    if (run[row].i >= run[row].j ||
        (row > 0 && packPair(run[row - 1].i, run[row - 1].j) >=
                        packPair(run[row].i, run[row].j))) {
      return false;
    }
  }
  return true;
}

/// The sorted runs a sum ends in — its flushed runs and its drained
/// remainder — add up to the map sum of the same places, whatever the
/// threshold: 0 and one that never fills keep everything in memory, the
/// 4 KiB floor (threshold 1) and a mid value flush many times.
TEST(SpillingSumTest, RunsAddUpToTheMapSumAtEveryThreshold) {
  util::Rng rng(71);
  const std::vector<CollocationMatrix> places = mixedPlaces(rng, 48);
  SymmetricAdjacency reference(64);
  for (const CollocationMatrix& place : places) {
    reference.addCollocation(place);
  }
  const std::vector<AdjacencyTriplet> expected = reference.toTriplets();
  const AdjacencyKernelStats& stats = reference.kernelStats();
  ASSERT_GT(stats.densePlaces, 0u);
  ASSERT_GT(stats.hashPlaces, 0u);
  ASSERT_GT(stats.globalEmits, expected.size()) << "no pair repeats";

  std::map<std::uint64_t, int> flushesAt;
  for (const std::uint64_t threshold :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{16} << 10,
        std::uint64_t{1} << 30}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    ScratchDir scratch("chisimnet_spill_sum_threshold_" +
                       std::to_string(threshold));
    SpillingSum sum(scratch.path(), "w0.b0.", threshold, 64);
    int flushes = 0;
    for (const CollocationMatrix& place : places) {
      flushes += sum.addCollocation(place) ? 1 : 0;
    }
    std::vector<std::vector<AdjacencyTriplet>> runs{sum.drainInMemory()};
    for (const SpillRunInfo& run : sum.takeRuns()) {
      EXPECT_GE(run.shardOf(64), 0);
      SpillRunReader reader(run);
      runs.push_back(drain(reader));
    }
    for (const std::vector<AdjacencyTriplet>& run : runs) {
      EXPECT_TRUE(strictlyAscending(run));
    }
    EXPECT_EQ(bruteForceSum(runs), expected);
    EXPECT_EQ(sum.kernelStats().globalEmits, stats.globalEmits);
    EXPECT_EQ(sum.kernelStats().pairHourUpdates, stats.pairHourUpdates);
    EXPECT_EQ(sum.kernelStats().hashPlaces, stats.hashPlaces);
    flushesAt[threshold] = flushes;
  }
  EXPECT_EQ(flushesAt[0], 0);
  EXPECT_EQ(flushesAt[std::uint64_t{1} << 30], 0);
  EXPECT_GT(flushesAt[std::uint64_t{16} << 10], 1);
  EXPECT_GT(flushesAt[1], flushesAt[std::uint64_t{16} << 10]);
}

/// Equal pairs add up across the sort, also past UINT32_MAX (a weight no
/// single place can carry: a place's counts are uint32).
TEST(SpillingSumTest, SortAndSumAddsEqualPairsPastUint32) {
  constexpr std::uint64_t kBig = std::uint64_t{0xFFFFFFFF};
  std::vector<AdjacencyTriplet> triplets{{5, 9, kBig}, {1, 2, 3},
                                         {5, 9, kBig}, {1, 70000, 1},
                                         {1, 2, 4},    {5, 9, 2}};
  util::DefaultInitVector<AdjacencyTriplet> scratch;
  triplets.resize(sortAndSumTriplets(triplets, scratch));
  EXPECT_EQ(triplets, (std::vector<AdjacencyTriplet>{
                          {1, 2, 7}, {1, 70000, 1}, {5, 9, 2 * kBig + 2}}));
  EXPECT_EQ(sortAndSumTriplets({}, scratch), 0u);
}

/// A sum whose pairs stay below its threshold never flushes, however many
/// places it takes: it writes no file and drains everything in memory.
TEST(SpillingSumTest, ASumBelowItsThresholdNeverFlushes) {
  ScratchDir scratch("chisimnet_spill_sum_below");
  SpillingSum sum(scratch.path(), "w0.b0.", 8 << 10, 64);  // 512 rows
  SymmetricAdjacency reference(64);
  for (table::PlaceId place = 0; place < 100; ++place) {
    // Two persons sharing two hours: one pair per place.
    const std::vector<table::Event> events{
        table::Event{0, 3, place, 0, place},
        table::Event{1, 4, place + 1, 0, place}};
    const CollocationMatrix matrix(place, events, 0, 8);
    reference.addCollocation(matrix);
    EXPECT_FALSE(sum.addCollocation(matrix)) << "place " << place;
  }
  EXPECT_EQ(sum.residentTriplets(), 100u);
  EXPECT_TRUE(sum.takeRuns().empty());
  EXPECT_TRUE(std::filesystem::is_empty(scratch.path()));
  EXPECT_EQ(sum.drainInMemory(), reference.toTriplets());
}

/// peakBytes counts the buffer and the radix sort's scratch: below
/// util::kInPlaceMinItems rows the scratch is as long as the buffer, so a
/// drain of n appended pairs peaks at no less than twice their bytes.
TEST(SpillingSumTest, PeakBytesIncludeTheSortScratch) {
  util::Rng rng(73);
  SpillingSum sum({}, "w0.b0.", 0, 64);
  for (const CollocationMatrix& place : mixedPlaces(rng, 16)) {
    sum.addCollocation(place);
  }
  const std::uint64_t appended = sum.residentTriplets();
  ASSERT_EQ(appended, sum.kernelStats().globalEmits);
  ASSERT_GT(appended, 1000u);
  ASSERT_LE(appended, util::kInPlaceMinItems);
  EXPECT_GE(sum.peakBytes(), appended * sizeof(AdjacencyTriplet));
  const std::vector<AdjacencyTriplet> drained = sum.drainInMemory();
  EXPECT_LT(drained.size(), appended);
  EXPECT_GE(sum.peakBytes(), 2 * appended * sizeof(AdjacencyTriplet));
}

/// A killed writer's husk: the next accumulator over the directory sweeps
/// the .tmp of its own runs and of stage-5 sums, and nothing else.
TEST(SpillingSumTest, AccumulatorStartupSweepsSumHusks) {
  ScratchDir scratch("chisimnet_spill_sum_husk");
  for (const char* name : {"sum.t7.0.spl.tmp", "sum.w1.b0.0.spl.tmp"}) {
    std::ofstream(scratch.path() / name) << "killed between two flushes";
  }
  std::ofstream(scratch.path() / "other.1.spl.tmp") << "not ours";
  std::ofstream(scratch.path() / "sum.t7.0.spl") << "a committed file";
  SpillingAccumulator::Options options;
  options.dir = scratch.path();
  SpillingAccumulator accumulator(options);
  EXPECT_FALSE(std::filesystem::exists(scratch.path() / "sum.t7.0.spl.tmp"));
  EXPECT_FALSE(
      std::filesystem::exists(scratch.path() / "sum.w1.b0.0.spl.tmp"));
  EXPECT_TRUE(std::filesystem::exists(scratch.path() / "other.1.spl.tmp"));
  EXPECT_TRUE(std::filesystem::exists(scratch.path() / "sum.t7.0.spl"));
}

}  // namespace
}  // namespace chisimnet::sparse
