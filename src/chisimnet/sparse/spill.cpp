#include "chisimnet/sparse/spill.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <memory>
#include <set>
#include <system_error>
#include <utility>

#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/sparse/local_kernel.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/radix_sort.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::sparse {

namespace {

constexpr char kSpillMagic[4] = {'C', 'S', 'P', 'L'};
constexpr std::uint32_t kSpillVersion = 1;
/// Header: magic 4 | version u32 | tripletCount u64.
constexpr std::uint64_t kSpillHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kTripletBytes = sizeof(AdjacencyTriplet);
/// SpillRunReader's extent length for "the rest of the file".
constexpr std::uint64_t kWholeFile = ~std::uint64_t{0};
static_assert(sizeof(AdjacencyTriplet) == 16,
              "spill frames assume 16-byte packed triplets");

/// Floor for spill/flush thresholds so pathological tiny budgets still
/// write runs of a few hundred rows instead of one per place or kept run.
constexpr std::uint64_t kMinSpillThresholdBytes = 4096;

}  // namespace

// ---------------------------------------------------------------- writer

SpillRunWriter::SpillRunWriter(std::filesystem::path path)
    : path_(std::move(path)), tmp_(path_.string() + ".tmp") {
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out_.good(),
               "cannot open spill run for writing: " + tmp_.string());
}

SpillRunWriter::~SpillRunWriter() {
  if (!committed_) {
    out_.close();
    std::error_code ignored;
    std::filesystem::remove(tmp_, ignored);
  }
}

void SpillRunWriter::beginRun(std::uint64_t count) {
  CHISIM_REQUIRE(!committed_, "spill file already committed");
  runStart_ = position_;
  total_ = 0;
  any_ = false;
  firstKey_ = 0;
  lastKey_ = 0;
  out_.write(kSpillMagic, 4);
  util::writeU32(out_, kSpillVersion);
  util::writeU64(out_, count);
  position_ += kSpillHeaderBytes;
}

SpillRunInfo SpillRunWriter::recordRun() {
  runs_.push_back(SpillRunInfo{path_, runStart_, total_,
                               position_ - runStart_, firstKey_, lastKey_});
  return runs_.back();
}

void SpillRunWriter::checkAscending(const AdjacencyTriplet& triplet) {
  const std::uint64_t key = packPair(triplet.i, triplet.j);
  CHISIM_CHECK(!any_ || key > lastKey_,
               "spill run rows must be strictly key-ascending: " +
                   path_.string());
  if (!any_) {
    firstKey_ = key;
  }
  lastKey_ = key;
  any_ = true;
}

void SpillRunWriter::append(const AdjacencyTriplet& triplet) {
  if (!runOpen_) {
    beginRun(0);  // the count is patched by endRun()
    runOpen_ = true;
  }
  checkAscending(triplet);
  frame_.push_back(triplet);
  if (frame_.size() >= kSpillFrameTriplets) {
    flushFrame();
  }
}

void SpillRunWriter::append(std::span<const AdjacencyTriplet> sorted) {
  for (const AdjacencyTriplet& triplet : sorted) {
    append(triplet);
  }
}

void SpillRunWriter::writeFrame(std::span<const AdjacencyTriplet> rows) {
  const std::span<const std::byte> payload = util::rowBytes(rows);
  util::writeU32(out_, static_cast<std::uint32_t>(rows.size()));
  util::writeU32(out_, util::crc32(payload));
  util::writeBytes(out_, payload);
  position_ += 8 + payload.size();
  total_ += rows.size();
}

void SpillRunWriter::flushFrame() {
  if (frame_.empty()) {
    return;
  }
  writeFrame(frame_);
  frame_.clear();
}

SpillRunInfo SpillRunWriter::endRun() {
  if (!runOpen_) {
    beginRun(0);
  }
  runOpen_ = false;
  flushFrame();
  out_.seekp(static_cast<std::streamoff>(runStart_ + 8));
  util::writeU64(out_, total_);
  out_.seekp(static_cast<std::streamoff>(position_));
  return recordRun();
}

SpillRunInfo SpillRunWriter::appendRun(
    std::span<const AdjacencyTriplet> sorted) {
  CHISIM_REQUIRE(!runOpen_, "appendRun while a streamed run is open");
  beginRun(sorted.size());
  for (const AdjacencyTriplet& triplet : sorted) {
    checkAscending(triplet);
  }
  for (std::size_t row = 0; row < sorted.size(); row += kSpillFrameTriplets) {
    writeFrame(sorted.subspan(
        row, std::min(kSpillFrameTriplets, sorted.size() - row)));
  }
  return recordRun();
}

std::vector<SpillRunInfo> SpillRunWriter::commit() {
  CHISIM_REQUIRE(!committed_, "spill file already committed");
  if (runOpen_) {
    endRun();
  }
  out_.flush();
  CHISIM_CHECK(out_.good(), "spill run write failed: " + tmp_.string());
  out_.close();
  // A kThrow here models dying mid-spill: the complete .tmp is on disk but
  // never renamed, so resume-side GC sees only an orphan.
  runtime::fault::hit("spill.write");
  std::filesystem::rename(tmp_, path_);
  committed_ = true;
  return std::move(runs_);
}

SpillRunInfo SpillRunWriter::finish() {
  if (runOpen_ || runs_.empty()) {
    endRun();
  }
  std::vector<SpillRunInfo> runs = commit();
  CHISIM_REQUIRE(runs.size() == 1, "finish() commits a one-run file");
  return runs.front();
}

// ---------------------------------------------------------------- reader

SpillRunReader::SpillRunReader(const SpillRunInfo& run)
    : path_(run.file), in_(path_, std::ios::binary) {
  open(run.offset, run.bytes);
}

SpillRunReader::SpillRunReader(std::filesystem::path path)
    : path_(std::move(path)), in_(path_, std::ios::binary) {
  open(0, kWholeFile);
}

void SpillRunReader::fail(const std::string& what,
                          std::uint64_t offset) const {
  CHISIM_CHECK(false, "spill run " + path_.string() + " at byte offset " +
                          std::to_string(offset) + ": " + what);
}

void SpillRunReader::open(std::uint64_t offset, std::uint64_t bytes) {
  CHISIM_CHECK(in_.good(), "cannot open spill run: " + path_.string());
  in_.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in_.tellg());
  if (bytes == kWholeFile) {
    bytes = size >= offset ? size - offset : 0;
  }
  if (offset > size || bytes > size - offset) {
    fail("truncated: the run's extent of " + std::to_string(bytes) +
             " bytes ends past the end of the file (" + std::to_string(size) +
             " bytes)",
         offset);
  }
  if (bytes < kSpillHeaderBytes) {
    fail("the run's extent of " + std::to_string(bytes) +
             " bytes cannot hold a run header",
         offset);
  }
  in_.seekg(static_cast<std::streamoff>(offset));
  std::byte header[kSpillHeaderBytes];
  in_.read(reinterpret_cast<char*>(header), kSpillHeaderBytes);
  if (in_.gcount() != static_cast<std::streamsize>(kSpillHeaderBytes)) {
    fail("truncated run header", offset);
  }
  if (!std::equal(header, header + 4,
                  reinterpret_cast<const std::byte*>(kSpillMagic))) {
    fail("not a CSPL spill run", offset);
  }
  util::ByteReader fields(std::span<const std::byte>(header).subspan(4),
                          "spill run header");
  const std::uint32_t version = fields.u32();
  if (version != kSpillVersion) {
    fail("unsupported spill run version " + std::to_string(version), offset);
  }
  total_ = fields.u64();
  position_ = offset + kSpillHeaderBytes;
  extentEnd_ = offset + bytes;
}

bool SpillRunReader::readFrame() {
  const std::uint64_t frameOffset = position_;
  if (decoded_ == total_) {
    // Every declared row is decoded: the run must end where its extent
    // does, neither short of it nor (checked per frame below) past it.
    if (position_ != extentEnd_) {
      fail("the run's frames end " + std::to_string(extentEnd_ - position_) +
               " bytes before its extent does (at byte " +
               std::to_string(extentEnd_) + ")",
           frameOffset);
    }
    return false;
  }
  if (frame_.capacity() == 0) {
    // First frame: refuse a header count the extent cannot hold before
    // anything is allocated, then size the buffer to the run.
    if (total_ > (extentEnd_ - position_) / kTripletBytes) {
      fail("truncated: header declares " + std::to_string(total_) +
               " triplets, more than the " +
               std::to_string(extentEnd_ - position_) +
               " bytes of the run's extent can hold",
           frameOffset);
    }
    frame_.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(total_, kSpillFrameTriplets)));
  }
  if (extentEnd_ - position_ < 8) {
    fail("truncated: header declares " + std::to_string(total_) +
             " triplets but only " + std::to_string(decoded_) +
             " are present",
         frameOffset);
  }
  std::byte header[8];
  in_.read(reinterpret_cast<char*>(header), 8);
  if (in_.gcount() != 8) {
    fail("truncated frame header", frameOffset);
  }
  util::ByteReader fields(header, "spill frame header");
  const std::uint32_t count = fields.u32();
  const std::uint32_t storedCrc = fields.u32();
  if (count == 0 || count > kSpillFrameTriplets) {
    fail("corrupt frame header: implausible row count " +
             std::to_string(count),
         frameOffset);
  }
  if (count > total_ - decoded_) {
    fail("more triplets than the header declares (" + std::to_string(total_) +
             ")",
         frameOffset);
  }
  const std::uint64_t payloadBytes = std::uint64_t{count} * kTripletBytes;
  if (payloadBytes > extentEnd_ - position_ - 8) {
    fail("the frame's " + std::to_string(payloadBytes) +
             " payload bytes run past the run's extent (which ends at byte " +
             std::to_string(extentEnd_) + ")",
         frameOffset);
  }
  // The payload is the frame's AdjacencyTriplet row block: read it in
  // place, then check its CRC.
  frame_.resize(count);
  const std::span<std::byte> payload =
      util::writableRowBytes(std::span<AdjacencyTriplet>(frame_));
  in_.read(reinterpret_cast<char*>(payload.data()),
           static_cast<std::streamsize>(payload.size()));
  if (in_.gcount() != static_cast<std::streamsize>(payload.size())) {
    fail("truncated frame payload (wanted " + std::to_string(payload.size()) +
             " bytes, got " + std::to_string(in_.gcount()) + ")",
         frameOffset);
  }
  const std::uint32_t actualCrc = util::crc32(payload);
  if (actualCrc != storedCrc) {
    fail("frame CRC mismatch (stored " + std::to_string(storedCrc) +
             ", computed " + std::to_string(actualCrc) + ")",
         frameOffset);
  }
  position_ += 8 + payloadBytes;
  decoded_ += count;
  return true;
}

bool SpillRunReader::next(AdjacencyTriplet& out) {
  if (cursor_ == frame_.size()) {
    // A frame holds at least one row, so a fresh one always has a next.
    if (exhausted_ || !readFrame()) {
      exhausted_ = true;
      return false;
    }
    cursor_ = 0;
  }
  out = frame_[cursor_++];
  return true;
}

// --------------------------------------------------------- bounded merge

namespace {

/// Streams the k-way merge over at most kMergeFanIn runs into `sink`.
template <typename Sink>
void mergeRuns(std::span<const SpillRunInfo> runs, Sink& sink) {
  CHISIM_REQUIRE(runs.size() <= kMergeFanIn,
                 "a merge opens at most kMergeFanIn runs");
  std::vector<std::unique_ptr<TripletSource>> readers;
  readers.reserve(runs.size());
  for (const SpillRunInfo& run : runs) {
    readers.push_back(std::make_unique<SpillRunReader>(run));
  }
  TripletMerger merger(std::move(readers));
  AdjacencyTriplet triplet;
  while (merger.next(triplet)) {
    sink.append(triplet);
  }
}

/// The intermediate passes of one bounded merge: their count, the run
/// bytes they wrote, and the pass outputs still on disk, which are deleted
/// when this goes out of scope.
struct PassFiles {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  std::vector<std::filesystem::path> files;

  PassFiles() = default;
  PassFiles(const PassFiles&) = delete;
  PassFiles& operator=(const PassFiles&) = delete;
  ~PassFiles() {
    for (const std::filesystem::path& file : files) {
      std::error_code ignored;
      std::filesystem::remove(file, ignored);
    }
  }
};

/// Merges the smallest of `runs` in passes of at most kMergeFanIn until no
/// more than kMergeFanIn remain, and returns those. Pass n writes
/// `<stem>.p<n>.spl`; a pass output that a later pass consumes is deleted
/// at once, so `passes.files` ends up naming the pass outputs among the
/// returned runs. Input runs are only read.
std::vector<SpillRunInfo> mergeToFanIn(std::vector<SpillRunInfo> runs,
                                       const std::string& stem,
                                       PassFiles& passes) {
  if (runs.size() <= kMergeFanIn) {
    return runs;
  }
  const auto smaller = [](const SpillRunInfo& a, const SpillRunInfo& b) {
    return a.bytes < b.bytes;
  };
  std::stable_sort(runs.begin(), runs.end(), smaller);
  // Each pass turns `take` runs into one. The first pass takes just enough
  // that every later pass, the final merge included, is a full
  // kMergeFanIn-way merge.
  std::size_t take = 2 + (runs.size() - 2) % (kMergeFanIn - 1);
  while (runs.size() > kMergeFanIn) {
    runtime::fault::hit("spill.merge");
    const std::span<const SpillRunInfo> inputs(runs.data(), take);
    SpillRunWriter writer(stem + ".p" + std::to_string(passes.count) +
                          ".spl");
    mergeRuns(inputs, writer);
    SpillRunInfo merged = writer.finish();
    passes.files.push_back(merged.file);
    ++passes.count;
    passes.bytes += merged.bytes;
    for (const SpillRunInfo& input : inputs) {
      const auto own =
          std::find(passes.files.begin(), passes.files.end(), input.file);
      if (own != passes.files.end()) {
        std::error_code ignored;
        std::filesystem::remove(*own, ignored);
        passes.files.erase(own);
      }
    }
    runs.erase(runs.begin(), runs.begin() + static_cast<std::ptrdiff_t>(take));
    runs.insert(std::upper_bound(runs.begin(), runs.end(), merged, smaller),
                std::move(merged));
    take = kMergeFanIn;
  }
  return runs;
}

}  // namespace

// ---------------------------------------------------------- accumulator

SpillingAccumulator::SpillingAccumulator(Options options)
    : options_(std::move(options)) {
  CHISIM_REQUIRE(!options_.dir.empty(),
                 "a spilling accumulator needs a run directory");
  CHISIM_REQUIRE(options_.rowsPerShard >= 1, "rowsPerShard must be >= 1");
  std::filesystem::create_directories(options_.dir);
  if (options_.budgetBytes > 0) {
    spillThreshold_ =
        std::max(options_.budgetBytes / 2, kMinSpillThresholdBytes);
  }
  // Resume-safe run numbering: start above any run file of this prefix
  // already in the directory (adopted checkpoint runs keep their names).
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    const bool ours = name.starts_with(options_.runPrefix);
    if ((ours || name.starts_with(kSumFilePrefix)) &&
        name.ends_with(".spl.tmp")) {
      // A SIGKILL during a spill write (this accumulator's, or a stage-5
      // sum's between two flushes) leaves an unrenamed .tmp behind; it is
      // unreachable state and would otherwise accumulate across starts.
      std::error_code ignored;
      std::filesystem::remove(entry.path(), ignored);
      continue;
    }
    if (!ours || !name.ends_with(".spl")) {
      continue;
    }
    const std::string middle = name.substr(
        options_.runPrefix.size(),
        name.size() - options_.runPrefix.size() - 4);
    std::uint64_t index = 0;
    const auto [ptr, ec] =
        std::from_chars(middle.data(), middle.data() + middle.size(), index);
    if (ec == std::errc{} && ptr == middle.data() + middle.size()) {
      nextRunIndex_ = std::max(nextRunIndex_, index + 1);
    }
  }
}

std::filesystem::path SpillingAccumulator::nextRunPath() {
  return options_.dir /
         (options_.runPrefix + std::to_string(nextRunIndex_++) + ".spl");
}

void SpillingAccumulator::noteWorkerPeak(std::uint64_t extraBytes) noexcept {
  stats_.peakWorkerBytes = std::max(stats_.peakWorkerBytes, extraBytes);
}

void SpillingAccumulator::addSortedRun(std::vector<AdjacencyTriplet>&& run) {
  // Inline runs come off the mp wire: check every row before keeping it.
  std::uint64_t lastKey = 0;
  for (std::size_t row = 0; row < run.size(); ++row) {
    const AdjacencyTriplet& triplet = run[row];
    CHISIM_CHECK(triplet.i < triplet.j,
                 "sorted run row " + std::to_string(row) + " (" +
                     std::to_string(triplet.i) + ", " +
                     std::to_string(triplet.j) + ") is not upper-triangular");
    const std::uint64_t key = packPair(triplet.i, triplet.j);
    CHISIM_CHECK(row == 0 || key > lastKey,
                 "sorted run row " + std::to_string(row) +
                     " does not strictly ascend");
    lastKey = key;
  }
  if (run.empty()) {
    return;
  }
  const std::uint64_t bytes = run.capacity() * kTripletBytes;
  if (spillThreshold_ > 0 && residentBytes_ + bytes > spillThreshold_) {
    if (bytes > spillThreshold_) {
      // Alone past the threshold: written at once, in the same file as the
      // runs kept so far.
      kept_.push_back(std::move(run));
      spillAll();
      return;
    }
    spillAll();
  }
  residentBytes_ += bytes;
  kept_.push_back(std::move(run));
  stats_.peakResidentBytes =
      std::max(stats_.peakResidentBytes, residentBytes_);
}

void SpillingAccumulator::adoptRunFile(const SpillRunInfo& info) {
  SpillRunInfo owned = info;
  if (info.file != adoptedFrom_) {
    CHISIM_CHECK(std::filesystem::exists(info.file),
                 "cannot adopt a missing spill run: " + info.file.string());
    adoptedFrom_ = info.file;
    adoptedAs_ = nextRunPath();
    std::filesystem::rename(adoptedFrom_, adoptedAs_);
  }
  owned.file = adoptedAs_;
  runs_.push_back(std::move(owned));
  ++stats_.runsWritten;
  stats_.spilledTriplets += info.triplets;
  stats_.spilledBytes += info.bytes;
}

void SpillingAccumulator::restoreRunFile(const SpillRunInfo& info) {
  CHISIM_CHECK(std::filesystem::exists(info.file),
               "checkpoint manifest references a missing spill run: " +
                   info.file.string());
  // Restored runs are prior-life state, not this run's spill activity:
  // they count toward the live set but not the written/spilled counters.
  runs_.push_back(info);
  ++stats_.runsRestored;
}

void SpillingAccumulator::recordWritten(const std::vector<SpillRunInfo>& written,
                                        std::vector<SpillRunInfo>& out) {
  for (const SpillRunInfo& run : written) {
    ++stats_.runsWritten;
    stats_.spilledTriplets += run.triplets;
    stats_.spilledBytes += run.bytes;
    out.push_back(run);
  }
}

void SpillingAccumulator::spillAll() {
  if (kept_.empty()) {
    return;
  }
  SpillRunWriter writer(nextRunPath());
  for (const std::vector<AdjacencyTriplet>& run : kept_) {
    appendShardRuns(writer, run, options_.rowsPerShard);
  }
  recordWritten(writer.commit(), runs_);
  kept_.clear();
  residentBytes_ = 0;
}

void SpillingAccumulator::retireRunFile(std::filesystem::path file) {
  if (options_.deferDeletes) {
    retired_.push_back(std::move(file));
  } else {
    std::error_code ignored;
    std::filesystem::remove(file, ignored);
  }
}

void SpillingAccumulator::splitRuns(std::span<const SpillRunInfo> straddlers,
                                    std::vector<SpillRunInfo>& out) {
  if (straddlers.empty()) {
    return;
  }
  SpillRunWriter writer(nextRunPath());
  for (const SpillRunInfo& run : straddlers) {
    SpillRunReader reader(run);
    std::int64_t currentShard = -1;
    AdjacencyTriplet triplet;
    while (reader.next(triplet)) {
      const std::int64_t shard =
          static_cast<std::int64_t>(triplet.i / options_.rowsPerShard);
      if (shard != currentShard && currentShard >= 0) {
        writer.endRun();
      }
      currentShard = shard;
      writer.append(triplet);
    }
    writer.endRun();
    ++stats_.runsSplit;
  }
  recordWritten(writer.commit(), out);
}

std::vector<SpillingAccumulator::ShardRunGroup>
SpillingAccumulator::buildShardMergePlan() {
  spillAll();
  std::vector<SpillRunInfo> pure;
  std::vector<SpillRunInfo> straddlers;
  std::set<std::filesystem::path> superseded;
  pure.reserve(runs_.size());
  for (SpillRunInfo& run : runs_) {
    if (run.triplets == 0) {
      superseded.insert(run.file);
    } else if (run.shardOf(options_.rowsPerShard) >= 0) {
      pure.push_back(std::move(run));
    } else {
      superseded.insert(run.file);
      straddlers.push_back(std::move(run));
    }
  }
  splitRuns(straddlers, pure);
  runs_ = std::move(pure);
  // A file goes only once none of its runs is live: the others in it stay.
  for (const SpillRunInfo& run : runs_) {
    superseded.erase(run.file);
  }
  for (const std::filesystem::path& file : superseded) {
    retireRunFile(file);
  }
  std::map<std::uint32_t, std::vector<SpillRunInfo>> byShard;
  for (const SpillRunInfo& run : runs_) {
    const std::int64_t shard = run.shardOf(options_.rowsPerShard);
    CHISIM_CHECK(shard >= 0, "split left a straddling run: " +
                                 run.file.string());
    byShard[static_cast<std::uint32_t>(shard)].push_back(run);
  }
  std::vector<ShardRunGroup> plan;
  plan.reserve(byShard.size());
  for (auto& [shard, runs] : byShard) {
    plan.push_back(ShardRunGroup{shard, std::move(runs)});
  }
  return plan;
}

std::vector<std::filesystem::path> SpillingAccumulator::takeRetiredFiles() {
  return std::exchange(retired_, {});
}

// ---------------------------------------------------------- worker sum

SpillingSum::SpillingSum(std::filesystem::path dir, std::string filePrefix,
                         std::uint64_t flushThresholdBytes,
                         std::uint32_t splitRows)
    : dir_(std::move(dir)),
      filePrefix_(std::move(filePrefix)),
      splitRows_(splitRows) {
  CHISIM_REQUIRE(splitRows_ >= 1, "splitRows must be >= 1");
  if (flushThresholdBytes > 0) {
    flushThreshold_ = std::max(flushThresholdBytes, kMinSpillThresholdBytes);
    CHISIM_REQUIRE(!dir_.empty(),
                   "a flushing stage-5 sum needs a spill directory");
  }
}

bool SpillingSum::addCollocation(const CollocationMatrix& matrix) {
  detail::addViaLocalAccumulate(
      matrix, kernelStats_, [this](std::uint64_t key, std::uint64_t count) {
        pairs_.push_back(AdjacencyTriplet{pairLow(key), pairHigh(key), count});
      });
  if (flushThreshold_ > 0 && pairs_.size() * kTripletBytes > flushThreshold_) {
    flush();
    return true;
  }
  return false;
}

void SpillingSum::sortAndSum() {
  pairs_.resize(sortAndSumTriplets(pairs_, sortScratch_));
  peakBytes_ = peakBytes();
}

void SpillingSum::flush() {
  if (pairs_.empty()) {
    return;
  }
  sortAndSum();
  if (!writer_) {
    writer_ = std::make_unique<SpillRunWriter>(
        dir_ / (std::string(kSumFilePrefix) + filePrefix_ +
                std::to_string(nextFileIndex_++) + ".spl"));
  }
  appendShardRuns(*writer_, pairs_, splitRows_);
  pairs_.clear();
}

std::vector<AdjacencyTriplet> SpillingSum::drainInMemory() {
  sortAndSum();
  sortScratch_ = {};
  // A buffer that flushed keeps the capacity it filled: copy its small
  // remainder out instead of handing that capacity to the sink. An
  // unflushed buffer is handed over whole, so no drain holds two copies.
  if (pairs_.capacity() > 2 * pairs_.size()) {
    std::vector<AdjacencyTriplet> run(pairs_.begin(), pairs_.end());
    pairs_ = {};
    return run;
  }
  return std::exchange(pairs_, {});
}

std::vector<SpillRunInfo> SpillingSum::takeRuns() {
  if (!writer_) {
    return {};
  }
  std::vector<SpillRunInfo> runs = writer_->commit();
  writer_.reset();
  return runs;
}

std::size_t sortAndSumTriplets(
    std::span<AdjacencyTriplet> triplets,
    util::DefaultInitVector<AdjacencyTriplet>& scratch) {
  util::radixSortInPlace(triplets, scratch, [](const AdjacencyTriplet& triplet) {
    return (std::uint64_t{triplet.i} << 32) | triplet.j;
  });
  if (triplets.empty()) {
    return 0;
  }
  std::size_t last = 0;
  for (std::size_t k = 1; k < triplets.size(); ++k) {
    AdjacencyTriplet& kept = triplets[last];
    if (triplets[k].i == kept.i && triplets[k].j == kept.j) {
      kept.weight += triplets[k].weight;
    } else {
      triplets[++last] = triplets[k];
    }
  }
  return last + 1;
}

void appendShardRuns(SpillRunWriter& writer,
                     std::span<const AdjacencyTriplet> sorted,
                     std::uint32_t splitRows) {
  CHISIM_REQUIRE(splitRows >= 1, "splitRows must be >= 1");
  std::size_t begin = 0;
  while (begin < sorted.size()) {
    const std::uint32_t shard = sorted[begin].i / splitRows;
    std::size_t end = begin + 1;
    while (end < sorted.size() && sorted[end].i / splitRows == shard) {
      ++end;
    }
    writer.appendRun(sorted.subspan(begin, end - begin));
    begin = end;
  }
}

std::vector<SpillRunInfo> writeShardRuns(
    const std::filesystem::path& file,
    std::span<const AdjacencyTriplet> sorted, std::uint32_t splitRows) {
  if (sorted.empty()) {
    return {};
  }
  SpillRunWriter writer(file);
  appendShardRuns(writer, sorted, splitRows);
  return writer.commit();
}

// -------------------------------------------------------- shard merge

ShardSegment mergeShardRuns(std::uint32_t shard,
                            std::span<const SpillRunInfo> runs,
                            const std::filesystem::path& segmentFile) {
  util::ThreadCpuTimer timer;
  // Pass files are named after the segment: seg.<shard>[.t<token>].p<n>.spl.
  const std::string stem =
      (segmentFile.parent_path() / segmentFile.stem()).string();
  PassFiles passes;
  const std::vector<SpillRunInfo> left =
      mergeToFanIn({runs.begin(), runs.end()}, stem, passes);
  TripletSegmentWriter writer(segmentFile);
  mergeRuns(left, writer);
  ShardSegment segment = writer.finish();
  segment.shard = shard;
  segment.mergePasses = passes.count;
  segment.mergePassBytes = passes.bytes;
  segment.mergeSeconds = timer.seconds();
  return segment;  // the segment is in place: `passes` deletes its files
}

}  // namespace chisimnet::sparse
