#include "chisimnet/sparse/spill.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <memory>
#include <system_error>
#include <utility>

#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::sparse {

namespace {

constexpr char kSpillMagic[4] = {'C', 'S', 'P', 'L'};
constexpr std::uint32_t kSpillVersion = 1;
/// Header: magic 4 | version u32 | tripletCount u64.
constexpr std::uint64_t kSpillHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kTripletBytes = sizeof(AdjacencyTriplet);
static_assert(sizeof(AdjacencyTriplet) == 16,
              "spill frames assume 16-byte packed triplets");

/// Floor for spill/flush thresholds so pathological tiny budgets still
/// terminate: a threshold below one minimal hash table would spill on
/// every insert.
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
  out_.write(kSpillMagic, 4);
  util::writeU32(out_, kSpillVersion);
  util::writeU64(out_, 0);  // triplet count, patched by finish()
  frame_.reserve(kSpillFrameTriplets);
}

SpillRunWriter::~SpillRunWriter() {
  if (!finished_) {
    out_.close();
    std::error_code ignored;
    std::filesystem::remove(tmp_, ignored);
  }
}

void SpillRunWriter::append(const AdjacencyTriplet& triplet) {
  const std::uint64_t key = packPair(triplet.i, triplet.j);
  CHISIM_CHECK(!any_ || key > lastKey_,
               "spill run rows must be strictly key-ascending: " +
                   path_.string());
  if (!any_) {
    firstKey_ = key;
  }
  lastKey_ = key;
  any_ = true;
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

void SpillRunWriter::flushFrame() {
  if (frame_.empty()) {
    return;
  }
  const std::span<const std::byte> payload =
      util::rowBytes(std::span<const AdjacencyTriplet>(frame_));
  util::writeU32(out_, static_cast<std::uint32_t>(frame_.size()));
  util::writeU32(out_, util::crc32(payload));
  util::writeBytes(out_, payload);
  total_ += frame_.size();
  frame_.clear();
}

SpillRunInfo SpillRunWriter::finish() {
  CHISIM_REQUIRE(!finished_, "spill run already finished");
  flushFrame();
  out_.seekp(8);
  util::writeU64(out_, total_);
  out_.flush();
  CHISIM_CHECK(out_.good(), "spill run write failed: " + tmp_.string());
  out_.close();
  // A kThrow here models dying mid-spill: the complete .tmp is on disk but
  // never renamed, so resume-side GC sees only an orphan.
  runtime::fault::hit("spill.write");
  std::filesystem::rename(tmp_, path_);
  finished_ = true;
  SpillRunInfo info;
  info.file = path_;
  info.triplets = total_;
  info.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(path_));
  info.firstKey = firstKey_;
  info.lastKey = lastKey_;
  return info;
}

// ---------------------------------------------------------------- reader

SpillRunReader::SpillRunReader(std::filesystem::path path)
    : path_(std::move(path)), in_(path_, std::ios::binary) {
  CHISIM_CHECK(in_.good(), "cannot open spill run: " + path_.string());
  char magic[4];
  in_.read(magic, 4);
  CHISIM_CHECK(in_.gcount() == 4 && std::equal(magic, magic + 4, kSpillMagic),
               "not a CSPL spill run: " + path_.string());
  CHISIM_CHECK(util::readU32(in_) == kSpillVersion,
               "unsupported spill run version: " + path_.string());
  total_ = util::readU64(in_);
  frame_.reserve(kSpillFrameTriplets);
}

void SpillRunReader::fail(const std::string& what,
                          std::uint64_t offset) const {
  CHISIM_CHECK(false, "spill run " + path_.string() + " at byte offset " +
                          std::to_string(offset) + ": " + what);
}

bool SpillRunReader::readFrame() {
  const std::uint64_t frameOffset =
      static_cast<std::uint64_t>(in_.tellg());
  std::byte header[8];
  in_.read(reinterpret_cast<char*>(header), 8);
  if (in_.gcount() == 0 && in_.eof()) {
    // Clean end of file at a frame boundary: the header count must agree.
    if (decoded_ != total_) {
      fail("truncated: header declares " + std::to_string(total_) +
               " triplets but only " + std::to_string(decoded_) +
               " are present",
           frameOffset);
    }
    return false;
  }
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
  decoded_ += count;
  if (decoded_ > total_) {
    fail("more triplets than the header declares (" + std::to_string(total_) +
             ")",
         frameOffset);
  }
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
    readers.push_back(std::make_unique<SpillRunReader>(run.file));
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
    if (!name.starts_with(options_.runPrefix)) {
      continue;
    }
    if (name.ends_with(".spl.tmp")) {
      // A SIGKILL during spill-write in a previous non-checkpoint run leaves
      // a complete-but-unrenamed .tmp behind; it is unreachable state and
      // would otherwise accumulate across fresh starts.
      std::error_code ignored;
      std::filesystem::remove(entry.path(), ignored);
      continue;
    }
    if (!name.ends_with(".spl")) {
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
    spillAll();
    if (bytes > spillThreshold_) {
      writeRun(run);
      return;
    }
  }
  residentBytes_ += bytes;
  kept_.push_back(std::move(run));
  stats_.peakResidentBytes =
      std::max(stats_.peakResidentBytes, residentBytes_);
}

void SpillingAccumulator::adoptRunFile(const SpillRunInfo& info) {
  CHISIM_CHECK(std::filesystem::exists(info.file),
               "cannot adopt a missing spill run: " + info.file.string());
  SpillRunInfo owned = info;
  owned.file = nextRunPath();
  std::filesystem::rename(info.file, owned.file);
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

void SpillingAccumulator::writeRun(std::span<const AdjacencyTriplet> run) {
  const std::size_t first = runs_.size();
  writeShardRuns(options_.dir, options_.runPrefix, nextRunIndex_, run,
                 options_.rowsPerShard, runs_);
  for (std::size_t r = first; r < runs_.size(); ++r) {
    ++stats_.runsWritten;
    stats_.spilledTriplets += runs_[r].triplets;
    stats_.spilledBytes += runs_[r].bytes;
  }
}

void SpillingAccumulator::spillAll() {
  for (const std::vector<AdjacencyTriplet>& run : kept_) {
    writeRun(run);
  }
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

void SpillingAccumulator::splitRun(const SpillRunInfo& run,
                                   std::vector<SpillRunInfo>& out) {
  SpillRunReader reader(run.file);
  std::unique_ptr<SpillRunWriter> writer;
  std::int64_t currentShard = -1;
  AdjacencyTriplet triplet;
  const auto finishPart = [this, &writer, &out] {
    if (!writer) {
      return;
    }
    const SpillRunInfo part = writer->finish();
    writer.reset();
    out.push_back(part);
    ++stats_.runsWritten;
    stats_.spilledTriplets += part.triplets;
    stats_.spilledBytes += part.bytes;
  };
  while (reader.next(triplet)) {
    const std::int64_t shard =
        static_cast<std::int64_t>(triplet.i / options_.rowsPerShard);
    if (shard != currentShard) {
      finishPart();
      writer = std::make_unique<SpillRunWriter>(nextRunPath());
      currentShard = shard;
    }
    writer->append(triplet);
  }
  finishPart();
  ++stats_.runsSplit;
  retireRunFile(run.file);
}

std::vector<SpillingAccumulator::ShardRunGroup>
SpillingAccumulator::buildShardMergePlan() {
  spillAll();
  std::vector<SpillRunInfo> pure;
  std::vector<SpillRunInfo> straddlers;
  pure.reserve(runs_.size());
  for (SpillRunInfo& run : runs_) {
    if (run.triplets == 0) {
      retireRunFile(std::move(run.file));
      continue;
    }
    if (run.shardOf(options_.rowsPerShard) >= 0) {
      pure.push_back(std::move(run));
    } else {
      straddlers.push_back(std::move(run));
    }
  }
  for (const SpillRunInfo& straddler : straddlers) {
    splitRun(straddler, pure);
  }
  runs_ = std::move(pure);
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
      splitRows_(splitRows),
      sum_(1024) {
  CHISIM_REQUIRE(splitRows_ >= 1, "splitRows must be >= 1");
  if (flushThresholdBytes > 0) {
    flushThreshold_ = std::max(flushThresholdBytes, kMinSpillThresholdBytes);
    CHISIM_REQUIRE(!dir_.empty(),
                   "a flushing stage-5 sum needs a spill directory");
  }
}

void SpillingSum::addCollocation(const CollocationMatrix& matrix) {
  sum_.addCollocation(matrix);
  peakBytes_ = std::max<std::uint64_t>(peakBytes_, sum_.memoryBytes());
  if (flushThreshold_ > 0 && sum_.memoryBytes() > flushThreshold_) {
    flush();
  }
}

void SpillingSum::flush() {
  if (sum_.edgeCount() == 0) {
    return;
  }
  const std::vector<AdjacencyTriplet> triplets = drainInMemory();
  writeShardRuns(dir_, filePrefix_, nextRunIndex_, triplets, splitRows_,
                 runs_);
}

void writeShardRuns(const std::filesystem::path& dir,
                    const std::string& filePrefix, std::uint64_t& nextIndex,
                    std::span<const AdjacencyTriplet> sorted,
                    std::uint32_t splitRows, std::vector<SpillRunInfo>& out) {
  CHISIM_REQUIRE(splitRows >= 1, "splitRows must be >= 1");
  std::size_t begin = 0;
  while (begin < sorted.size()) {
    const std::uint32_t shard = sorted[begin].i / splitRows;
    std::size_t end = begin + 1;
    while (end < sorted.size() && sorted[end].i / splitRows == shard) {
      ++end;
    }
    SpillRunWriter writer(dir /
                          (filePrefix + std::to_string(nextIndex++) + ".spl"));
    writer.append(sorted.subspan(begin, end - begin));
    out.push_back(writer.finish());
    begin = end;
  }
}

const AdjacencyKernelStats& SpillingSum::kernelStats() const noexcept {
  return sum_.kernelStats();
}

std::vector<AdjacencyTriplet> SpillingSum::drainInMemory(unsigned threads) {
  std::vector<AdjacencyTriplet> triplets = sum_.toTriplets(threads);
  peakBytes_ = std::max<std::uint64_t>(
      peakBytes_, sum_.memoryBytes() + triplets.size() * kTripletBytes);
  const AdjacencyKernelStats stats = sum_.kernelStats();
  sum_ = SymmetricAdjacency(1024);
  sum_.addKernelStats(stats);  // counters survive the drain
  return triplets;
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
