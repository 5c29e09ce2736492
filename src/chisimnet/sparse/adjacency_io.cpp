#include "chisimnet/sparse/adjacency_io.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <mutex>
#include <system_error>
#include <thread>

#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::sparse {

namespace {

constexpr char kMagic[4] = {'C', 'A', 'D', 'J'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 8;
constexpr std::uint64_t kRowBytes = 4 + 4 + 8;
constexpr std::uint64_t kFooterBytes = 4;
constexpr std::size_t kBufferRows = 4096;

// The CADJ row is (u32 i, u32 j, u64 weight), little-endian: exactly
// AdjacencyTriplet's object representation, so rows are encoded and
// decoded as util row blocks (a view of the triplets' bytes).
static_assert(util::ByteRow<AdjacencyTriplet>);
static_assert(sizeof(AdjacencyTriplet) == kRowBytes);
static_assert(offsetof(AdjacencyTriplet, i) == 0);
static_assert(offsetof(AdjacencyTriplet, j) == 4);
static_assert(offsetof(AdjacencyTriplet, weight) == 8);

/// The payload bytes of `rows`, the one row encoder behind saveTriplets and
/// both writers; every row must be upper-triangular.
std::span<const std::byte> encodeRows(
    std::span<const AdjacencyTriplet> rows) {
  for (const AdjacencyTriplet& row : rows) {
    CHISIM_REQUIRE(row.i < row.j, "triplets must be upper-triangular (i < j)");
  }
  return util::rowBytes(rows);
}

/// Whole-payload passes (CRC and row checks) run on one contiguous range
/// of rows per core, but never on ranges under 1 MiB, where starting a
/// thread costs more than it saves.
constexpr std::size_t kMinChunkRows = std::size_t{1} << 16;

/// Rows [rowCount·c/chunks, rowCount·(c+1)/chunks) of chunk c.
std::size_t chunkCount(std::size_t rowCount) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(rowCount / kMinChunkRows, 1, cores);
}

/// Runs `check(chunkRows, firstRow)` over every chunk concurrently and
/// returns the payload CRC: the chunks' CRCs joined in order with
/// util::crc32Combine, equal to one crc32 over all the rows.
template <typename Check>
std::uint32_t chunkedCrc(std::span<const AdjacencyTriplet> rows,
                         const Check& check) {
  const std::size_t chunks = chunkCount(rows.size());
  const auto first = [&](std::size_t c) { return rows.size() * c / chunks; };
  std::vector<std::uint32_t> crcs(chunks, 0);
  runtime::parallelFor(chunks, static_cast<unsigned>(chunks),
                       [&](std::uint64_t c) {
                         const auto chunk =
                             rows.subspan(first(c), first(c + 1) - first(c));
                         check(chunk, first(c));
                         crcs[c] = util::crc32(util::rowBytes(chunk));
                       });
  std::uint32_t crc = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    crc = util::crc32Combine(crc, crcs[c],
                             (first(c + 1) - first(c)) * kRowBytes);
  }
  return crc;
}

}  // namespace

void saveTriplets(std::span<const AdjacencyTriplet> triplets,
                  const std::filesystem::path& path) {
  const std::uint32_t crc = chunkedCrc(
      triplets, [](std::span<const AdjacencyTriplet> chunk, std::size_t) {
        encodeRows(chunk);
      });
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out.good(), "cannot open adjacency file for writing: " +
                               path.string());
  out.write(kMagic, 4);
  util::writeU32(out, kVersion);
  util::writeU64(out, triplets.size());
  util::writeBytes(out, util::rowBytes(triplets));
  util::writeU32(out, crc);
  out.flush();
  CHISIM_CHECK(out.good(), "adjacency write failed: " + path.string());
}

void saveAdjacency(const SymmetricAdjacency& adjacency,
                   const std::filesystem::path& path) {
  const std::vector<AdjacencyTriplet> triplets =
      adjacency.toTriplets(std::max(1u, std::thread::hardware_concurrency()));
  saveTriplets(triplets, path);
}

std::vector<AdjacencyTriplet> loadTriplets(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CHISIM_CHECK(in.good(), "cannot open adjacency file: " + path.string());
  const auto fileBytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char magic[4];
  in.read(magic, 4);
  CHISIM_CHECK(in.gcount() == 4 && std::equal(magic, magic + 4, kMagic),
               "not a CADJ file: " + path.string());
  CHISIM_CHECK(util::readU32(in) == kVersion, "unsupported CADJ version");
  const std::uint64_t count = util::readU64(in);
  // The header count is untrusted: it must match the bytes actually on
  // disk before it sizes anything. Dividing the file size (rather than
  // multiplying the count) keeps the check overflow-free.
  const std::uint64_t body = fileBytes - kHeaderBytes;
  CHISIM_CHECK(body >= kFooterBytes && (body - kFooterBytes) % kRowBytes == 0 &&
                   (body - kFooterBytes) / kRowBytes == count,
               "CADJ header count " + std::to_string(count) +
                   " does not match the file size " +
                   std::to_string(fileBytes) +
                   " (corrupt or truncated): " + path.string());

  std::vector<AdjacencyTriplet> triplets(count);
  util::readBytes(in, util::writableRowBytes(std::span(triplets)));
  // Each chunk checks its rows against their predecessors, the first one
  // against the last row of the chunk before it, so every adjacent pair is
  // checked once. The CRC is judged first and the lowest bad row is the
  // one reported, as a serial pass would.
  std::vector<std::size_t> badRows;  // each failing chunk's first bad row
  std::mutex badRowsMutex;
  const std::uint32_t payloadCrc = chunkedCrc(
      triplets,
      [&](std::span<const AdjacencyTriplet> chunk, std::size_t firstRow) {
        // Every valid key is >= 1 (j > i >= 0), so 0 precedes row 0.
        std::uint64_t previous =
            firstRow == 0 ? 0
                          : packPair(triplets[firstRow - 1].i,
                                     triplets[firstRow - 1].j);
        for (std::size_t k = 0; k < chunk.size(); ++k) {
          const std::uint64_t key = packPair(chunk[k].i, chunk[k].j);
          if (chunk[k].i >= chunk[k].j || key <= previous) {
            const std::lock_guard<std::mutex> lock(badRowsMutex);
            badRows.push_back(firstRow + k);
            return;
          }
          previous = key;
        }
      });
  CHISIM_CHECK(util::readU32(in) == payloadCrc,
               "adjacency CRC mismatch (corrupt or truncated): " +
                   path.string());
  CHISIM_CHECK(badRows.empty(),
               "CADJ row " +
                   std::to_string(
                       *std::min_element(badRows.begin(), badRows.end())) +
                   " is not upper-triangular and strictly after the "
                   "previous row: " + path.string());
  return triplets;
}

TripletSegmentWriter::TripletSegmentWriter(std::filesystem::path path)
    : path_(std::move(path)), tmp_(path_.string() + ".tmp") {
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out_.good(),
               "cannot open segment file for writing: " + tmp_.string());
  buffer_.reserve(kBufferRows);
}

TripletSegmentWriter::~TripletSegmentWriter() {
  if (!finished_) {
    out_.close();
    std::error_code ignored;
    std::filesystem::remove(tmp_, ignored);
  }
}

void TripletSegmentWriter::append(const AdjacencyTriplet& triplet) {
  encodeRows({&triplet, 1});  // checks the row now; flushBuffer writes it
  buffer_.push_back(triplet);
  ++count_;
  if (buffer_.size() >= kBufferRows) {
    flushBuffer();
  }
}

void TripletSegmentWriter::flushBuffer() {
  if (buffer_.empty()) {
    return;
  }
  const std::span<const std::byte> bytes =
      util::rowBytes(std::span<const AdjacencyTriplet>(buffer_));
  crc_ = util::crc32(bytes, crc_);
  bytes_ += bytes.size();
  util::writeBytes(out_, bytes);
  buffer_.clear();
}

ShardSegment TripletSegmentWriter::finish() {
  CHISIM_REQUIRE(!finished_, "segment already finished");
  flushBuffer();
  out_.flush();
  CHISIM_CHECK(out_.good(), "segment write failed: " + tmp_.string());
  out_.close();
  std::filesystem::rename(tmp_, path_);
  finished_ = true;
  ShardSegment segment;
  segment.file = path_;
  segment.triplets = count_;
  segment.bytes = bytes_;
  segment.crc = crc_;
  return segment;
}

StreamingTripletWriter::StreamingTripletWriter(
    const std::filesystem::path& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  CHISIM_CHECK(out_.good(),
               "cannot open adjacency file for writing: " + path.string());
  out_.write(kMagic, 4);
  util::writeU32(out_, kVersion);
  util::writeU64(out_, 0);  // edge count, patched by finish()
}

void StreamingTripletWriter::appendSegmentFile(const ShardSegment& segment) {
  CHISIM_REQUIRE(!finished_, "adjacency stream already finished");
  std::ifstream in(segment.file, std::ios::binary);
  CHISIM_CHECK(in.good(),
               "cannot open segment file: " + segment.file.string());
  std::vector<std::byte> chunk(kRowBytes * kBufferRows);
  std::uint64_t copied = 0;
  std::uint32_t segmentCrc = 0;
  while (copied < segment.bytes) {
    const std::uint64_t want = std::min<std::uint64_t>(
        chunk.size(), segment.bytes - copied);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(want));
    CHISIM_CHECK(in.gcount() == static_cast<std::streamsize>(want),
                 "segment file truncated: " + segment.file.string());
    const std::span<const std::byte> bytes(chunk.data(), want);
    segmentCrc = util::crc32(bytes, segmentCrc);
    util::writeBytes(out_, bytes);
    copied += want;
  }
  CHISIM_CHECK(segmentCrc == segment.crc,
               "segment CRC mismatch (corrupt or stale): " +
                   segment.file.string());
  // The verified segment CRC extends the stream's: one pass per byte.
  crc_ = util::crc32Combine(crc_, segment.crc, segment.bytes);
  count_ += segment.triplets;
}

std::uint64_t StreamingTripletWriter::finish() {
  CHISIM_REQUIRE(!finished_, "adjacency stream already finished");
  util::writeU32(out_, crc_);
  out_.seekp(8);
  util::writeU64(out_, count_);
  out_.flush();
  CHISIM_CHECK(out_.good(), "adjacency write failed: " + path_.string());
  finished_ = true;
  return count_;
}

SymmetricAdjacency loadAdjacency(const std::filesystem::path& path) {
  const std::vector<AdjacencyTriplet> triplets = loadTriplets(path);
  SymmetricAdjacency adjacency(triplets.size());
  for (const AdjacencyTriplet& triplet : triplets) {
    adjacency.add(triplet.i, triplet.j, triplet.weight);
  }
  return adjacency;
}

}  // namespace chisimnet::sparse
