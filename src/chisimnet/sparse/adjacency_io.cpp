#include "chisimnet/sparse/adjacency_io.hpp"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <system_error>

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

/// Reads `rows.size()` payload rows from `in` in place and returns the
/// payload CRC. Row order is checked by the caller once the CRC holds.
std::uint32_t decodeRows(std::istream& in, std::span<AdjacencyTriplet> rows) {
  const std::span<std::byte> bytes = util::writableRowBytes(rows);
  util::readBytes(in, bytes);
  return util::crc32(bytes);
}

}  // namespace

void saveTriplets(std::span<const AdjacencyTriplet> triplets,
                  const std::filesystem::path& path) {
  const std::span<const std::byte> payload = encodeRows(triplets);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out.good(), "cannot open adjacency file for writing: " +
                               path.string());
  out.write(kMagic, 4);
  util::writeU32(out, kVersion);
  util::writeU64(out, triplets.size());
  util::writeBytes(out, payload);
  util::writeU32(out, util::crc32(payload));
  out.flush();
  CHISIM_CHECK(out.good(), "adjacency write failed: " + path.string());
}

void saveAdjacency(const SymmetricAdjacency& adjacency,
                   const std::filesystem::path& path) {
  const std::vector<AdjacencyTriplet> triplets = adjacency.toTriplets();
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
  const std::uint32_t payloadCrc = decodeRows(in, triplets);
  CHISIM_CHECK(util::readU32(in) == payloadCrc,
               "adjacency CRC mismatch (corrupt or truncated): " +
                   path.string());
  std::uint64_t previous = 0;  // every valid key is >= 1: j > i >= 0
  for (std::size_t row = 0; row < triplets.size(); ++row) {
    const AdjacencyTriplet& triplet = triplets[row];
    const std::uint64_t key = packPair(triplet.i, triplet.j);
    CHISIM_CHECK(triplet.i < triplet.j && key > previous,
                 "CADJ row " + std::to_string(row) +
                     " is not upper-triangular and strictly after the "
                     "previous row: " + path.string());
    previous = key;
  }
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
