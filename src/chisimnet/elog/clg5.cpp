#include "chisimnet/elog/clg5.hpp"

#include <algorithm>
#include <limits>

#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::elog {

namespace {

constexpr char kMagic[4] = {'C', 'L', 'G', '5'};
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 4 + 8;
constexpr std::uint64_t kChunkHeaderBytes = 4 * 6;

/// A raw chunk payload is the entries' util row block (20 bytes each).
std::vector<table::Event> deserializeRaw(std::span<const std::byte> payload) {
  CHISIM_CHECK(payload.size() % kEntryBytes == 0, "corrupt chunk payload size");
  util::ByteReader in(payload, "CLG5 raw chunk");
  return in.rows<table::Event>(payload.size() / kEntryBytes, "entries");
}

/// Column-split packed encoding: start/end as zigzag deltas (near-sorted in
/// real logs since stints are recorded when they end), the id columns as
/// plain varints.
std::vector<std::byte> serializePacked(std::span<const table::Event> entries) {
  std::vector<std::byte> payload;
  payload.reserve(entries.size() * 10);
  std::int64_t previousStart = 0;
  std::int64_t previousEnd = 0;
  for (const table::Event& event : entries) {
    util::putVarint(payload, util::zigzagEncode(static_cast<std::int32_t>(
                                 static_cast<std::int64_t>(event.start) -
                                 previousStart)));
    previousStart = event.start;
  }
  for (const table::Event& event : entries) {
    util::putVarint(payload, util::zigzagEncode(static_cast<std::int32_t>(
                                 static_cast<std::int64_t>(event.end) -
                                 previousEnd)));
    previousEnd = event.end;
  }
  for (const table::Event& event : entries) {
    util::putVarint(payload, event.person);
  }
  for (const table::Event& event : entries) {
    util::putVarint(payload, event.activity);
  }
  for (const table::Event& event : entries) {
    util::putVarint(payload, event.place);
  }
  return payload;
}

std::vector<table::Event> deserializePacked(std::span<const std::byte> payload,
                                            std::uint32_t entryCount) {
  // Every packed entry takes at least one varint byte in each of its five
  // columns: bound the declared count by the payload before allocating.
  CHISIM_CHECK(entryCount <= payload.size() / 5,
               "packed chunk declares " + std::to_string(entryCount) +
                   " entries, more than its " +
                   std::to_string(payload.size()) +
                   " payload bytes can hold (at least 5 bytes per entry)");
  std::vector<table::Event> entries(entryCount);
  std::size_t cursor = 0;
  std::int64_t previous = 0;
  for (table::Event& event : entries) {
    previous += util::zigzagDecode(util::getVarint(payload, cursor));
    CHISIM_CHECK(previous >= 0, "corrupt packed start column");
    event.start = static_cast<table::Hour>(previous);
  }
  previous = 0;
  for (table::Event& event : entries) {
    previous += util::zigzagDecode(util::getVarint(payload, cursor));
    CHISIM_CHECK(previous >= 0, "corrupt packed end column");
    event.end = static_cast<table::Hour>(previous);
  }
  for (table::Event& event : entries) {
    event.person = util::getVarint(payload, cursor);
  }
  for (table::Event& event : entries) {
    event.activity = util::getVarint(payload, cursor);
  }
  for (table::Event& event : entries) {
    event.place = util::getVarint(payload, cursor);
  }
  CHISIM_CHECK(cursor == payload.size(), "trailing bytes in packed chunk");
  return entries;
}

std::string clg5ErrorMessage(const std::filesystem::path& file,
                             std::int64_t chunkIndex,
                             std::uint64_t firstRecord,
                             std::uint64_t byteOffset,
                             const std::string& reason) {
  std::string message = file.string();
  if (chunkIndex >= 0) {
    message += ": chunk " + std::to_string(chunkIndex) + " (first record " +
               std::to_string(firstRecord) + ")";
  }
  message += " at byte " + std::to_string(byteOffset) + ": " + reason;
  return message;
}

}  // namespace

void writeChunkFooter(std::ostream& out, std::span<const ChunkInfo> chunks) {
  util::ByteWriter body(8 + chunks.size() * 20);
  body.u64(chunks.size());
  for (const ChunkInfo& chunk : chunks) {
    body.u64(chunk.offset);
    body.u32(chunk.entryCount);
    body.u32(chunk.minStart);
    body.u32(chunk.maxEnd);
  }
  const std::vector<std::byte> bytes = body.take();
  util::writeBytes(out, bytes);
  util::writeU32(out, util::crc32(bytes));
}

std::vector<ChunkInfo> readChunkFooter(std::istream& in,
                                       const std::filesystem::path& path,
                                       std::uint64_t footerOffset) {
  in.seekg(static_cast<std::streamoff>(footerOffset));
  const std::uint64_t chunkCount = util::readU64(in);
  // Validate the declared footer size against the file before sizing the
  // buffer off it: a corrupt count must not drive a blind allocation.
  std::error_code sizeError;
  const std::uintmax_t fileBytes = std::filesystem::file_size(path, sizeError);
  CHISIM_CHECK(!sizeError && chunkCount <= fileBytes &&
                   8 + chunkCount * 20 <= fileBytes,
               "footer declares " + std::to_string(chunkCount) +
                   " chunks, more than the file can hold: " + path.string());
  std::vector<std::byte> body(8 + chunkCount * 20);
  in.seekg(static_cast<std::streamoff>(footerOffset));
  util::readBytes(in, body);
  CHISIM_CHECK(util::readU32(in) == util::crc32(body),
               "footer CRC mismatch: " + path.string());
  util::ByteReader reader(body, "chunk footer");
  reader.u64();  // the count, bounded above
  std::vector<ChunkInfo> chunks(chunkCount);
  for (ChunkInfo& chunk : chunks) {
    chunk.offset = reader.u64();
    chunk.entryCount = reader.u32();
    chunk.minStart = reader.u32();
    chunk.maxEnd = reader.u32();
  }
  return chunks;
}

Clg5Error::Clg5Error(std::filesystem::path file, std::int64_t chunkIndex,
                     std::uint64_t firstRecord, std::uint64_t byteOffset,
                     const std::string& reason)
    : std::runtime_error(
          clg5ErrorMessage(file, chunkIndex, firstRecord, byteOffset, reason)),
      file_(std::move(file)),
      chunkIndex_(chunkIndex),
      firstRecord_(firstRecord),
      byteOffset_(byteOffset),
      reason_(reason) {}

ChunkedLogWriter::ChunkedLogWriter(const std::filesystem::path& path,
                                   LogCompression compression)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      compression_(compression) {
  CHISIM_CHECK(out_.good(), "cannot open log file for writing: " + path.string());
  out_.write(kMagic, 4);
  util::writeU32(out_, kClg5Version);
  util::writeU32(out_, 5);  // fields per entry
  util::writeU64(out_, 0);  // footer offset, patched in close()
  bytesWritten_ = kHeaderBytes;
}

ChunkedLogWriter::ChunkedLogWriter(const std::filesystem::path& path,
                                   LogCompression compression, ResumeAt resume)
    : path_(path), compression_(compression) {
  // Scan the existing file's chunk headers and require the walk to land
  // exactly on the checkpoint offset: an offset inside a chunk (or past
  // the end of the file) means the checkpoint and the log disagree, and
  // resuming would splice chunks mid-payload.
  {
    std::ifstream in(path, std::ios::binary);
    CHISIM_CHECK(in.good(),
                 "cannot open log file for resume: " + path.string());
    char magic[4];
    in.read(magic, 4);
    CHISIM_CHECK(in.gcount() == 4 && std::equal(magic, magic + 4, kMagic),
                 "resume target is not a CLG5 file: " + path.string());
    CHISIM_CHECK(util::readU32(in) == kClg5Version,
                 "resume target has an unsupported CLG5 version: " +
                     path.string());
    CHISIM_CHECK(util::readU32(in) == 5,
                 "resume target has an unsupported CLG5 schema: " +
                     path.string());
    util::readU64(in);  // footerOffset: 0 (torn) or valid (graceful close)
    CHISIM_CHECK(resume.bytes >= kHeaderBytes,
                 "resume offset inside the CLG5 header: " + path.string());
    std::error_code sizeError;
    const std::uintmax_t fileBytes = std::filesystem::file_size(path, sizeError);
    CHISIM_CHECK(!sizeError && fileBytes >= resume.bytes,
                 "log file shorter than its checkpoint offset: " +
                     path.string());
    std::uint64_t cursor = kHeaderBytes;
    while (cursor < resume.bytes) {
      in.seekg(static_cast<std::streamoff>(cursor));
      ChunkInfo info;
      info.offset = cursor;
      info.entryCount = util::readU32(in);
      info.minStart = util::readU32(in);
      info.maxEnd = util::readU32(in);
      util::readU32(in);  // crc
      util::readU32(in);  // encoding
      const std::uint32_t payloadBytes = util::readU32(in);
      cursor += kChunkHeaderBytes + payloadBytes;
      CHISIM_CHECK(cursor <= resume.bytes,
                   "checkpoint offset is not on a chunk boundary: " +
                       path.string());
      chunks_.push_back(info);
      entriesWritten_ += info.entryCount;
    }
    CHISIM_CHECK(in.good(), "log chunk scan failed during resume: " +
                                path.string());
  }
  // Drop everything past the checkpoint offset (a later flush chunk, a
  // graceful-close footer, or a torn tail from the crash) and mark the
  // file unfinished again until the resumed run's close().
  std::filesystem::resize_file(path, resume.bytes);
  out_.open(path, std::ios::binary | std::ios::in | std::ios::out);
  CHISIM_CHECK(out_.good(),
               "cannot reopen log file for resume: " + path.string());
  out_.seekp(12);  // footerOffset slot in the header
  util::writeU64(out_, 0);
  out_.seekp(static_cast<std::streamoff>(resume.bytes));
  CHISIM_CHECK(out_.good(), "resume reposition failed: " + path.string());
  bytesWritten_ = resume.bytes;
}

ChunkedLogWriter::~ChunkedLogWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an explicit close() surfaces errors.
  }
}

void ChunkedLogWriter::writeChunk(std::span<const table::Event> entries) {
  CHISIM_REQUIRE(!closed_, "writer already closed");
  if (entries.empty()) {
    return;
  }
  CHISIM_REQUIRE(entries.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "chunk too large");

  ChunkInfo info;
  info.offset = bytesWritten_;
  info.entryCount = static_cast<std::uint32_t>(entries.size());
  info.minStart = std::numeric_limits<table::Hour>::max();
  info.maxEnd = 0;
  for (const table::Event& event : entries) {
    info.minStart = std::min(info.minStart, event.start);
    info.maxEnd = std::max(info.maxEnd, event.end);
  }

  std::vector<std::byte> packed;
  std::span<const std::byte> payload = util::rowBytes(entries);
  if (compression_ == LogCompression::kPacked) {
    packed = serializePacked(entries);
    payload = packed;
  }
  util::writeU32(out_, info.entryCount);
  util::writeU32(out_, info.minStart);
  util::writeU32(out_, info.maxEnd);
  util::writeU32(out_, util::crc32(payload));
  util::writeU32(out_, static_cast<std::uint32_t>(compression_));
  util::writeU32(out_, static_cast<std::uint32_t>(payload.size()));
  util::writeBytes(out_, payload);
  CHISIM_CHECK(out_.good(), "log chunk write failed: " + path_.string());

  bytesWritten_ += kChunkHeaderBytes + payload.size();
  entriesWritten_ += entries.size();
  chunks_.push_back(info);
}

void ChunkedLogWriter::sync() {
  CHISIM_REQUIRE(!closed_, "writer already closed");
  out_.flush();
  CHISIM_CHECK(out_.good(), "log sync failed: " + path_.string());
}

void ChunkedLogWriter::abandon() {
  if (closed_) {
    return;
  }
  closed_ = true;
  out_.flush();
  out_.close();  // footerOffset stays 0: readers reject the torn file
}

void ChunkedLogWriter::close() {
  if (closed_) {
    return;
  }
  closed_ = true;

  const std::uint64_t footerOffset = bytesWritten_;
  writeChunkFooter(out_, chunks_);

  out_.seekp(12);  // footerOffset slot in the header
  util::writeU64(out_, footerOffset);
  out_.flush();
  CHISIM_CHECK(out_.good(), "log footer write failed: " + path_.string());
  out_.close();
}

ChunkedLogReader::ChunkedLogReader(const std::filesystem::path& path)
    : path_(path), in_(path, std::ios::binary) {
  // Header/footer failures carry chunkIndex -1 plus the byte offset the
  // failure was detected at, so one bad file out of hundreds is nameable.
  const auto fail = [&path](std::uint64_t offset,
                            const std::string& reason) -> void {
    throw Clg5Error(path, -1, 0, offset, reason);
  };
  if (!in_.good()) {
    fail(0, "cannot open log file for reading");
  }

  char magic[4];
  in_.read(magic, 4);
  if (in_.gcount() != 4 || !std::equal(magic, magic + 4, kMagic)) {
    fail(0, "not a CLG5 file (bad magic)");
  }
  std::uint64_t footerOffset = 0;
  try {
    const std::uint32_t version = util::readU32(in_);
    if (version != kClg5Version) {
      fail(4, "unsupported CLG5 version " + std::to_string(version));
    }
    const std::uint32_t fields = util::readU32(in_);
    if (fields != 5) {
      fail(8, "unsupported CLG5 schema (" + std::to_string(fields) +
                  " fields per entry)");
    }
    footerOffset = util::readU64(in_);
    if (footerOffset < kHeaderBytes) {
      fail(12, "CLG5 file was not closed (missing footer)");
    }

    chunks_ = readChunkFooter(in_, path, footerOffset);
  } catch (const Clg5Error&) {
    throw;
  } catch (const std::exception& error) {
    // Truncation inside the reads above and every footer failure surface
    // as generic errors; re-badge them with the file location.
    fail(footerOffset, error.what());
  }
}

std::uint64_t ChunkedLogReader::totalEntries() const noexcept {
  std::uint64_t total = 0;
  for (const ChunkInfo& chunk : chunks_) {
    total += chunk.entryCount;
  }
  return total;
}

std::vector<table::Event> ChunkedLogReader::readChunk(std::size_t index) {
  CHISIM_REQUIRE(index < chunks_.size(), "chunk index out of range");
  const ChunkInfo& info = chunks_[index];
  // First record index of this chunk, so the error names the exact records
  // a quarantined chunk would have contributed.
  std::uint64_t firstRecord = 0;
  for (std::size_t i = 0; i < index; ++i) {
    firstRecord += chunks_[i].entryCount;
  }
  const auto fail = [this, index, firstRecord,
                     &info](const std::string& reason) -> void {
    throw Clg5Error(path_, static_cast<std::int64_t>(index), firstRecord,
                    info.offset, reason);
  };
  try {
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(info.offset));
    const std::uint32_t entryCount = util::readU32(in_);
    if (entryCount != info.entryCount) {
      fail("chunk header/index mismatch");
    }
    util::readU32(in_);  // minStart (already in the index)
    util::readU32(in_);  // maxEnd
    const std::uint32_t storedCrc = util::readU32(in_);
    const std::uint32_t encoding = util::readU32(in_);
    const std::uint32_t payloadBytes = util::readU32(in_);
    // Sanity-bound the declared payload before allocating: a raw chunk is
    // exactly entryCount * 20 bytes and packed is never larger than raw
    // plus the worst-case varint expansion (5/4 per u32 column).
    const std::uint64_t maxPlausible =
        static_cast<std::uint64_t>(info.entryCount) * kEntryBytes * 2 + 16;
    if (payloadBytes > maxPlausible) {
      fail("declared payload of " + std::to_string(payloadBytes) +
           " bytes is implausibly large for " +
           std::to_string(info.entryCount) + " entries");
    }
    std::vector<std::byte> payload(payloadBytes);
    util::readBytes(in_, payload);
    if (storedCrc != util::crc32(payload)) {
      fail("chunk CRC mismatch (corrupt log)");
    }
    switch (static_cast<LogCompression>(encoding)) {
      case LogCompression::kRaw:
        return deserializeRaw(payload);
      case LogCompression::kPacked:
        return deserializePacked(payload, entryCount);
    }
    fail("unknown chunk encoding " + std::to_string(encoding));
  } catch (const Clg5Error&) {
    throw;
  } catch (const std::exception& error) {
    // Stream truncation or a decode CHISIM_CHECK from the deserializers;
    // re-badge with file/chunk/record/offset context.
    fail(error.what());
  }
  return {};
}

std::vector<table::Event> ChunkedLogReader::readAll() {
  std::vector<table::Event> all;
  all.reserve(totalEntries());
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const std::vector<table::Event> chunk = readChunk(i);
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

std::vector<table::Event> ChunkedLogReader::readOverlapping(
    table::Hour windowStart, table::Hour windowEnd) {
  std::vector<table::Event> selected;
  lastChunksRead_ = 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const ChunkInfo& info = chunks_[i];
    if (info.minStart >= windowEnd || info.maxEnd <= windowStart) {
      continue;  // chunk cannot contain overlapping entries
    }
    ++lastChunksRead_;
    for (const table::Event& event : readChunk(i)) {
      if (table::overlapsWindow(event, windowStart, windowEnd)) {
        selected.push_back(event);
      }
    }
  }
  return selected;
}

}  // namespace chisimnet::elog
