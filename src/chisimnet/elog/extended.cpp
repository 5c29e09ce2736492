#include "chisimnet/elog/extended.hpp"

#include <algorithm>
#include <limits>

#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::elog {

namespace {

constexpr char kMagic[4] = {'C', 'L', 'X', '5'};
constexpr std::uint64_t kHeaderBytes = 4 + 4 + 4 + 8;
constexpr std::uint64_t kChunkHeaderBytes = 4 * 4;
constexpr std::uint32_t kVersion = 1;

}  // namespace

ExtendedLogWriter::ExtendedLogWriter(const std::filesystem::path& path,
                                     std::uint32_t extraColumns)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      extraColumns_(extraColumns) {
  CHISIM_CHECK(out_.good(),
               "cannot open extended log for writing: " + path.string());
  out_.write(kMagic, 4);
  util::writeU32(out_, kVersion);
  util::writeU32(out_, 5 + extraColumns_);
  util::writeU64(out_, 0);  // footer offset, patched on close
  bytesWritten_ = kHeaderBytes;
}

ExtendedLogWriter::ExtendedLogWriter(const std::filesystem::path& path,
                                     std::uint32_t extraColumns,
                                     ResumeAt resume)
    : path_(path), extraColumns_(extraColumns) {
  const std::size_t rowBytes = (5 + extraColumns_) * 4;
  {
    std::ifstream in(path, std::ios::binary);
    CHISIM_CHECK(in.good(),
                 "cannot open extended log for resume: " + path.string());
    char magic[4];
    in.read(magic, 4);
    CHISIM_CHECK(in.gcount() == 4 && std::equal(magic, magic + 4, kMagic),
                 "resume target is not a CLX5 file: " + path.string());
    CHISIM_CHECK(util::readU32(in) == kVersion,
                 "resume target has an unsupported CLX5 version: " +
                     path.string());
    CHISIM_CHECK(util::readU32(in) == 5 + extraColumns_,
                 "resume target has a different CLX5 schema: " +
                     path.string());
    util::readU64(in);  // footerOffset: 0 (torn) or valid (graceful close)
    CHISIM_CHECK(resume.bytes >= kHeaderBytes,
                 "resume offset inside the CLX5 header: " + path.string());
    std::error_code sizeError;
    const std::uintmax_t fileBytes = std::filesystem::file_size(path, sizeError);
    CHISIM_CHECK(!sizeError && fileBytes >= resume.bytes,
                 "extended log shorter than its checkpoint offset: " +
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
      cursor += kChunkHeaderBytes +
                static_cast<std::uint64_t>(info.entryCount) * rowBytes;
      CHISIM_CHECK(cursor <= resume.bytes,
                   "checkpoint offset is not on a chunk boundary: " +
                       path.string());
      chunks_.push_back(info);
      entriesWritten_ += info.entryCount;
    }
    CHISIM_CHECK(in.good(), "extended log chunk scan failed during resume: " +
                                path.string());
  }
  std::filesystem::resize_file(path, resume.bytes);
  out_.open(path, std::ios::binary | std::ios::in | std::ios::out);
  CHISIM_CHECK(out_.good(),
               "cannot reopen extended log for resume: " + path.string());
  out_.seekp(12);  // footerOffset slot in the header
  util::writeU64(out_, 0);
  out_.seekp(static_cast<std::streamoff>(resume.bytes));
  CHISIM_CHECK(out_.good(), "resume reposition failed: " + path.string());
  bytesWritten_ = resume.bytes;
}

ExtendedLogWriter::~ExtendedLogWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; explicit close() surfaces errors.
  }
}

void ExtendedLogWriter::writeChunk(std::span<const ExtendedEvent> entries) {
  CHISIM_REQUIRE(!closed_, "writer already closed");
  if (entries.empty()) {
    return;
  }

  ChunkInfo info;
  info.offset = bytesWritten_;
  info.entryCount = static_cast<std::uint32_t>(entries.size());
  info.minStart = std::numeric_limits<table::Hour>::max();
  info.maxEnd = 0;

  util::ByteWriter encoded(entries.size() * (5 + extraColumns_) * 4);
  for (const ExtendedEvent& entry : entries) {
    CHISIM_REQUIRE(entry.extras.size() == extraColumns_,
                   "entry extras do not match the configured column count");
    info.minStart = std::min(info.minStart, entry.base.start);
    info.maxEnd = std::max(info.maxEnd, entry.base.end);
    encoded.row(entry.base);
    encoded.rows(entry.extras);
  }
  const std::vector<std::byte> payload = encoded.take();

  util::writeU32(out_, info.entryCount);
  util::writeU32(out_, info.minStart);
  util::writeU32(out_, info.maxEnd);
  util::writeU32(out_, util::crc32(payload));
  util::writeBytes(out_, payload);
  CHISIM_CHECK(out_.good(), "extended log chunk write failed");

  bytesWritten_ += kChunkHeaderBytes + payload.size();
  entriesWritten_ += entries.size();
  chunks_.push_back(info);
}

void ExtendedLogWriter::sync() {
  CHISIM_REQUIRE(!closed_, "writer already closed");
  out_.flush();
  CHISIM_CHECK(out_.good(), "extended log sync failed: " + path_.string());
}

void ExtendedLogWriter::abandon() {
  if (closed_) {
    return;
  }
  closed_ = true;
  out_.flush();
  out_.close();  // footerOffset stays 0: readers reject the torn file
}

void ExtendedLogWriter::close() {
  if (closed_) {
    return;
  }
  closed_ = true;

  const std::uint64_t footerOffset = bytesWritten_;
  writeChunkFooter(out_, chunks_);

  out_.seekp(12);
  util::writeU64(out_, footerOffset);
  out_.flush();
  CHISIM_CHECK(out_.good(), "extended log footer write failed");
  out_.close();
}

ExtendedLogReader::ExtendedLogReader(const std::filesystem::path& path)
    : path_(path), in_(path, std::ios::binary) {
  CHISIM_CHECK(in_.good(),
               "cannot open extended log for reading: " + path.string());
  char magic[4];
  in_.read(magic, 4);
  CHISIM_CHECK(in_.gcount() == 4 && std::equal(magic, magic + 4, kMagic),
               "not a CLX5 file: " + path.string());
  CHISIM_CHECK(util::readU32(in_) == kVersion, "unsupported CLX5 version");
  const std::uint32_t fields = util::readU32(in_);
  CHISIM_CHECK(fields >= 5, "corrupt CLX5 schema");
  extraColumns_ = fields - 5;
  const std::uint64_t footerOffset = util::readU64(in_);
  CHISIM_CHECK(footerOffset >= kHeaderBytes,
               "CLX5 file was not closed (missing footer): " + path.string());

  chunks_ = readChunkFooter(in_, path, footerOffset);
}

std::uint64_t ExtendedLogReader::totalEntries() const noexcept {
  std::uint64_t total = 0;
  for (const ChunkInfo& chunk : chunks_) {
    total += chunk.entryCount;
  }
  return total;
}

std::vector<ExtendedEvent> ExtendedLogReader::readChunk(std::size_t index) {
  CHISIM_REQUIRE(index < chunks_.size(), "chunk index out of range");
  const ChunkInfo& info = chunks_[index];
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(info.offset));
  const std::uint32_t entryCount = util::readU32(in_);
  CHISIM_CHECK(entryCount == info.entryCount, "chunk header/index mismatch");
  util::readU32(in_);  // minStart
  util::readU32(in_);  // maxEnd
  const std::uint32_t storedCrc = util::readU32(in_);
  const std::size_t rowBytes = (5 + extraColumns_) * 4;
  std::vector<std::byte> payload(static_cast<std::size_t>(entryCount) * rowBytes);
  util::readBytes(in_, payload);
  CHISIM_CHECK(storedCrc == util::crc32(payload),
               "CLX5 chunk CRC mismatch: " + path_.string());

  util::ByteReader in(payload, "CLX5 chunk");
  std::vector<ExtendedEvent> entries(entryCount);
  for (ExtendedEvent& entry : entries) {
    entry.base = in.row<table::Event>();
    entry.extras = in.rows<std::uint32_t>(extraColumns_, "extra columns");
  }
  in.expectEnd();
  return entries;
}

std::vector<ExtendedEvent> ExtendedLogReader::readAll() {
  std::vector<ExtendedEvent> all;
  all.reserve(totalEntries());
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    auto chunk = readChunk(i);
    std::move(chunk.begin(), chunk.end(), std::back_inserter(all));
  }
  return all;
}

std::vector<ExtendedEvent> ExtendedLogReader::readOverlapping(
    table::Hour windowStart, table::Hour windowEnd) {
  std::vector<ExtendedEvent> selected;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const ChunkInfo& info = chunks_[i];
    if (info.minStart >= windowEnd || info.maxEnd <= windowStart) {
      continue;
    }
    for (ExtendedEvent& entry : readChunk(i)) {
      if (table::overlapsWindow(entry.base, windowStart, windowEnd)) {
        selected.push_back(std::move(entry));
      }
    }
  }
  return selected;
}

}  // namespace chisimnet::elog
