#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chisimnet/table/event.hpp"

/// CLG5 — the chunked binary activity-log format (the serial-HDF5
/// substitute, paper §III).
///
/// The paper flushes the full in-memory log cache to a chunked HDF5 dataset
/// so writes are large and sequential, files are compact (20 bytes per
/// entry) and reads can be index-based. CLG5 reproduces those properties:
///
///   header : magic "CLG5", version u32, fieldsPerEntry u32 (=5),
///            footerOffset u64 (patched on close)
///   chunk* : entryCount u32, minStart u32, maxEnd u32, crc32 u32,
///            encoding u32, payloadBytes u32, payload
///   footer : chunkCount u64, per chunk {offset u64, entryCount u32,
///            minStart u32, maxEnd u32}, footer crc32 u32
///
/// The per-chunk [minStart, maxEnd] range enables predicate pushdown: a
/// time-slice read touches only chunks whose range overlaps the window.
/// Chunk payloads come in two encodings (the HDF5-chunk-filter analogue):
///   kRaw    entryCount x 5 x u32 little-endian (20 bytes/entry)
///   kPacked column-split with zigzag-delta varints for start/end and
///           plain varints for person/activity/place — typically 2-3x
///           smaller on real activity logs

namespace chisimnet::elog {

inline constexpr std::uint32_t kClg5Version = 2;
inline constexpr std::size_t kEntryBytes = sizeof(table::Event);

/// Decode failure with enough context to act on one bad file out of N:
/// which file, which chunk, the first record index of that chunk, and the
/// byte offset the failure was detected at — all of it in what() so even a
/// caller that only logs the message can identify the input. chunkIndex -1
/// means the header or footer failed before any chunk was read.
class Clg5Error : public std::runtime_error {
 public:
  Clg5Error(std::filesystem::path file, std::int64_t chunkIndex,
            std::uint64_t firstRecord, std::uint64_t byteOffset,
            const std::string& reason);

  const std::filesystem::path& file() const noexcept { return file_; }
  std::int64_t chunkIndex() const noexcept { return chunkIndex_; }
  /// Index of the chunk's first record within the file (0 for
  /// header/footer failures).
  std::uint64_t firstRecord() const noexcept { return firstRecord_; }
  std::uint64_t byteOffset() const noexcept { return byteOffset_; }
  /// The underlying failure, without the location prefix.
  const std::string& reason() const noexcept { return reason_; }

 private:
  std::filesystem::path file_;
  std::int64_t chunkIndex_;
  std::uint64_t firstRecord_;
  std::uint64_t byteOffset_;
  std::string reason_;
};

enum class LogCompression : std::uint32_t {
  kRaw = 0,
  kPacked = 1,
};

/// One chunk-index entry of a CLG5 or CLX5 footer.
struct ChunkInfo {
  std::uint64_t offset = 0;   ///< file offset of the chunk header
  std::uint32_t entryCount = 0;
  table::Hour minStart = 0;
  table::Hour maxEnd = 0;
};

/// The chunk index both CLG5 and CLX5 end in: [count u64], then per chunk
/// [offset u64, entryCount u32, minStart u32, maxEnd u32], then a crc32
/// u32 over everything before it. Written at the stream's position.
void writeChunkFooter(std::ostream& out, std::span<const ChunkInfo> chunks);

/// Reads the footer at `footerOffset` of `path` through `in`. Throws
/// std::runtime_error naming `path` when the declared count is more than
/// the file can hold (checked before anything is allocated), when the
/// footer is truncated, or when its CRC does not match.
std::vector<ChunkInfo> readChunkFooter(std::istream& in,
                                       const std::filesystem::path& path,
                                       std::uint64_t footerOffset);

/// Appends chunks of log entries to one CLG5 file. Single writer per file
/// (each rank owns its own file, exactly as in the paper).
///
/// Crash-safety contract: the header's footerOffset slot stays 0 until
/// close() patches it, so a file torn by a crash (or left by abandon())
/// is rejected by ChunkedLogReader with "missing footer" instead of being
/// silently short — the synthesis quarantine path handles it from there.
class ChunkedLogWriter {
 public:
  /// Resume marker for the checkpoint/restart path: reopen `path` for
  /// appending at exactly `bytes` (a chunk boundary recorded at checkpoint
  /// time), discarding any bytes past it.
  struct ResumeAt {
    std::uint64_t bytes = 0;
  };

  explicit ChunkedLogWriter(const std::filesystem::path& path,
                            LogCompression compression = LogCompression::kRaw);

  /// Resume-open: validates the existing header, scans chunk headers from
  /// the top of the file and requires the scan to land *exactly* on
  /// `resume.bytes` (a checkpoint offset is always a chunk boundary),
  /// truncates the file there — dropping any chunks, torn tails or footer a
  /// crashed or gracefully-closed run left past the checkpoint — rebuilds
  /// the chunk index from the scan, and resets the header's footerOffset
  /// slot to 0 so the resumed file is again detectably-unfinished until the
  /// next close().
  ChunkedLogWriter(const std::filesystem::path& path,
                   LogCompression compression, ResumeAt resume);
  ~ChunkedLogWriter();

  ChunkedLogWriter(const ChunkedLogWriter&) = delete;
  ChunkedLogWriter& operator=(const ChunkedLogWriter&) = delete;

  /// Writes one chunk containing all `entries` (no-op for an empty span).
  void writeChunk(std::span<const table::Event> entries);

  /// Flushes buffered bytes to the OS so everything below bytesWritten()
  /// survives a SIGKILL of this process. Called before a checkpoint
  /// records this writer's offset.
  void sync();

  /// Closes the stream WITHOUT writing the footer — models what a crash
  /// leaves behind (used when a rank aborts on an injected fault, so the
  /// torn file is detectable instead of accidentally finalized by the
  /// destructor). Idempotent with close().
  void abandon();

  /// Writes the footer and closes the file. Idempotent; called by the
  /// destructor if not called explicitly.
  void close();

  std::uint64_t entriesWritten() const noexcept { return entriesWritten_; }
  std::uint64_t chunksWritten() const noexcept { return chunks_.size(); }
  std::uint64_t bytesWritten() const noexcept { return bytesWritten_; }
  LogCompression compression() const noexcept { return compression_; }
  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
  std::ofstream out_;
  LogCompression compression_ = LogCompression::kRaw;
  std::vector<ChunkInfo> chunks_;
  std::uint64_t entriesWritten_ = 0;
  std::uint64_t bytesWritten_ = 0;
  bool closed_ = false;
};

/// Random-access reader over one CLG5 file. Validates magic, version and
/// per-chunk CRCs.
class ChunkedLogReader {
 public:
  explicit ChunkedLogReader(const std::filesystem::path& path);

  std::span<const ChunkInfo> chunks() const noexcept { return chunks_; }
  std::uint64_t totalEntries() const noexcept;
  const std::filesystem::path& path() const noexcept { return path_; }

  /// Reads and CRC-validates chunk `index`.
  std::vector<table::Event> readChunk(std::size_t index);

  /// All entries in file order.
  std::vector<table::Event> readAll();

  /// Entries whose interval overlaps [windowStart, windowEnd); skips chunks
  /// whose time range cannot overlap (index-based read, paper §III).
  std::vector<table::Event> readOverlapping(table::Hour windowStart,
                                            table::Hour windowEnd);

  /// Number of chunks the last readOverlapping call actually loaded
  /// (diagnostic for the pushdown benefit).
  std::size_t lastChunksRead() const noexcept { return lastChunksRead_; }

 private:
  std::filesystem::path path_;
  std::ifstream in_;
  std::vector<ChunkInfo> chunks_;
  std::size_t lastChunksRead_ = 0;
};

}  // namespace chisimnet::elog
