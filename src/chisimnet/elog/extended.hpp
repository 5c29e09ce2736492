#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/table/event.hpp"

/// Extended log entries (paper §III): "Log entries can be extended by the
/// addition of other integer entries to support the logging of agent
/// properties such as a disease state."
///
/// CLX5 is the CLG5 format generalized to a configurable number of extra
/// u32 columns per entry; the base five-field schema is unchanged, so base
/// tooling concepts (chunk index, time pushdown, CRC) carry over — the
/// chunk-index footer is CLG5's own (writeChunkFooter/readChunkFooter). The
/// disease layer (abm/disease.hpp) logs state transitions through this
/// writer with one extra column holding the new disease state.

namespace chisimnet::elog {

/// A base event plus `extras` additional u32 attribute columns.
struct ExtendedEvent {
  table::Event base;
  std::vector<std::uint32_t> extras;

  friend bool operator==(const ExtendedEvent&, const ExtendedEvent&) = default;
};

/// Writer for CLX5 files with a fixed number of extra columns.
///
/// Like CLG5, the header's footerOffset slot stays 0 until close(), so a
/// half-written file from a crash (or abandon()) is rejected by
/// ExtendedLogReader instead of being silently short.
class ExtendedLogWriter {
 public:
  /// Resume marker: reopen `path` for appending at exactly `bytes` (a
  /// chunk boundary recorded at checkpoint time).
  struct ResumeAt {
    std::uint64_t bytes = 0;
  };

  ExtendedLogWriter(const std::filesystem::path& path,
                    std::uint32_t extraColumns);

  /// Resume-open: validates the header, scans chunk headers (payload size
  /// is derivable — entryCount x (5 + extras) x 4 bytes) and requires the
  /// scan to land exactly on `resume.bytes`, truncates there, rebuilds the
  /// chunk index and resets footerOffset to 0 (see
  /// ChunkedLogWriter's resume constructor for the full contract).
  ExtendedLogWriter(const std::filesystem::path& path,
                    std::uint32_t extraColumns, ResumeAt resume);
  ~ExtendedLogWriter();

  ExtendedLogWriter(const ExtendedLogWriter&) = delete;
  ExtendedLogWriter& operator=(const ExtendedLogWriter&) = delete;

  std::uint32_t extraColumns() const noexcept { return extraColumns_; }

  /// Writes one chunk. Every entry must carry exactly extraColumns extras.
  void writeChunk(std::span<const ExtendedEvent> entries);

  /// Flushes buffered bytes to the OS so everything below bytesWritten()
  /// survives a SIGKILL (called before a checkpoint records the offset).
  void sync();

  /// Closes without a footer — the crash-shaped exit (see
  /// ChunkedLogWriter::abandon). Idempotent with close().
  void abandon();

  void close();

  std::uint64_t entriesWritten() const noexcept { return entriesWritten_; }
  std::uint64_t bytesWritten() const noexcept { return bytesWritten_; }

 private:
  std::filesystem::path path_;
  std::ofstream out_;
  std::uint32_t extraColumns_;
  std::vector<ChunkInfo> chunks_;
  std::uint64_t entriesWritten_ = 0;
  std::uint64_t bytesWritten_ = 0;
  bool closed_ = false;
};

/// Reader for CLX5 files.
class ExtendedLogReader {
 public:
  explicit ExtendedLogReader(const std::filesystem::path& path);

  std::uint32_t extraColumns() const noexcept { return extraColumns_; }
  std::span<const ChunkInfo> chunks() const noexcept { return chunks_; }
  std::uint64_t totalEntries() const noexcept;

  std::vector<ExtendedEvent> readChunk(std::size_t index);
  std::vector<ExtendedEvent> readAll();

  /// Entries overlapping the window, with chunk-range pushdown.
  std::vector<ExtendedEvent> readOverlapping(table::Hour windowStart,
                                             table::Hour windowEnd);

 private:
  std::filesystem::path path_;
  std::ifstream in_;
  std::uint32_t extraColumns_ = 0;
  std::vector<ChunkInfo> chunks_;
};

}  // namespace chisimnet::elog
