#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/event_logger.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

namespace chisimnet::elog {
namespace {

using table::Event;

class ElogTest : public ::testing::Test {
 protected:

  std::filesystem::path file(const std::string& name) const {
    return dir_ / name;
  }

  testsupport::ScratchDir scratch_{"chisimnet_elog"};
  const std::filesystem::path& dir_ = scratch_.path();
};

std::vector<Event> randomEvents(std::uint64_t seed, std::size_t count,
                                table::Hour horizon = 168) {
  util::Rng rng(seed);
  std::vector<Event> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(horizon));
    events.push_back(Event{
        start, start + 1 + static_cast<table::Hour>(rng.uniformBelow(10)),
        static_cast<table::PersonId>(rng.uniformBelow(1000)),
        static_cast<table::ActivityId>(rng.uniformBelow(9)),
        static_cast<table::PlaceId>(rng.uniformBelow(500))});
  }
  return events;
}

TEST_F(ElogTest, WriterReaderRoundTrip) {
  const auto events = randomEvents(1, 100);
  {
    ChunkedLogWriter writer(file("a.clg5"));
    writer.writeChunk(events);
    writer.close();
  }
  ChunkedLogReader reader(file("a.clg5"));
  EXPECT_EQ(reader.chunks().size(), 1u);
  EXPECT_EQ(reader.totalEntries(), 100u);
  EXPECT_EQ(reader.readAll(), events);
}

TEST_F(ElogTest, MultipleChunksPreserveOrder) {
  const auto all = randomEvents(2, 250);
  {
    ChunkedLogWriter writer(file("b.clg5"));
    writer.writeChunk(std::span<const Event>(all).subspan(0, 100));
    writer.writeChunk(std::span<const Event>(all).subspan(100, 100));
    writer.writeChunk(std::span<const Event>(all).subspan(200, 50));
    writer.close();
  }
  ChunkedLogReader reader(file("b.clg5"));
  EXPECT_EQ(reader.chunks().size(), 3u);
  EXPECT_EQ(reader.readAll(), all);
  EXPECT_EQ(reader.readChunk(1),
            std::vector<Event>(all.begin() + 100, all.begin() + 200));
}

TEST_F(ElogTest, EmptyChunkIgnored) {
  ChunkedLogWriter writer(file("c.clg5"));
  writer.writeChunk({});
  writer.close();
  ChunkedLogReader reader(file("c.clg5"));
  EXPECT_EQ(reader.chunks().size(), 0u);
  EXPECT_TRUE(reader.readAll().empty());
}

TEST_F(ElogTest, EntryIs20BytesOnDisk) {
  const auto events = randomEvents(3, 1000);
  std::uint64_t bytes = 0;
  {
    ChunkedLogWriter writer(file("d.clg5"));
    writer.writeChunk(events);
    writer.close();
    bytes = writer.bytesWritten();
  }
  // Paper §III: 20 bytes per entry. Header+chunk overhead is constant.
  const std::uint64_t payload = 1000 * 20;
  EXPECT_GE(bytes, payload);
  EXPECT_LE(bytes, payload + 64);
  // The real file includes the footer too.
  EXPECT_GT(std::filesystem::file_size(file("d.clg5")), payload);
}

TEST_F(ElogTest, CloseIsIdempotent) {
  ChunkedLogWriter writer(file("e.clg5"));
  writer.writeChunk(randomEvents(4, 10));
  writer.close();
  writer.close();
  EXPECT_THROW(writer.writeChunk(randomEvents(5, 1)), std::invalid_argument);
}

TEST_F(ElogTest, DestructorFinalizesFile) {
  {
    ChunkedLogWriter writer(file("f.clg5"));
    writer.writeChunk(randomEvents(6, 20));
    // no explicit close
  }
  ChunkedLogReader reader(file("f.clg5"));
  EXPECT_EQ(reader.totalEntries(), 20u);
}

TEST_F(ElogTest, CorruptPayloadDetected) {
  {
    ChunkedLogWriter writer(file("g.clg5"));
    writer.writeChunk(randomEvents(7, 50));
    writer.close();
  }
  // Flip one payload byte (past the 20-byte file header + 24-byte chunk
  // header).
  {
    std::fstream stream(file("g.clg5"),
                        std::ios::binary | std::ios::in | std::ios::out);
    stream.seekp(50);
    char byte = 0;
    stream.read(&byte, 1);
    stream.seekp(40);
    byte = static_cast<char>(byte ^ 0x01);
    stream.write(&byte, 1);
  }
  ChunkedLogReader reader(file("g.clg5"));
  EXPECT_THROW(reader.readChunk(0), std::runtime_error);
}

TEST_F(ElogTest, TruncatedFileDetected) {
  {
    ChunkedLogWriter writer(file("h.clg5"));
    writer.writeChunk(randomEvents(8, 50));
    writer.close();
  }
  const auto size = std::filesystem::file_size(file("h.clg5"));
  std::filesystem::resize_file(file("h.clg5"), size - 8);
  EXPECT_THROW(ChunkedLogReader{file("h.clg5")}, std::runtime_error);
}

TEST_F(ElogTest, NotAClg5FileRejected) {
  {
    std::ofstream out(file("i.clg5"));
    out << "definitely not a log";
  }
  EXPECT_THROW(ChunkedLogReader{file("i.clg5")}, std::runtime_error);
}

TEST_F(ElogTest, ReadOverlappingFiltersAndPushesDown) {
  // Chunk 1 covers hours [0,50), chunk 2 covers [100,150).
  std::vector<Event> early;
  std::vector<Event> late;
  for (table::Hour h = 0; h < 50; h += 2) {
    early.push_back(Event{h, h + 2, 1, 0, 1});
    late.push_back(Event{static_cast<table::Hour>(h + 100),
                         static_cast<table::Hour>(h + 102), 2, 0, 2});
  }
  {
    ChunkedLogWriter writer(file("j.clg5"));
    writer.writeChunk(early);
    writer.writeChunk(late);
    writer.close();
  }
  ChunkedLogReader reader(file("j.clg5"));

  const auto hitsLate = reader.readOverlapping(120, 130);
  EXPECT_EQ(reader.lastChunksRead(), 1u);  // early chunk skipped entirely
  for (const Event& event : hitsLate) {
    EXPECT_TRUE(table::overlapsWindow(event, 120, 130));
    EXPECT_EQ(event.person, 2u);
  }

  const auto hitsNone = reader.readOverlapping(60, 90);
  EXPECT_TRUE(hitsNone.empty());
  EXPECT_EQ(reader.lastChunksRead(), 0u);

  const auto hitsAll = reader.readOverlapping(0, 200);
  EXPECT_EQ(hitsAll.size(), early.size() + late.size());
  EXPECT_EQ(reader.lastChunksRead(), 2u);
}

TEST_F(ElogTest, PackedCompressionRoundTrip) {
  const auto events = randomEvents(20, 5000);
  {
    ChunkedLogWriter writer(file("p.clg5"), LogCompression::kPacked);
    writer.writeChunk(std::span<const Event>(events).subspan(0, 2500));
    writer.writeChunk(std::span<const Event>(events).subspan(2500));
    writer.close();
  }
  ChunkedLogReader reader(file("p.clg5"));
  EXPECT_EQ(reader.readAll(), events);
}

TEST_F(ElogTest, PackedCompressionShrinksRealisticLogs) {
  // Realistic shape: entries sorted by end time (stints are logged when
  // they end), bounded activity ids — the packed encoding's sweet spot.
  auto events = randomEvents(21, 20000);
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.end < b.end;
  });
  std::uint64_t rawBytes = 0;
  std::uint64_t packedBytes = 0;
  {
    ChunkedLogWriter writer(file("raw.clg5"), LogCompression::kRaw);
    writer.writeChunk(events);
    writer.close();
    rawBytes = writer.bytesWritten();
  }
  {
    ChunkedLogWriter writer(file("packed.clg5"), LogCompression::kPacked);
    writer.writeChunk(events);
    writer.close();
    packedBytes = writer.bytesWritten();
  }
  EXPECT_LT(packedBytes * 2, rawBytes) << "expected at least 2x compression";
  // Both decode to the same entries.
  ChunkedLogReader rawReader(file("raw.clg5"));
  ChunkedLogReader packedReader(file("packed.clg5"));
  EXPECT_EQ(rawReader.readAll(), packedReader.readAll());
}

TEST_F(ElogTest, PackedWindowPushdownStillWorks) {
  std::vector<Event> events;
  for (table::Hour h = 0; h < 100; ++h) {
    events.push_back(Event{h, h + 1, h, 0, 1});
  }
  {
    ChunkedLogWriter writer(file("pw.clg5"), LogCompression::kPacked);
    writer.writeChunk(std::span<const Event>(events).subspan(0, 50));
    writer.writeChunk(std::span<const Event>(events).subspan(50));
    writer.close();
  }
  ChunkedLogReader reader(file("pw.clg5"));
  const auto hits = reader.readOverlapping(60, 70);
  EXPECT_EQ(reader.lastChunksRead(), 1u);
  EXPECT_EQ(hits.size(), 10u);
}

TEST_F(ElogTest, PackedCorruptionDetected) {
  {
    ChunkedLogWriter writer(file("pc.clg5"), LogCompression::kPacked);
    writer.writeChunk(randomEvents(22, 500));
    writer.close();
  }
  {
    std::fstream stream(file("pc.clg5"),
                        std::ios::binary | std::ios::in | std::ios::out);
    stream.seekp(60);
    char byte = 0;
    stream.read(&byte, 1);
    stream.seekp(60);
    byte = static_cast<char>(byte ^ 0x40);
    stream.write(&byte, 1);
  }
  ChunkedLogReader reader(file("pc.clg5"));
  EXPECT_THROW(reader.readChunk(0), std::runtime_error);
}

/// Overwrites the entry count of the first chunk in a closed CLG5 file,
/// in its chunk header and in the footer index, and re-CRCs the footer so
/// only the count is wrong.
void inflateFirstChunkCount(const std::filesystem::path& path,
                            std::uint32_t entryCount) {
  std::fstream stream(path, std::ios::binary | std::ios::in | std::ios::out);
  stream.seekg(12);  // header footerOffset slot
  const std::uint64_t footerOffset = util::readU64(stream);
  stream.seekp(20);  // first chunk header: entryCount
  util::writeU32(stream, entryCount);
  // Footer: [count u64][offset u64, entryCount u32, ...], then its CRC.
  stream.seekg(static_cast<std::streamoff>(footerOffset));
  const std::uint64_t chunkCount = util::readU64(stream);
  stream.seekp(static_cast<std::streamoff>(footerOffset + 16));
  util::writeU32(stream, entryCount);
  std::vector<std::byte> footer(8 + chunkCount * 20);
  stream.seekg(static_cast<std::streamoff>(footerOffset));
  util::readBytes(stream, footer);
  stream.seekp(static_cast<std::streamoff>(footerOffset + footer.size()));
  util::writeU32(stream, util::crc32(footer));
}

TEST_F(ElogTest, PackedChunkCountBeyondItsPayloadIsRejected) {
  // 2^31 declared entries would be a 40 GiB allocation; every packed entry
  // takes at least 5 varint bytes, so the payload bounds the count first.
  {
    ChunkedLogWriter writer(file("inflated.clg5"), LogCompression::kPacked);
    writer.writeChunk(randomEvents(31, 50));
    writer.close();
  }
  inflateFirstChunkCount(file("inflated.clg5"), 1u << 31);
  ChunkedLogReader reader(file("inflated.clg5"));
  ASSERT_EQ(reader.chunks()[0].entryCount, 1u << 31);
  try {
    reader.readChunk(0);
    FAIL() << "an inflated packed chunk count was accepted";
  } catch (const Clg5Error& error) {
    EXPECT_NE(error.reason().find("at least 5 bytes per entry"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(ElogTest, FooterCountBeyondTheFileIsRejected) {
  {
    ChunkedLogWriter writer(file("footer.clg5"));
    writer.writeChunk(randomEvents(32, 50));
    writer.close();
  }
  {
    std::fstream stream(file("footer.clg5"),
                        std::ios::binary | std::ios::in | std::ios::out);
    stream.seekg(12);
    const std::uint64_t footerOffset = util::readU64(stream);
    stream.seekp(static_cast<std::streamoff>(footerOffset));
    util::writeU64(stream, std::uint64_t{1} << 40);
  }
  try {
    ChunkedLogReader reader(file("footer.clg5"));
    FAIL() << "an inflated footer count was accepted";
  } catch (const Clg5Error& error) {
    EXPECT_EQ(error.chunkIndex(), -1);
    EXPECT_NE(error.reason().find("more than the file can hold"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(ElogTest, ChunkIndexRecordsTimeRanges) {
  {
    ChunkedLogWriter writer(file("k.clg5"));
    writer.writeChunk(std::vector<Event>{{5, 9, 1, 0, 1}, {7, 20, 2, 0, 1}});
    writer.close();
  }
  ChunkedLogReader reader(file("k.clg5"));
  ASSERT_EQ(reader.chunks().size(), 1u);
  EXPECT_EQ(reader.chunks()[0].minStart, 5u);
  EXPECT_EQ(reader.chunks()[0].maxEnd, 20u);
}

class CacheSweep : public ElogTest,
                   public ::testing::WithParamInterface<std::size_t> {};

TEST_P(CacheSweep, LoggerFlushesExactlyOnCacheBoundaries) {
  const std::size_t cacheSize = GetParam();
  const auto events = randomEvents(9, 1003);
  const auto path = file("sweep.clg5");
  {
    EventLogger logger(std::make_unique<ChunkedLogWriter>(path), cacheSize);
    for (const Event& event : events) {
      logger.log(event);
    }
    EXPECT_EQ(logger.entriesLogged(), events.size());
    logger.close();
    // ceil(1003 / cacheSize) flushes.
    EXPECT_EQ(logger.flushCount(), (events.size() + cacheSize - 1) / cacheSize);
  }
  ChunkedLogReader reader(path);
  EXPECT_EQ(reader.readAll(), events);
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, CacheSweep,
                         ::testing::Values(1, 7, 100, 1000, 1003, 5000));

TEST_F(ElogTest, LoggerExplicitFlush) {
  EventLogger logger(std::make_unique<ChunkedLogWriter>(file("l.clg5")), 100);
  logger.log(Event{0, 1, 1, 0, 1});
  EXPECT_EQ(logger.cachedEntries(), 1u);
  logger.flush();
  EXPECT_EQ(logger.cachedEntries(), 0u);
  EXPECT_EQ(logger.flushCount(), 1u);
  logger.flush();  // empty flush is a no-op
  EXPECT_EQ(logger.flushCount(), 1u);
  logger.close();
}

TEST_F(ElogTest, LoggerRejectsUseAfterClose) {
  EventLogger logger(std::make_unique<ChunkedLogWriter>(file("m.clg5")), 10);
  logger.close();
  EXPECT_THROW(logger.log(Event{0, 1, 1, 0, 1}), std::invalid_argument);
}

TEST_F(ElogTest, LogDirectoryNamingAndListing) {
  EXPECT_EQ(logFilePath(dir_, 3).filename(), "rank_0003.clg5");
  for (int rank : {2, 0, 1}) {
    ChunkedLogWriter writer(logFilePath(dir_, rank));
    writer.writeChunk(randomEvents(10 + rank, 5));
    writer.close();
  }
  const auto files = listLogFiles(dir_);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].filename(), "rank_0000.clg5");
  EXPECT_EQ(files[2].filename(), "rank_0002.clg5");
}

TEST_F(ElogTest, ListLogFilesMissingDirectory) {
  EXPECT_TRUE(listLogFiles(dir_ / "nope").empty());
}

TEST_F(ElogTest, LoadEventsMergesFilesWithWindow) {
  {
    ChunkedLogWriter writer(logFilePath(dir_, 0));
    writer.writeChunk(std::vector<Event>{{0, 5, 1, 0, 1}, {100, 105, 1, 0, 1}});
    writer.close();
  }
  {
    ChunkedLogWriter writer(logFilePath(dir_, 1));
    writer.writeChunk(std::vector<Event>{{2, 4, 2, 0, 2}});
    writer.close();
  }
  const auto files = listLogFiles(dir_);
  const table::EventTable all = loadEvents(files, 0, 0xFFFFFFFFu);
  EXPECT_EQ(all.size(), 3u);
  const table::EventTable window = loadEvents(files, 0, 10);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_GT(totalFileBytes(files), 0u);
}

}  // namespace
}  // namespace chisimnet::elog
