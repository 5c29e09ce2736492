#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "chisimnet/table/io.hpp"
#include "chisimnet/util/rng.hpp"
#include "support.hpp"

namespace chisimnet::table {
namespace {

class TableIoTest : public ::testing::Test {
 protected:
  testsupport::ScratchDir scratch_{"chisimnet_table_io"};
  const std::filesystem::path& dir_ = scratch_.path();
};

EventTable randomEvents(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  EventTable events;
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = static_cast<Hour>(rng.uniformBelow(168));
    events.append(Event{start, start + 1 + static_cast<Hour>(rng.uniformBelow(8)),
                        static_cast<PersonId>(rng.uniformBelow(100000)),
                        static_cast<ActivityId>(rng.uniformBelow(10)),
                        static_cast<PlaceId>(rng.uniformBelow(40000))});
  }
  return events;
}

TEST_F(TableIoTest, RoundTrip) {
  const EventTable original = randomEvents(1, 500);
  const auto path = dir_ / "events.tsv";
  writeEventsTsv(original, path);
  const EventTable loaded = readEventsTsv(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::uint64_t row = 0; row < original.size(); ++row) {
    EXPECT_EQ(loaded.row(row), original.row(row));
  }
}

TEST_F(TableIoTest, EmptyTable) {
  const EventTable empty;
  const auto path = dir_ / "empty.tsv";
  writeEventsTsv(empty, path);
  EXPECT_TRUE(readEventsTsv(path).empty());
}

TEST_F(TableIoTest, HeaderIsWritten) {
  writeEventsTsv(randomEvents(2, 3), dir_ / "h.tsv");
  std::ifstream in(dir_ / "h.tsv");
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "start\tend\tperson\tactivity\tplace");
}

TEST_F(TableIoTest, MalformedRowsRejected) {
  const auto write = [this](const std::string& name, const std::string& body) {
    const auto path = dir_ / name;
    std::ofstream out(path);
    out << "start\tend\tperson\tactivity\tplace\n" << body;
    return path;
  };
  EXPECT_THROW(readEventsTsv(write("few.tsv", "1\t2\t3\n")),
               std::runtime_error);
  EXPECT_THROW(readEventsTsv(write("junk.tsv", "1\t2\tthree\t4\t5\n")),
               std::runtime_error);
  EXPECT_THROW(readEventsTsv(write("trail.tsv", "1\t2\t3\t4\t5\textra\n")),
               std::runtime_error);
  EXPECT_THROW(readEventsTsv(write("order.tsv", "5\t5\t3\t4\t5\n")),
               std::runtime_error);
}

TEST_F(TableIoTest, MissingFileRejected) {
  EXPECT_THROW(readEventsTsv(dir_ / "nope.tsv"), std::runtime_error);
}

TEST_F(TableIoTest, BlankLinesSkipped) {
  const auto path = dir_ / "blank.tsv";
  {
    std::ofstream out(path);
    out << "start\tend\tperson\tactivity\tplace\n"
        << "1\t2\t3\t4\t5\n"
        << "\n"
        << "6\t7\t8\t9\t10\n";
  }
  const EventTable events = readEventsTsv(path);
  EXPECT_EQ(events.size(), 2u);
}

}  // namespace
}  // namespace chisimnet::table
