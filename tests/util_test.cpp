#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <latch>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chisimnet/pop/schedule.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/table/event.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/env.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/label_index.hpp"
#include "chisimnet/util/radix_sort.hpp"
#include "chisimnet/util/rng.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::util {
namespace {

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_THROW(CHISIM_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(CHISIM_REQUIRE(true, "fine"));
}

TEST(Error, CheckThrowsRuntimeError) {
  EXPECT_THROW(CHISIM_CHECK(false, "boom"), std::runtime_error);
  EXPECT_NO_THROW(CHISIM_CHECK(true, "fine"));
}

TEST(Error, MessageContainsContext) {
  try {
    CHISIM_REQUIRE(1 == 2, "custom detail");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("custom detail"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniformBelow(bound), bound);
    }
  }
}

TEST(Rng, UniformBelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.uniformBelow(1), 0u);
  }
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.uniformBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t value = rng.uniformInt(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    sawLo |= value == -2;
    sawHi |= value == 2;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, Uniform01InRangeAndMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(9);
  const int n = 50000;
  double sum = 0.0;
  double sumSq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sumSq += x * x;
  }
  const double mean = sum / n;
  const double var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(0.5);
  }
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(17);
  for (double mean : {0.5, 4.0, 100.0}) {
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(21);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.discrete(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, DiscreteRejectsBadInput) {
  Rng rng(1);
  const std::vector<double> empty;
  EXPECT_THROW(rng.discrete(empty), std::invalid_argument);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.discrete(zero), std::invalid_argument);
  const std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(rng.discrete(negative), std::invalid_argument);
}

TEST(Rng, ForkDecorrelatesStreams) {
  Rng parent(99);
  Rng childA = parent.fork(0);
  Rng childB = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += childA.next() == childB.next() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(4);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(AliasTable, MatchesWeights) {
  Rng rng(31);
  const std::vector<double> weights{5.0, 1.0, 0.0, 4.0};
  const AliasTable table{std::span<const double>(weights)};
  std::array<int, 4> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[table.sample(rng)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.4, 0.01);
}

TEST(AliasTable, SingleWeight) {
  Rng rng(1);
  const std::vector<double> weights{2.5};
  const AliasTable table{std::span<const double>(weights)};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(table.sample(rng), 0u);
  }
}

TEST(ZipfSampler, RankOneMostFrequent) {
  Rng rng(8);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 50000; ++i) {
    const std::size_t rank = zipf.sample(rng);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, 100u);
    ++counts[rank];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
  // Ratio count(1)/count(2) should approximate 2^1.2.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], std::pow(2.0, 1.2),
              0.5);
}

TEST(Crc32, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE check value).
  const char* data = "123456789";
  const auto bytes = std::as_bytes(std::span<const char>(data, 9));
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32(std::span<const std::byte>{}), 0u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::byte> data(64, std::byte{0x5A});
  const std::uint32_t original = crc32(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), original);
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition the
/// kernel behind crc32 must reproduce.
std::uint32_t bitwiseCrc32(std::span<const std::byte> bytes,
                           std::uint32_t seed = 0) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    crc ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::byte> randomBytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> bytes(size);
  for (std::byte& b : bytes) {
    b = static_cast<std::byte>(rng.uniformBelow(256));
  }
  return bytes;
}

/// Every length 0..1100 at every start offset 0..15, unseeded and seeded,
/// against the bitwise reference: the range crosses the fold's 64-byte
/// entry, its 16-byte steps and the table's tail under 16 bytes.
void expectKernelMatchesBitwise(detail::Crc32Kernel kernel) {
  const std::vector<std::byte> data = randomBytes(1100 + 16, 16);
  for (const std::uint32_t seed : {0u, 0x1234ABCDu}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      // The reference chains one byte per length, so each length costs
      // one byte of bitwise work.
      std::uint32_t reference = seed;
      for (std::size_t length = 0; length <= 1100; ++length) {
        const std::span<const std::byte> piece(data.data() + offset, length);
        ASSERT_EQ(kernel(piece, seed), reference)
            << "seed " << seed << " offset " << offset << " length " << length;
        reference = bitwiseCrc32(
            std::span(data).subspan(offset + length, 1), reference);
      }
    }
  }
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  expectKernelMatchesBitwise(&crc32);
}

TEST(Crc32, ChainsAcrossRandomSplits) {
  const std::vector<std::byte> data = randomBytes(4099, 12);
  const std::uint32_t whole = crc32(data);
  EXPECT_EQ(whole, bitwiseCrc32(data));
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint32_t chained = 0;
    std::size_t cursor = 0;
    while (cursor < data.size()) {
      const std::size_t piece =
          std::min<std::size_t>(rng.uniformBelow(40), data.size() - cursor);
      chained = crc32(std::span(data).subspan(cursor, piece), chained);
      cursor += piece;
    }
    EXPECT_EQ(chained, whole) << "trial " << trial;
  }
}

TEST(Crc32, CombineEqualsChainedCrcOverRandomSplits) {
  const std::vector<std::byte> data = randomBytes(5000, 14);
  const std::span<const std::byte> all(data);
  Rng rng(15);
  for (int trial = 0; trial < 200; ++trial) {
    // Split points anywhere, both ends included: empty A, empty B, both.
    std::size_t a = rng.uniformBelow(data.size() + 1);
    std::size_t b = rng.uniformBelow(data.size() + 1);
    if (trial % 10 == 0) {
      b = a;
    }
    if (a > b) {
      std::swap(a, b);
    }
    const std::span<const std::byte> left = all.subspan(0, a);
    const std::span<const std::byte> right = all.subspan(a, b - a);
    EXPECT_EQ(crc32Combine(crc32(left), crc32(right), right.size()),
              crc32(right, crc32(left)))
        << "split " << a << "/" << b;
  }
  EXPECT_EQ(crc32Combine(0x1234ABCDu, crc32({}), 0), 0x1234ABCDu);
  EXPECT_EQ(crc32Combine(crc32({}), crc32(all), all.size()), crc32(all));
  // Three parts folded left to right, as the CADJ splice folds segments.
  const std::span<const std::byte> first = all.subspan(0, 1000);
  const std::span<const std::byte> second = all.subspan(1000, 0);
  const std::span<const std::byte> third = all.subspan(1000);
  std::uint32_t folded = crc32(first);
  folded = crc32Combine(folded, crc32(second), second.size());
  folded = crc32Combine(folded, crc32(third), third.size());
  EXPECT_EQ(folded, crc32(all));
}

TEST(Crc32, TableKernelMatchesBitwiseReference) {
  expectKernelMatchesBitwise(&detail::crc32Table);
}

#if defined(__x86_64__)
bool cpuHasFold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

TEST(Crc32, FoldKernelMatchesBitwiseReference) {
  if (!cpuHasFold()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ or SSE4.1";
  }
  expectKernelMatchesBitwise(&detail::crc32Fold);
}

TEST(Crc32, TakesTheFoldWhereTheCpuHasPclmul) {
  // crc32 calls crc32Kernel(); a lost dispatch would leave every CRC on
  // the table kernel with no test failing on its values.
  EXPECT_EQ(detail::crc32Kernel(),
            cpuHasFold() ? &detail::crc32Fold : &detail::crc32Table);
}
#endif

TEST(Crc32, ChainsAMultiMebibyteBufferAcrossRandomSplits) {
  const std::vector<std::byte> data = randomBytes(3 * 1024 * 1024 + 13, 17);
  const std::uint32_t whole = bitwiseCrc32(data);
  EXPECT_EQ(crc32(data), whole);
  EXPECT_EQ(detail::crc32Table(data, 0), whole);
  Rng rng(18);
  for (int trial = 0; trial < 4; ++trial) {
    // Pieces from empty to 256 KiB, most past the fold's 64-byte entry.
    std::uint32_t chained = 0;
    std::size_t cursor = 0;
    while (cursor < data.size()) {
      const std::size_t limit = trial % 2 == 0 ? 256 * 1024 : 300;
      const std::size_t piece =
          std::min<std::size_t>(rng.uniformBelow(limit), data.size() - cursor);
      chained = crc32(std::span(data).subspan(cursor, piece), chained);
      cursor += piece;
    }
    EXPECT_EQ(chained, whole) << "trial " << trial;
  }
}

TEST(Crc32, CombineOverFoldSizedPieces) {
  const std::vector<std::byte> data = randomBytes(64 * 1024 + 77, 19);
  const std::span<const std::byte> all(data);
  const std::uint32_t whole = crc32(all);
  // Pieces of 64·k + r bytes for r across a 16-byte step, plus a tail.
  for (const std::size_t remainder : {0, 1, 15, 16, 17, 48, 63}) {
    std::uint32_t folded = 0;
    std::size_t cursor = 0;
    for (std::size_t k = 1; cursor < data.size(); ++k) {
      const std::size_t piece =
          std::min(64 * k + remainder, data.size() - cursor);
      folded = crc32Combine(folded, crc32(all.subspan(cursor, piece)), piece);
      cursor += piece;
    }
    EXPECT_EQ(folded, whole) << "remainder " << remainder;
  }
}

TEST(Crc32, ConcurrentFirstUseAgrees) {
  // ctest runs each test in its own process, so four threads make the
  // process's first crc32 calls together and race on picking the kernel.
  const std::vector<std::byte> data = randomBytes(4096 + 5, 20);
  const std::uint32_t expected = bitwiseCrc32(data);
  constexpr std::size_t kThreads = 4;
  std::latch start(kThreads);
  std::array<std::uint32_t, kThreads> results{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = crc32(data);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], expected) << "thread " << t;
  }
}

TEST(LabelIndex, FindsEveryLabelOnDenseSparseAndSkewedIds) {
  Rng rng(16);
  const std::vector<std::vector<std::uint32_t>> sets{
      {},
      {0},
      {UINT32_MAX},
      {0, UINT32_MAX},
      {0, 1, 2, 3, 4, 5, 6, 7},
      {0xFFFFFFF0u, 0xFFFFFFF1u, 0xFFFFFFFFu},
  };
  std::vector<std::vector<std::uint32_t>> cases = sets;
  for (int trial = 0; trial < 8; ++trial) {
    // A dense cluster plus ids spread up to UINT32_MAX: the cluster shares
    // one bucket and is searched within it.
    std::vector<std::uint32_t> ids;
    for (int k = 0; k < 500; ++k) {
      ids.push_back(static_cast<std::uint32_t>(
          k < 450 ? rng.uniformBelow(trial % 2 == 0 ? 600 : 100'000)
                  : rng.uniformBelow(std::uint64_t{UINT32_MAX} + 1)));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    cases.push_back(std::move(ids));
  }
  for (const std::vector<std::uint32_t>& labels : cases) {
    const LabelIndex index(labels);
    for (std::size_t position = 0; position < labels.size(); ++position) {
      ASSERT_EQ(index.positionOf(labels[position]), position)
          << "label " << labels[position] << " of " << labels.size();
    }
  }
}

TEST(BinaryIo, U32RoundTrip) {
  std::stringstream stream;
  writeU32(stream, 0xDEADBEEFu);
  writeU32(stream, 0);
  writeU32(stream, 0xFFFFFFFFu);
  EXPECT_EQ(readU32(stream), 0xDEADBEEFu);
  EXPECT_EQ(readU32(stream), 0u);
  EXPECT_EQ(readU32(stream), 0xFFFFFFFFu);
}

TEST(BinaryIo, U64RoundTrip) {
  std::stringstream stream;
  writeU64(stream, 0x0123456789ABCDEFull);
  EXPECT_EQ(readU64(stream), 0x0123456789ABCDEFull);
}

TEST(BinaryIo, LittleEndianLayout) {
  std::stringstream stream;
  writeU32(stream, 0x01020304u);
  const std::string bytes = stream.str();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(BinaryIo, VarintRoundTrip) {
  std::vector<std::byte> buffer;
  const std::vector<std::uint32_t> values{0, 1, 127, 128, 300, 16383, 16384,
                                          0xFFFFFFFFu};
  for (std::uint32_t value : values) {
    putVarint(buffer, value);
  }
  std::size_t cursor = 0;
  for (std::uint32_t value : values) {
    EXPECT_EQ(getVarint(buffer, cursor), value);
  }
  EXPECT_EQ(cursor, buffer.size());
}

TEST(BinaryIo, VarintSizes) {
  std::vector<std::byte> buffer;
  putVarint(buffer, 127);
  EXPECT_EQ(buffer.size(), 1u);
  buffer.clear();
  putVarint(buffer, 128);
  EXPECT_EQ(buffer.size(), 2u);
  buffer.clear();
  putVarint(buffer, 0xFFFFFFFFu);
  EXPECT_EQ(buffer.size(), 5u);
}

TEST(BinaryIo, VarintTruncationThrows) {
  std::vector<std::byte> buffer;
  putVarint(buffer, 300);
  buffer.pop_back();
  std::size_t cursor = 0;
  EXPECT_THROW(getVarint(buffer, cursor), std::runtime_error);
}

TEST(BinaryIo, ZigzagRoundTrip) {
  for (std::int32_t value : {0, 1, -1, 2, -2, 1000000, -1000000,
                             std::numeric_limits<std::int32_t>::max(),
                             std::numeric_limits<std::int32_t>::min()}) {
    EXPECT_EQ(zigzagDecode(zigzagEncode(value)), value) << value;
  }
  // Small magnitudes map to small codes (the property packing relies on).
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(1), 2u);
}

TEST(BinaryIo, ShortReadThrows) {
  std::stringstream stream;
  stream << "ab";
  EXPECT_THROW(readU32(stream), std::runtime_error);
}

std::vector<std::byte> bytesOf(std::initializer_list<unsigned> values) {
  std::vector<std::byte> bytes;
  for (const unsigned value : values) {
    bytes.push_back(static_cast<std::byte>(value));
  }
  return bytes;
}

TEST(BinaryIo, ByteWriterRoundTripsEveryCall) {
  const std::vector<std::uint32_t> block{7, 8, 0xFFFFFFFFu};
  const std::vector<std::byte> raw = bytesOf({1, 2, 3});
  ByteWriter writer;
  writer.u32(0xDEADBEEFu);
  writer.u64(0x0123456789ABCDEFull);
  writer.f64(-1.5e300);
  writer.string("chisim");
  writer.string("");
  writer.bytes(raw);
  writer.rows(block);
  writer.row(std::uint64_t{42});
  writer.bytes(raw);
  EXPECT_EQ(writer.size(), 4u + 8 + 8 + (4 + 6) + 4 + 3 + 12 + 8 + 3);
  const std::vector<std::byte> bytes = writer.take();
  EXPECT_EQ(writer.size(), 0u);
  // Integers are little-endian.
  EXPECT_EQ(std::vector<std::byte>(bytes.begin(), bytes.begin() + 4),
            bytesOf({0xEF, 0xBE, 0xAD, 0xDE}));

  ByteReader reader(bytes, "round trip");
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.f64(), -1.5e300);
  EXPECT_EQ(reader.string(), "chisim");
  EXPECT_EQ(reader.string(), "");
  const std::span<const std::byte> view = reader.bytes(3);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), raw.begin(), raw.end()));
  EXPECT_EQ(reader.rows<std::uint32_t>(3), block);
  EXPECT_EQ(reader.row<std::uint64_t>(), 42u);
  EXPECT_EQ(reader.offset(), bytes.size() - 3);
  const std::span<const std::byte> rest = reader.rest();
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), raw.begin(), raw.end()));
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_NO_THROW(reader.expectEnd());
}

TEST(BinaryIo, ReadCutAtEveryByteThrowsNamingTheFormat) {
  ByteWriter writer;
  writer.u32(1);
  writer.u64(2);
  writer.string("abc");
  writer.u32(2);
  writer.rows(std::vector<std::uint32_t>{4, 5});
  const std::vector<std::byte> bytes = writer.take();
  const auto readAll = [](ByteReader& reader) {
    reader.u32();
    reader.u64();
    reader.string();
    reader.rows<std::uint32_t>(reader.u32());
    reader.expectEnd();
  };
  ByteReader whole(bytes, "test record");
  EXPECT_NO_THROW(readAll(whole));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader(std::span<const std::byte>(bytes).first(cut),
                      "test record");
    try {
      readAll(reader);
      ADD_FAILURE() << "a record cut at byte " << cut << " was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("test record"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(BinaryIo, CountRejectsOneElementMoreThanTheBytesHold) {
  const std::vector<std::byte> bytes(24);
  ByteReader reader(bytes, "counted block");
  EXPECT_EQ(reader.count(3, 8), 3u);
  EXPECT_EQ(reader.count(0, 8), 0u);
  try {
    reader.count(4, 8, "widgets");
    ADD_FAILURE() << "a count one past the bytes was accepted";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("counted block declares more widgets (4)"),
              std::string::npos)
        << what;
  }
  // Declared counts that would overflow a byte product are still refused.
  EXPECT_THROW(reader.count(UINT64_MAX, 16), std::runtime_error);
  EXPECT_THROW(reader.rows<std::uint64_t>(4), std::runtime_error);
  EXPECT_EQ(reader.offset(), 0u);  // a refused count consumes nothing
  EXPECT_EQ(reader.rows<std::uint64_t>(3).size(), 3u);
  EXPECT_EQ(reader.count(0, 1), 0u);
  EXPECT_THROW(reader.count(1, 1), std::runtime_error);
}

TEST(BinaryIo, TrailingBytesAreRejected) {
  ByteWriter writer;
  writer.u32(5);
  writer.u32(6);
  const std::vector<std::byte> bytes = writer.take();
  ByteReader reader(bytes, "short record");
  EXPECT_EQ(reader.u32(), 5u);
  try {
    reader.expectEnd();
    ADD_FAILURE() << "trailing bytes were accepted";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("short record has 4 trailing bytes"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(reader.u32(), 6u);
  EXPECT_NO_THROW(reader.expectEnd());
}

// Row layout pins: each fixed-layout row is written as one block of its
// object bytes, so these literals are the on-disk and on-wire encodings.
// A layout change fails here by name, not only through a digest.

TEST(BinaryIo, EventRowBytesArePinned) {
  const table::Event event{0x01020304u, 0x05060708u, 0x0A0B0C0Du, 0x11u,
                           0x22334455u};
  const std::vector<std::byte> want =
      bytesOf({0x04, 0x03, 0x02, 0x01, 0x08, 0x07, 0x06, 0x05, 0x0D, 0x0C,
               0x0B, 0x0A, 0x11, 0x00, 0x00, 0x00, 0x55, 0x44, 0x33, 0x22});
  ByteWriter writer;
  writer.row(event);
  EXPECT_EQ(writer.take(), want);
  ByteReader reader(want, "event row");
  EXPECT_EQ(reader.row<table::Event>(), event);
}

TEST(BinaryIo, AdjacencyTripletRowBytesArePinned) {
  const sparse::AdjacencyTriplet triplet{0x01020304u, 0x05060708u,
                                         0x1122334455667788ull};
  const std::vector<std::byte> want =
      bytesOf({0x04, 0x03, 0x02, 0x01, 0x08, 0x07, 0x06, 0x05, 0x88, 0x77,
               0x66, 0x55, 0x44, 0x33, 0x22, 0x11});
  ByteWriter writer;
  writer.row(triplet);
  EXPECT_EQ(writer.take(), want);
  ByteReader reader(want, "triplet row");
  EXPECT_EQ(reader.row<sparse::AdjacencyTriplet>(), triplet);
}

TEST(BinaryIo, PackedStintRowBytesArePinned) {
  pop::PackedStint stint;
  stint.startHour = 3;
  stint.endHour = 168;
  stint.activity = 2;
  stint.place = 0x0A0B0C0Du;
  const std::vector<std::byte> want =
      bytesOf({0x03, 0xA8, 0x02, 0x00, 0x0D, 0x0C, 0x0B, 0x0A});
  ByteWriter writer;
  writer.row(stint);
  EXPECT_EQ(writer.take(), want);
  ByteReader reader(want, "stint row");
  EXPECT_EQ(reader.row<pop::PackedStint>(), stint);
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("CHISIMNET_TEST_VALUE", "2.5", 1);
  EXPECT_DOUBLE_EQ(envDouble("CHISIMNET_TEST_VALUE", 1.0), 2.5);
  ::setenv("CHISIMNET_TEST_VALUE", "junk", 1);
  EXPECT_DOUBLE_EQ(envDouble("CHISIMNET_TEST_VALUE", 1.0), 1.0);
  ::unsetenv("CHISIMNET_TEST_VALUE");
  EXPECT_DOUBLE_EQ(envDouble("CHISIMNET_TEST_VALUE", 3.0), 3.0);

  ::setenv("CHISIMNET_TEST_U64", "123", 1);
  EXPECT_EQ(envU64("CHISIMNET_TEST_U64", 9), 123u);
  ::unsetenv("CHISIMNET_TEST_U64");
  EXPECT_EQ(envU64("CHISIMNET_TEST_U64", 9), 9u);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  // Burn a bit of CPU.
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink += std::sqrt(static_cast<double>(i));
  }
  volatile double keep = sink;
  (void)keep;
  EXPECT_GE(timer.seconds(), 0.0);
  timer.reset();
  EXPECT_LT(timer.seconds(), 1.0);
}

/// The in-place sort deals large spans into buckets and sorts each through
/// a scratch of the largest bucket; small spans take the plain LSD passes.
/// Either way the keys come out as std::sort orders them, repeats included.
TEST(RadixSort, InPlaceMatchesStdSortWithABucketSizedScratch) {
  Rng rng(29);
  const auto key = [](const std::pair<std::uint64_t, std::uint32_t>& item) {
    return item.first;
  };
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1000}, kInPlaceMinItems + 1,
                              std::size_t{300000}}) {
    SCOPED_TRACE("n " + std::to_string(n));
    std::vector<std::pair<std::uint64_t, std::uint32_t>> items;
    for (std::size_t k = 0; k < n; ++k) {
      // Upper-triangular packed pairs over 100 k ids: many repeats.
      const auto i = static_cast<std::uint32_t>(rng.uniformBelow(100000));
      const auto j = i + 1 + static_cast<std::uint32_t>(rng.uniformBelow(50));
      items.emplace_back((std::uint64_t{i} << 32) | j,
                         static_cast<std::uint32_t>(k));
    }
    std::vector<std::uint64_t> expected;
    for (const auto& item : items) {
      expected.push_back(item.first);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::pair<std::uint64_t, std::uint32_t>> scratch;
    radixSortInPlace(std::span(items), scratch, key);
    std::vector<std::uint64_t> sorted;
    for (const auto& item : items) {
      sorted.push_back(item.first);
    }
    EXPECT_EQ(sorted, expected);
    if (n > kInPlaceMinItems) {
      EXPECT_LT(scratch.size(), n / 16);
    }
  }
  // All keys equal: nothing to deal out.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> same(
      kInPlaceMinItems + 5, {7, 0});
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scratch;
  radixSortInPlace(std::span(same), scratch, key);
  EXPECT_TRUE(scratch.empty());
}

}  // namespace
}  // namespace chisimnet::util
