#include "chisimnet/util/binary_io.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace chisimnet::util {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight input bytes at once.
constexpr CrcTables makeCrcTables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value & 1u) ? (0xEDB88320u ^ (value >> 1)) : (value >> 1);
    }
    tables[0][i] = value;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      const std::uint32_t previous = tables[k - 1][i];
      tables[k][i] = tables[0][previous & 0xFFu] ^ (previous >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/// Little-endian u32 at `bytes` (one load on little-endian hosts).
std::uint32_t loadLe32(const std::byte* bytes) noexcept {
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

/// Advances the CRC register (the complemented CRC) over `left` bytes:
/// eight table lookups per 8-byte block, then one per tail byte.
std::uint32_t tableUpdate(std::uint32_t crc, const std::byte* cursor,
                          std::size_t left) noexcept {
  const CrcTables& t = kCrcTables;
  for (; left >= 8; left -= 8, cursor += 8) {
    const std::uint32_t low = loadLe32(cursor) ^ crc;
    const std::uint32_t high = loadLe32(cursor + 4);
    crc = t[7][low & 0xFFu] ^ t[6][(low >> 8) & 0xFFu] ^
          t[5][(low >> 16) & 0xFFu] ^ t[4][low >> 24] ^
          t[3][high & 0xFFu] ^ t[2][(high >> 8) & 0xFFu] ^
          t[1][(high >> 16) & 0xFFu] ^ t[0][high >> 24];
  }
  for (; left > 0; --left, ++cursor) {
    crc = t[0][(crc ^ static_cast<std::uint32_t>(*cursor)) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

/// x^exponent mod P, bit-reflected into 33 bits: the carry-less multiplier
/// that moves a 64-bit half of a lane exponent - 32 bits further along the
/// message (Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ", Intel 2009). In the reflected domain a shift right
/// multiplies by x, and the bit shifted out is x^32 = 0xEDB88320.
constexpr std::uint64_t foldConstant(unsigned exponent) noexcept {
  std::uint32_t power = 0x80000000u;  // x^0
  for (unsigned step = 0; step < exponent; ++step) {
    power = (power & 1u) ? (0xEDB88320u ^ (power >> 1)) : (power >> 1);
  }
  return std::uint64_t{power} << 1;
}

// Multipliers for the low and high halves of a lane folded 512 bits (across
// four lanes) and 128 bits (into one lane), and for the low 32 bits of the
// last 96 folded 32 bits.
constexpr std::uint64_t kBy512Low = foldConstant(512 + 32);
constexpr std::uint64_t kBy512High = foldConstant(512 - 32);
constexpr std::uint64_t kBy128Low = foldConstant(128 + 32);
constexpr std::uint64_t kBy128High = foldConstant(128 - 32);
constexpr std::uint64_t kBy32 = foldConstant(64);
/// P and floor(x^64 / P), bit-reflected into 33 bits, for the Barrett
/// reduction from 64 to 32 bits.
constexpr std::uint64_t kReflectedPoly = (std::uint64_t{0xEDB88320u} << 1) | 1u;
constexpr std::uint64_t kReflectedQuotient = 0x1F7011641u;

/// Two u64 in one vector, `low` in the low half.
inline __m128i pair(std::uint64_t low, std::uint64_t high) noexcept {
  return _mm_set_epi64x(static_cast<long long>(high),
                        static_cast<long long>(low));
}

/// One fold: multiplies the low and high halves of `lane` by the low and
/// high halves of `k` (carry-less) and adds the next 16 message bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i foldLane(
    __m128i lane, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

inline __m128i load128(const std::byte* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Advances the CRC register over `size` bytes, a multiple of 16 and at
/// least 64: four 128-bit lanes fold 64 bytes per step, fold into one lane,
/// take the 16-byte remainder, and reduce to 32 bits.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t foldBlocks(
    std::uint32_t crc, const std::byte* data, std::size_t size) noexcept {
  const __m128i by512 = pair(kBy512Low, kBy512High);
  const __m128i by128 = pair(kBy128Low, kBy128High);
  __m128i lane0 =
      _mm_xor_si128(load128(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i lane1 = load128(data + 16);
  __m128i lane2 = load128(data + 32);
  __m128i lane3 = load128(data + 48);
  for (data += 64, size -= 64; size >= 64; data += 64, size -= 64) {
    lane0 = foldLane(lane0, by512, load128(data));
    lane1 = foldLane(lane1, by512, load128(data + 16));
    lane2 = foldLane(lane2, by512, load128(data + 32));
    lane3 = foldLane(lane3, by512, load128(data + 48));
  }
  __m128i acc = foldLane(lane0, by128, lane1);
  acc = foldLane(acc, by128, lane2);
  acc = foldLane(acc, by128, lane3);
  for (; size >= 16; data += 16, size -= 16) {
    acc = foldLane(acc, by128, load128(data));
  }

  // 128 -> 96 bits: the low half times x^96 onto the high half. 96 -> 64
  // bits: the low 32 bits times x^64 onto the rest.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, by128, 0x10));
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32),
                                           pair(kBy32, 0), 0x00));

  // Barrett: q = floor(low32 * mu / x^32), and acc + q * P leaves the CRC
  // in bits 32..63.
  const __m128i barrett = pair(kReflectedPoly, kReflectedQuotient);
  __m128i quotient =
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  quotient = _mm_clmulepi64_si128(_mm_and_si128(quotient, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(acc, quotient), 1));
}

#endif

/// A 32×32 GF(2) matrix, one u32 column per bit of the input vector.
using Gf2Matrix = std::array<std::uint32_t, 32>;

std::uint32_t gf2Times(const Gf2Matrix& matrix, std::uint32_t vector) noexcept {
  std::uint32_t sum = 0;
  for (std::size_t bit = 0; vector != 0; vector >>= 1, ++bit) {
    if ((vector & 1u) != 0) {
      sum ^= matrix[bit];
    }
  }
  return sum;
}

Gf2Matrix gf2Square(const Gf2Matrix& matrix) noexcept {
  Gf2Matrix square{};
  for (std::size_t bit = 0; bit < 32; ++bit) {
    square[bit] = gf2Times(matrix, matrix[bit]);
  }
  return square;
}

}  // namespace

std::uint32_t crc32Combine(std::uint32_t crcA, std::uint32_t crcB,
                           std::uint64_t lengthB) noexcept {
  // The operator that feeds one zero bit through the CRC register, squared
  // three times: one zero byte. Each further squaring doubles the bytes it
  // feeds, so the set bits of lengthB pick the powers to apply.
  Gf2Matrix op{};
  op[0] = 0xEDB88320u;
  for (std::size_t bit = 1; bit < 32; ++bit) {
    op[bit] = std::uint32_t{1} << (bit - 1);
  }
  op = gf2Square(gf2Square(gf2Square(op)));
  for (; lengthB != 0; lengthB >>= 1, op = gf2Square(op)) {
    if ((lengthB & 1u) != 0) {
      crcA = gf2Times(op, crcA);
    }
  }
  return crcA ^ crcB;
}

namespace detail {

std::uint32_t crc32Table(std::span<const std::byte> bytes,
                         std::uint32_t seed) noexcept {
  return tableUpdate(seed ^ 0xFFFFFFFFu, bytes.data(), bytes.size()) ^
         0xFFFFFFFFu;
}

#if defined(__x86_64__)
std::uint32_t crc32Fold(std::span<const std::byte> bytes,
                        std::uint32_t seed) noexcept {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const std::byte* cursor = bytes.data();
  std::size_t left = bytes.size();
  if (left >= 64) {
    const std::size_t folded = left & ~std::size_t{15};
    crc = foldBlocks(crc, cursor, folded);
    cursor += folded;
    left -= folded;
  }
  return tableUpdate(crc, cursor, left) ^ 0xFFFFFFFFu;
}
#endif

Crc32Kernel crc32Kernel() noexcept {
#if defined(__x86_64__)
  static const Crc32Kernel kernel = [] {
    // A call during another file's static initialisation may precede
    // libgcc's own CPU probe, so probe here first.
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")
               ? &crc32Fold
               : &crc32Table;
  }();
  return kernel;
#else
  return &crc32Table;
#endif
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t seed) noexcept {
  return detail::crc32Kernel()(bytes, seed);
}

void ByteWriter::string(std::string_view text) {
  CHISIM_CHECK(text.size() <= UINT32_MAX,
               "string of " + std::to_string(text.size()) +
                   " bytes does not fit a u32 length prefix");
  u32(static_cast<std::uint32_t>(text.size()));
  bytes(std::as_bytes(std::span<const char>(text.data(), text.size())));
}

std::span<const std::byte> ByteReader::bytes(std::uint64_t count) {
  CHISIM_CHECK(count <= remaining(),
               "truncated " + std::string(format_) + ": " +
                   std::to_string(count) + " bytes needed at offset " +
                   std::to_string(cursor_) + ", " +
                   std::to_string(remaining()) + " left");
  const std::span<const std::byte> view =
      bytes_.subspan(cursor_, static_cast<std::size_t>(count));
  cursor_ += view.size();
  return view;
}

std::span<const std::byte> ByteReader::rest() noexcept {
  const std::span<const std::byte> view = bytes_.subspan(cursor_);
  cursor_ = bytes_.size();
  return view;
}

std::string ByteReader::string() {
  const std::span<const std::byte> text =
      bytes(count(u32(), 1, "string bytes"));
  return std::string(reinterpret_cast<const char*>(text.data()), text.size());
}

std::uint64_t ByteReader::count(std::uint64_t declared,
                                std::size_t minBytesEach,
                                std::string_view what) const {
  CHISIM_CHECK(minBytesEach > 0 && declared <= remaining() / minBytesEach,
               std::string(format_) + " declares more " + std::string(what) +
                   " (" + std::to_string(declared) + ") than its remaining " +
                   std::to_string(remaining()) + " bytes can hold");
  return declared;
}

void ByteReader::expectEnd() const {
  CHISIM_CHECK(remaining() == 0, std::string(format_) + " has " +
                                     std::to_string(remaining()) +
                                     " trailing bytes");
}

}  // namespace chisimnet::util
