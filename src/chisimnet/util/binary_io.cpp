#include "chisimnet/util/binary_io.hpp"

#include <array>

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

std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t seed) noexcept {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const std::byte* cursor = bytes.data();
  std::size_t left = bytes.size();
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
  return crc ^ 0xFFFFFFFFu;
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
