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

}  // namespace

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
