#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "chisimnet/util/error.hpp"

/// The one byte codec behind every binary format and wire message: byte
/// order, bounds checks and row layout are decided here and nowhere else.
/// All multi-byte values are little-endian. A fixed-layout row (a log
/// entry, an adjacency triplet, a packed stint) is its own encoding: a
/// block of rows is written and read as one copy of the rows' object
/// bytes, which the ByteRow constraint and the host check below make
/// exactly the little-endian field sequence.
///
/// - ByteWriter / ByteReader: in-memory encode and bounded decode (frames,
///   snapshots, checkpoint bodies, footers). Every read is checked against
///   the bytes that remain, and a declared element count is bounded by
///   them before it sizes an allocation.
/// - writeU32 / readU32 / ...: iostream header helpers for file headers.
/// - crc32 (a carry-less-multiply fold with a slicing-by-8 fallback) and
///   the varint / zigzag helpers of the packed log encoding.

namespace chisimnet::util {

static_assert(std::endian::native == std::endian::little,
              "binary rows are copied as little-endian object bytes");

/// A type whose object bytes are its wire encoding: trivially copyable and
/// free of padding, so every byte of a row is a byte of a field.
template <typename T>
concept ByteRow = std::is_trivially_copyable_v<T> &&
                  std::has_unique_object_representations_v<T>;

/// The encoded bytes of a row block (a view, no copy).
template <ByteRow T>
std::span<const std::byte> rowBytes(std::span<const T> rows) noexcept {
  return std::as_bytes(rows);
}

/// The bytes a row block is decoded into in place.
template <ByteRow T>
std::span<std::byte> writableRowBytes(std::span<T> rows) noexcept {
  return std::as_writable_bytes(rows);
}

/// Appends little-endian values and row blocks to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserveBytes) {
    bytes_.reserve(reserveBytes);
  }

  void u32(std::uint32_t value) { scalar(value); }
  void u64(std::uint64_t value) { scalar(value); }
  void f64(double value) { scalar(std::bit_cast<std::uint64_t>(value)); }
  /// [length u32][bytes]
  void string(std::string_view text);
  void bytes(std::span<const std::byte> raw) {
    bytes_.insert(bytes_.end(), raw.begin(), raw.end());
  }
  template <ByteRow T>
  void row(const T& value) {
    rows(std::span<const T>(&value, 1));
  }
  template <ByteRow T>
  void rows(std::span<const T> block) {
    bytes(rowBytes(block));
  }
  template <ByteRow T>
  void rows(const std::vector<T>& block) {
    rows(std::span<const T>(block));
  }

  std::size_t size() const noexcept { return bytes_.size(); }
  /// The encoded bytes; the writer is empty afterwards.
  std::vector<std::byte> take() noexcept { return std::move(bytes_); }

 private:
  template <typename T>
  void scalar(T value) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

  std::vector<std::byte> bytes_;
};

/// Reads what ByteWriter writes from a byte span, with a cursor. Every
/// failure is a CHISIM_CHECK (std::runtime_error) that names `format`: a
/// read past the end, a declared count the remaining bytes cannot hold,
/// and (expectEnd) trailing bytes.
class ByteReader {
 public:
  /// `format` names the decoded thing in errors; it must outlive the
  /// reader (a string literal).
  ByteReader(std::span<const std::byte> bytes, std::string_view format) noexcept
      : bytes_(bytes), format_(format) {}

  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(scalar<std::uint64_t>()); }
  std::string string();
  /// The next `count` bytes as a view into the input.
  std::span<const std::byte> bytes(std::uint64_t count);
  /// Everything not yet read; the cursor moves to the end.
  std::span<const std::byte> rest() noexcept;

  template <ByteRow T>
  T row() {
    T value;
    std::memcpy(&value, bytes(sizeof(T)).data(), sizeof(T));
    return value;
  }
  /// A block of `declared` rows; the count is bounded before allocating.
  template <ByteRow T>
  std::vector<T> rows(std::uint64_t declared, std::string_view what = "rows") {
    std::vector<T> block(
        static_cast<std::size_t>(count(declared, sizeof(T), what)));
    if (!block.empty()) {
      const std::span<const std::byte> raw = bytes(block.size() * sizeof(T));
      std::memcpy(block.data(), raw.data(), raw.size());
    }
    return block;
  }

  /// Returns `declared` when the remaining bytes can hold that many
  /// elements of at least `minBytesEach` bytes; throws otherwise. Call it
  /// before a declared count sizes anything.
  std::uint64_t count(std::uint64_t declared, std::size_t minBytesEach,
                      std::string_view what = "entries") const;
  /// Throws when any byte is left unread.
  void expectEnd() const;

  std::size_t offset() const noexcept { return cursor_; }
  std::size_t remaining() const noexcept { return bytes_.size() - cursor_; }

 private:
  template <typename T>
  T scalar() {
    T value;
    std::memcpy(&value, bytes(sizeof(T)).data(), sizeof(T));
    return value;
  }

  std::span<const std::byte> bytes_;
  std::size_t cursor_ = 0;
  std::string_view format_;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span,
/// optionally chained via the seed parameter. On an x86-64 CPU with
/// PCLMULQDQ and SSE4.1 a carry-less-multiply fold covers every whole
/// 16-byte block of a span of 64 bytes or more; elsewhere, and for the
/// rest, a slicing-by-8 table. The kernel is picked once per process and
/// both give the same values.
std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t seed = 0) noexcept;

namespace detail {
/// crc32's kernels, named so tests and benches can reach each one.
using Crc32Kernel = std::uint32_t (*)(std::span<const std::byte>,
                                      std::uint32_t) noexcept;
/// The slicing-by-8 table kernel: the fallback.
std::uint32_t crc32Table(std::span<const std::byte> bytes,
                         std::uint32_t seed) noexcept;
#if defined(__x86_64__)
/// The fold kernel (four 128-bit lanes, 64 bytes a step, then a Barrett
/// reduction; the table takes the tail under 16 bytes). Call it only where
/// the CPU has PCLMULQDQ and SSE4.1.
std::uint32_t crc32Fold(std::span<const std::byte> bytes,
                        std::uint32_t seed) noexcept;
#endif
/// The kernel crc32 calls on this CPU.
Crc32Kernel crc32Kernel() noexcept;
}  // namespace detail

/// The crc32 of A followed by B, from crc32(A), crc32(B) and B's length,
/// without reading either (zlib's crc32_combine: B's length in zero bits is
/// applied to crcA as a GF(2) matrix power, O(log lengthB) 32×32 squarings).
std::uint32_t crc32Combine(std::uint32_t crcA, std::uint32_t crcB,
                           std::uint64_t lengthB) noexcept;

/// LEB128-style unsigned varint append (1-5 bytes for u32 values).
inline void putVarint(std::vector<std::byte>& out, std::uint32_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::byte>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::byte>(value));
}

/// Reads a varint at `cursor`, advancing it. Throws on truncation.
inline std::uint32_t getVarint(std::span<const std::byte> bytes,
                               std::size_t& cursor) {
  std::uint32_t value = 0;
  int shift = 0;
  while (true) {
    CHISIM_CHECK(cursor < bytes.size(), "truncated varint");
    const auto piece = static_cast<std::uint32_t>(bytes[cursor++]);
    value |= (piece & 0x7F) << shift;
    if ((piece & 0x80) == 0) {
      return value;
    }
    shift += 7;
    CHISIM_CHECK(shift < 36, "varint too long");
  }
}

/// ZigZag mapping of signed deltas onto unsigned varint-friendly values.
inline std::uint32_t zigzagEncode(std::int32_t value) noexcept {
  return (static_cast<std::uint32_t>(value) << 1) ^
         static_cast<std::uint32_t>(value >> 31);
}

inline std::int32_t zigzagDecode(std::uint32_t value) noexcept {
  return static_cast<std::int32_t>(value >> 1) ^
         -static_cast<std::int32_t>(value & 1);
}

inline void writeU32(std::ostream& out, std::uint32_t value) {
  unsigned char buffer[4];
  buffer[0] = static_cast<unsigned char>(value);
  buffer[1] = static_cast<unsigned char>(value >> 8);
  buffer[2] = static_cast<unsigned char>(value >> 16);
  buffer[3] = static_cast<unsigned char>(value >> 24);
  out.write(reinterpret_cast<const char*>(buffer), 4);
}

inline void writeU64(std::ostream& out, std::uint64_t value) {
  writeU32(out, static_cast<std::uint32_t>(value));
  writeU32(out, static_cast<std::uint32_t>(value >> 32));
}

inline std::uint32_t readU32(std::istream& in) {
  unsigned char buffer[4];
  in.read(reinterpret_cast<char*>(buffer), 4);
  CHISIM_CHECK(in.gcount() == 4, "unexpected end of stream reading u32");
  return static_cast<std::uint32_t>(buffer[0]) |
         (static_cast<std::uint32_t>(buffer[1]) << 8) |
         (static_cast<std::uint32_t>(buffer[2]) << 16) |
         (static_cast<std::uint32_t>(buffer[3]) << 24);
}

inline std::uint64_t readU64(std::istream& in) {
  const std::uint64_t low = readU32(in);
  const std::uint64_t high = readU32(in);
  return low | (high << 32);
}

inline void writeBytes(std::ostream& out, std::span<const std::byte> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

inline void readBytes(std::istream& in, std::span<std::byte> bytes) {
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  CHISIM_CHECK(in.gcount() == static_cast<std::streamsize>(bytes.size()),
               "unexpected end of stream reading byte block");
}

}  // namespace chisimnet::util
