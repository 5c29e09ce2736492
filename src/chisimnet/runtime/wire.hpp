#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "chisimnet/runtime/comm.hpp"

/// CSF1 wire framing and shared stream-socket plumbing.
///
/// One frame codec serves the socket transport (stream_transport.hpp) on
/// both address families, so a worker neither knows nor cares whether an
/// AF_UNIX or a TCP socket carried its commands.
///
/// ## Frame format (all integers little-endian, host order)
///
///   magic   u32   0x43534631 ("CSF1")
///   kind    u32   1=data 2=ping 3=pong 4=hello 5=hello-ack
///   tag     i32   message tag (data), rank/epoch (hello/hello-ack)
///   length  u64   payload bytes that follow; validated against
///                 kMaxPayloadBytes BEFORE any allocation
///
/// A short read inside a frame (torn header or payload), a bad magic, an
/// unknown kind, or an oversized length all poison the connection: the
/// reader closes it and the peer is handled through the transport's death
/// path rather than trusting any further bytes.

namespace chisimnet::runtime::wire {

inline constexpr std::uint32_t kFrameMagic = 0x43534631u;  // "CSF1"
inline constexpr std::size_t kFrameHeaderBytes = 20;

enum class FrameKind : std::uint32_t {
  kData = 1,
  kPing = 2,
  kPong = 3,
  kHello = 4,
  kHelloAck = 5,
};

struct Frame {
  FrameKind kind = FrameKind::kData;
  std::int32_t tag = 0;
  std::vector<std::byte> payload;
};

/// Serializes header + payload into one buffer (written with a single
/// writeAll so a frame is never interleaved with another writer's bytes;
/// writers hold a per-connection write mutex).
std::vector<std::byte> encodeFrame(const Frame& frame);

/// Byte source for FrameReader: fills `out` with up to `capacity` bytes,
/// returns the count actually read (may be short — stream sockets split
/// frames arbitrarily), or 0 for EOF. Throws on I/O errors.
using ReadFn = std::function<std::size_t(std::byte* out, std::size_t capacity)>;

/// Incremental frame decoder over a stream of possibly-short reads.
/// Separated from the socket so tests can feed it adversarial streams
/// (split headers, zero-length and kMaxPayloadBytes-sized payloads, torn
/// tails, bad magic) without a live file descriptor.
class FrameReader {
 public:
  explicit FrameReader(ReadFn read);

  /// Next complete frame; nullopt on clean EOF at a frame boundary.
  /// Throws on torn frames (EOF mid-frame), bad magic, unknown kind, or a
  /// length above kMaxPayloadBytes — the connection must be discarded.
  std::optional<Frame> next();

 private:
  /// Fills `out` completely; false when EOF arrives before the first byte
  /// (only allowed at a frame boundary), throws when EOF tears the middle.
  bool readFully(std::span<std::byte> out, bool eofAllowedAtStart);

  ReadFn read_;
};

/// ReadFn over a file descriptor with EINTR retry.
ReadFn fdReadFn(int fd);

/// ReadFn over `fd` that gives up at `deadline` (handshake reads only; a
/// steady-state pump blocks indefinitely and is woken by shutdown()).
/// Throws when the deadline passes before the requested bytes arrive.
ReadFn deadlineReadFn(int fd, std::chrono::steady_clock::time_point deadline);

/// Writes all bytes to `fd`, looping over partial writes and EINTR, using
/// send(MSG_NOSIGNAL) so a dead peer yields EPIPE instead of SIGPIPE.
/// Returns false on any write error (the connection should be considered
/// poisoned); never throws.
bool writeAllFd(int fd, std::span<const std::byte> bytes) noexcept;

/// One place for stream-socket setup shared by the AF_UNIX and TCP
/// paths: CLOEXEC always (a transport fd must never leak across an exec
/// into a later-spawned sibling), and for TCP sockets TCP_NODELAY (the
/// protocol is request/reply over small frames; Nagle only adds latency)
/// plus SO_KEEPALIVE (a dead peer on a quiet connection is eventually
/// surfaced as an error even without application pings). Write errors from
/// dead peers are handled uniformly via writeAllFd's MSG_NOSIGNAL — no
/// per-socket SIGPIPE configuration is needed.
void configureStreamSocket(int fd, bool tcp) noexcept;

}  // namespace chisimnet::runtime::wire
