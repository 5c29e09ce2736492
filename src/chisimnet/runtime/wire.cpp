#include "chisimnet/runtime/wire.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "chisimnet/util/binary_io.hpp"

namespace chisimnet::runtime::wire {

std::vector<std::byte> encodeFrame(const Frame& frame) {
  util::ByteWriter out(kFrameHeaderBytes + frame.payload.size());
  out.u32(kFrameMagic);
  out.u32(static_cast<std::uint32_t>(frame.kind));
  out.u32(static_cast<std::uint32_t>(frame.tag));
  out.u64(static_cast<std::uint64_t>(frame.payload.size()));
  out.bytes(frame.payload);
  return out.take();
}

FrameReader::FrameReader(ReadFn read) : read_(std::move(read)) {}

bool FrameReader::readFully(std::span<std::byte> out, bool eofAllowedAtStart) {
  std::size_t have = 0;
  while (have < out.size()) {
    const std::size_t got = read_(out.data() + have, out.size() - have);
    if (got == 0) {
      if (have == 0 && eofAllowedAtStart) {
        return false;
      }
      throw std::runtime_error("torn wire frame: EOF after " +
                               std::to_string(have) + " of " +
                               std::to_string(out.size()) + " bytes");
    }
    have += got;
  }
  return true;
}

std::optional<Frame> FrameReader::next() {
  std::byte header[kFrameHeaderBytes];
  if (!readFully(std::span<std::byte>(header, kFrameHeaderBytes),
                 /*eofAllowedAtStart=*/true)) {
    return std::nullopt;  // clean EOF at a frame boundary
  }
  util::ByteReader in(header, "wire frame header");
  const std::uint32_t magic = in.u32();
  CHISIM_CHECK(magic == kFrameMagic,
               "bad wire frame magic 0x" + std::to_string(magic) +
                   " (corrupt or desynchronized stream)");
  const std::uint32_t kind = in.u32();
  CHISIM_CHECK(kind >= static_cast<std::uint32_t>(FrameKind::kData) &&
                   kind <= static_cast<std::uint32_t>(FrameKind::kHelloAck),
               "unknown wire frame kind " + std::to_string(kind));
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.tag = static_cast<std::int32_t>(in.u32());
  const std::uint64_t length = in.u64();
  // Validate the declared length BEFORE sizing the allocation: a corrupt
  // header must not be able to OOM the receiver.
  validatePayloadLength(static_cast<std::int64_t>(length));
  frame.payload.resize(static_cast<std::size_t>(length));
  if (length > 0) {
    readFully(frame.payload, /*eofAllowedAtStart=*/false);
  }
  return frame;
}

ReadFn fdReadFn(int fd) {
  return [fd](std::byte* out, std::size_t capacity) -> std::size_t {
    while (true) {
      const ssize_t got = ::read(fd, out, capacity);
      if (got >= 0) {
        return static_cast<std::size_t>(got);
      }
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("socket read failed: ") +
                               std::strerror(errno));
    }
  };
}

ReadFn deadlineReadFn(int fd, std::chrono::steady_clock::time_point deadline) {
  return [fd, deadline](std::byte* out, std::size_t capacity) -> std::size_t {
    while (true) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      CHISIM_CHECK(remaining.count() > 0, "worker handshake timed out");
      struct pollfd pfd = {fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw std::runtime_error(std::string("poll failed: ") +
                                 std::strerror(errno));
      }
      if (ready == 0) {
        continue;  // loop re-checks the deadline
      }
      const ssize_t got = ::read(fd, out, capacity);
      if (got >= 0) {
        return static_cast<std::size_t>(got);
      }
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("socket read failed: ") +
                               std::strerror(errno));
    }
  };
}

bool writeAllFd(int fd, std::span<const std::byte> bytes) noexcept {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE, not a process-wide SIGPIPE.
    const ssize_t wrote = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

void configureStreamSocket(int fd, bool tcp) noexcept {
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  if (!tcp) {
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
}

}  // namespace chisimnet::runtime::wire
