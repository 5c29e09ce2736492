#include "chisimnet/runtime/stream_transport.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/util/binary_io.hpp"

extern char** environ;

namespace chisimnet::runtime {

namespace {

/// Re-dial backoff base; doubles per failed attempt, capped well below
/// any sane grace window so a worker gets several shots inside it.
constexpr std::uint64_t kDialBackoffMs = 50;
constexpr std::uint64_t kDialBackoffCapMs = 2000;

constexpr std::string_view kUnixScheme = "unix:";

/// All of `text` as a decimal integer in [lo, hi]: no sign, no spaces, no
/// trailing characters. Throws std::invalid_argument naming `what`.
std::uint64_t parseDecimal(std::string_view text, std::uint64_t lo,
                           std::uint64_t hi, const std::string& what) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  CHISIM_REQUIRE(!text.empty() && error == std::errc() && stop == end &&
                     value >= lo && value <= hi,
                 "malformed " + what + " '" + std::string(text) +
                     "' (expected an integer in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "])");
  return value;
}

/// A bootstrap variable parsed strictly; `fallback` when it is unset.
std::uint64_t bootstrapValue(const char* name, std::uint64_t lo,
                             std::uint64_t hi,
                             std::optional<std::uint64_t> fallback = {}) {
  const char* value = std::getenv(name);
  if (value == nullptr) {
    CHISIM_REQUIRE(fallback.has_value(),
                   std::string("missing worker bootstrap variable ") + name);
    return *fallback;
  }
  return parseDecimal(value, lo, hi, name);
}

std::pair<std::string, std::uint16_t> splitHostPort(const std::string& spec,
                                                    bool allowEphemeral) {
  const std::size_t colon = spec.rfind(':');
  CHISIM_REQUIRE(colon != std::string::npos && colon > 0,
                 "malformed address '" + spec + "' (expected host:port)");
  const auto port = parseDecimal(std::string_view(spec).substr(colon + 1),
                                 allowEphemeral ? 0 : 1, 65535,
                                 "port in address '" + spec + "'");
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// A socket address of either family, ready for bind() or connect().
struct Endpoint {
  sockaddr_storage storage{};
  socklen_t length = 0;
  int family = AF_UNIX;

  const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

Endpoint unixEndpoint(const std::string& path) {
  sockaddr_un address{};
  CHISIM_REQUIRE(!path.empty() && path.size() < sizeof(address.sun_path),
                 "socket path '" + path + "' does not fit sun_path (" +
                     std::to_string(sizeof(address.sun_path) - 1) +
                     " bytes max); point TMPDIR at a shorter directory");
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.data(), path.size());
  Endpoint out;
  std::memcpy(&out.storage, &address, sizeof(address));
  out.length = sizeof(address);
  return out;
}

/// getaddrinfo for a numeric-or-named IPv4 host. Throws on failure.
Endpoint tcpEndpoint(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &results);
  CHISIM_CHECK(rc == 0 && results != nullptr,
               "cannot resolve host '" + host + "': " + ::gai_strerror(rc));
  sockaddr_in address{};
  std::memcpy(&address, results->ai_addr, sizeof(address));
  ::freeaddrinfo(results);
  address.sin_port = htons(port);
  Endpoint out;
  std::memcpy(&out.storage, &address, sizeof(address));
  out.length = sizeof(address);
  out.family = AF_INET;
  return out;
}

Endpoint endpointOf(const std::string& address) {
  if (address.starts_with(kUnixScheme)) {
    return unixEndpoint(address.substr(kUnixScheme.size()));
  }
  const auto [host, port] = parseHostPort(address);
  return tcpEndpoint(host, port);
}

}  // namespace

std::pair<std::string, std::uint16_t> parseHostPort(const std::string& spec) {
  return splitHostPort(spec, /*allowEphemeral=*/false);
}

int dialOnce(const std::string& address, std::chrono::milliseconds timeout,
             int rank) {
  if (fault::armed()) {
    FaultSite ctx;
    ctx.rank = rank;
    fault::hit("sock.connect", ctx);  // kThrow fails this attempt
  }
  const Endpoint endpoint = endpointOf(address);
  const int fd = ::socket(endpoint.family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CHISIM_CHECK(fd >= 0,
               std::string("socket() failed: ") + std::strerror(errno));
  wire::configureStreamSocket(fd, endpoint.family == AF_INET);
  const auto fail = [fd, &address](const std::string& detail) {
    ::close(fd);
    throw std::runtime_error("connect to " + address + " " + detail);
  };
  // Non-blocking connect bounded by `timeout`. AF_UNIX completes (or
  // fails, e.g. EAGAIN on a full backlog) immediately.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, endpoint.get(), endpoint.length) != 0) {
    if (errno != EINPROGRESS) {
      fail(std::string("failed: ") + std::strerror(errno));
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        fail("timed out");
      }
      struct pollfd pfd = {fd, POLLOUT, 0};
      if (::poll(&pfd, 1, static_cast<int>(remaining.count())) > 0) {
        break;
      }
    }
    int soError = 0;
    socklen_t errorLen = sizeof(soError);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &errorLen);
    if (soError != 0) {
      fail(std::string("failed: ") + std::strerror(soError));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for frame I/O
  return fd;
}

// -------------------------------------------------------------- root end

StreamTransport::StreamTransport(StreamTransportOptions options)
    : options_(std::move(options)), beats_(options_.rankCount) {
  CHISIM_REQUIRE(options_.rankCount >= 1, "transport needs at least one rank");
  CHISIM_REQUIRE(options_.heartbeatMs >= 1, "heartbeat period must be >= 1ms");
  CHISIM_REQUIRE(options_.heartbeatMissLimit >= 2,
                 "heartbeat miss limit must be >= 2");
  CHISIM_REQUIRE(options_.connectTimeoutMs >= 1,
                 "connect timeout must be >= 1ms");
  CHISIM_REQUIRE(options_.connectRetries >= 0, "negative connect retries");
  CHISIM_REQUIRE(options_.maxRespawns >= 0, "negative respawn budget");
  CHISIM_REQUIRE(options_.tcp || options_.listen.empty(),
                 "a listen address requires the tcp family");
  for (int rank = 0; rank < options_.rankCount; ++rank) {
    slots_.push_back(std::make_unique<Slot>());
  }
  pumps_.resize(static_cast<std::size_t>(options_.rankCount));

  try {
    // Bind + listen before any worker exists so every dial target is valid.
    Endpoint endpoint;
    std::string host = "127.0.0.1";
    if (options_.tcp) {
      std::uint16_t port = 0;
      if (!options_.listen.empty()) {
        std::tie(host, port) =
            splitHostPort(options_.listen, /*allowEphemeral=*/true);
      }
      endpoint = tcpEndpoint(host, port);
    } else {
      // mkdtemp creates the directory 0700: only this user can dial in.
      std::string dir =
          (std::filesystem::temp_directory_path() / "chisim-sock-XXXXXX")
              .string();
      CHISIM_CHECK(::mkdtemp(dir.data()) != nullptr,
                   "cannot create socket directory: " +
                       std::string(std::strerror(errno)));
      socketDir_ = dir;
      address_ = socketDir_ + "/rank0.sock";
      endpoint = unixEndpoint(address_);
      address_ = std::string(kUnixScheme) + address_;
    }
    listenFd_ = ::socket(endpoint.family, SOCK_STREAM | SOCK_CLOEXEC, 0);
    CHISIM_CHECK(listenFd_ >= 0,
                 std::string("socket() failed: ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    CHISIM_CHECK(::bind(listenFd_, endpoint.get(), endpoint.length) == 0 &&
                     ::listen(listenFd_, options_.rankCount + 8) == 0,
                 "cannot listen on " +
                     (options_.tcp ? host : address_) + ": " +
                     std::strerror(errno));
    if (options_.tcp) {
      sockaddr_in bound{};
      socklen_t boundLen = sizeof(bound);
      ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound),
                    &boundLen);
      // Workers dial back to this root; an any-address bind is reachable
      // via loopback from local children.
      address_ = (host == "0.0.0.0" ? std::string("127.0.0.1") : host) +
                 ":" + std::to_string(ntohs(bound.sin_port));
    }
    CHISIM_CHECK(::pipe2(wakeFds_, O_CLOEXEC) == 0,
                 std::string("pipe2 failed: ") + std::strerror(errno));
    acceptThread_ = std::thread([this] { acceptLoop(); });
    if (options_.listen.empty()) {
      for (int rank = 1; rank < options_.rankCount; ++rank) {
        const pid_t pid = spawnWorker(rank, 0);
        std::lock_guard<std::mutex> lock(stateMutex_);
        slot(rank).pid = pid;
      }
    }
  } catch (...) {
    teardown();
    throw;
  }
  monitor_ = std::make_unique<PeriodicTask>(
      std::chrono::milliseconds(options_.heartbeatMs),
      [this] { monitorTick(); });
}

StreamTransport::~StreamTransport() { teardown(); }

void StreamTransport::teardown() noexcept {
  shuttingDown_ = true;
  monitor_.reset();  // joins the monitor thread; no more respawns
  if (acceptThread_.joinable()) {
    const char byte = 0;
    (void)!::write(wakeFds_[1], &byte, 1);
    acceptThread_.join();
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);  // a worker re-dialing from here on fails fast
    listenFd_ = -1;
  }
  aborted_ = true;
  rootQueue_.notifyAll();

  // After quiesce() + stop commands the local children exit on their own;
  // give them a moment before escalating to SIGKILL. External workers are
  // not ours to reap — closing their connections is their exit cue.
  std::vector<pid_t> waiting;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    for (auto& s : slots_) {
      if (s->pid > 0) {
        waiting.push_back(s->pid);
      }
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!waiting.empty() && std::chrono::steady_clock::now() < deadline) {
    std::erase_if(waiting, [](pid_t pid) {
      return ::waitpid(pid, nullptr, WNOHANG) == pid;
    });
    if (!waiting.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (const pid_t pid : waiting) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }

  for (auto& s : slots_) {
    shutdownSlotFd(*s);  // wakes each pump with EOF
  }
  for (auto* threads : {&pumps_, &retiredPumps_}) {
    for (std::thread& pump : *threads) {
      if (pump.joinable()) {
        pump.join();
      }
    }
  }
  for (auto& s : slots_) {
    if (s->fd >= 0) {
      ::close(s->fd);
      s->fd = -1;
    }
  }
  for (int& fd : wakeFds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (!socketDir_.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(socketDir_, ignored);
  }
}

StreamTransport::Slot& StreamTransport::slot(int rank) const {
  CHISIM_REQUIRE(rank >= 1 && rank < options_.rankCount,
                 "invalid worker rank");
  return *slots_[static_cast<std::size_t>(rank)];
}

pid_t StreamTransport::spawnWorker(int rank, std::uint64_t epoch) {
  // Build argv/envp BEFORE fork: the child of a multithreaded parent may
  // only call async-signal-safe functions, so no allocation after fork.
  const char* const bootstrap[] = {
      kWorkerConnectEnv,        kWorkerRankEnv,
      kWorkerRankCountEnv,      kWorkerEpochEnv,
      kWorkerConnectTimeoutEnv, kWorkerConnectRetriesEnv,
      kWorkerFaultPlanEnv};
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view view(*entry);
    const bool inherited = std::none_of(
        std::begin(bootstrap), std::end(bootstrap), [view](const char* name) {
          return view.starts_with(std::string(name) + "=");
        });
    if (inherited) {
      env.emplace_back(view);
    }
  }
  const auto put = [&env](const char* name, const std::string& value) {
    env.push_back(std::string(name) + "=" + value);
  };
  put(kWorkerConnectEnv, address_);
  put(kWorkerRankEnv, std::to_string(rank));
  put(kWorkerRankCountEnv, std::to_string(options_.rankCount));
  put(kWorkerEpochEnv, std::to_string(epoch));
  put(kWorkerConnectTimeoutEnv, std::to_string(options_.connectTimeoutMs));
  put(kWorkerConnectRetriesEnv, std::to_string(options_.connectRetries));
  if (FaultPlan* plan = fault::current()) {
    put(kWorkerFaultPlanEnv, plan->encode());
  }
  std::vector<char*> envp;
  for (std::string& entry : env) {
    envp.push_back(entry.data());
  }
  envp.push_back(nullptr);
  std::string exe = "/proc/self/exe";
  std::string workerFlag = "--worker";
  char* argv[] = {exe.data(), workerFlag.data(), nullptr};

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execve(exe.c_str(), argv, envp.data());
    _exit(127);  // exec failed; reaped like any other death
  }
  CHISIM_CHECK(pid > 0, std::string("fork failed: ") + std::strerror(errno));
  return pid;
}

void StreamTransport::acceptLoop() {
  while (true) {
    struct pollfd fds[2] = {{listenFd_, POLLIN, 0}, {wakeFds_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (shuttingDown_.load() || fds[1].revents != 0) {
      return;
    }
    if (ready <= 0) {
      continue;  // EINTR
    }
    const int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;  // EINTR, ECONNABORTED, or a dialer that gave up
    }
    wire::configureStreamSocket(fd, options_.tcp);
    // Inline handshake with a deadline. A dialer that stalls, lies about
    // its rank or epoch, sends garbage, or claims an oversize payload is
    // dropped by closing ITS socket.
    bool admitted = false;
    try {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(
              std::max<std::uint64_t>(1000, options_.connectTimeoutMs));
      wire::FrameReader reader(wire::deadlineReadFn(fd, deadline));
      auto frame = reader.next();
      CHISIM_CHECK(frame.has_value() &&
                       frame->kind == wire::FrameKind::kHello,
                   "malformed worker hello");
      util::ByteReader hello(frame->payload, "worker hello");
      const std::uint64_t claimed = hello.u64();
      hello.expectEnd();
      if (fault::armed()) {
        FaultSite ctx;
        ctx.rank = frame->tag;
        fault::hit("sock.accept", ctx);  // kThrow refuses this dial
      }
      admitted = admitWorker(fd, frame->tag, claimed);
    } catch (...) {
      admitted = false;
    }
    if (!admitted) {
      ::close(fd);
    }
  }
}

bool StreamTransport::admitWorker(int fd, int rank,
                                  std::uint64_t claimedEpoch) {
  if (rank < 1 || rank >= options_.rankCount) {
    return false;
  }
  Slot& s = slot(rank);
  std::lock_guard<std::mutex> lock(stateMutex_);
  // Only a slot waiting for a dial admits one, and only at its epoch: a
  // live slot refuses a double connect, a disconnected one is still being
  // classified (the dialer's backoff retry lands after the monitor's next
  // tick), and a stale-epoch zombie or an impostor guessing is refused.
  if (shuttingDown_.load() || quiesced_.load() || aborted_.load() ||
      (s.state != SlotState::kConnecting &&
       s.state != SlotState::kReconnecting) ||
      claimedEpoch != s.epoch) {
    return false;
  }
  // Ack (granted epoch + application payload) before the slot goes live:
  // per-connection ordering guarantees the worker holds its parameters
  // before the first command arrives.
  wire::Frame ack;
  ack.kind = wire::FrameKind::kHelloAck;
  ack.tag = static_cast<std::int32_t>(s.epoch + 1);
  ack.payload = options_.helloPayload;
  if (!wire::writeAllFd(fd, wire::encodeFrame(ack))) {
    return false;
  }
  {
    std::lock_guard<std::mutex> writeLock(s.writeMutex);
    s.fd = fd;
  }
  s.epoch += 1;
  if (s.respawned) {
    noteEvent(WorkerEvent::Kind::kRespawn, rank, s.lastDeathDetail);
  } else if (s.epoch > 1) {
    noteEvent(WorkerEvent::Kind::kReconnect, rank, s.lastDeathDetail);
  }
  s.state = SlotState::kLive;
  s.respawned = false;
  s.lastDeathDetail.clear();
  beats_.beat(rank);
  // The monitor moves a dead connection's pump out under this lock before
  // the slot can admit again, so the handle is empty or a finished thread.
  std::thread& pump = pumps_[static_cast<std::size_t>(rank)];
  if (pump.joinable()) {
    retiredPumps_.push_back(std::move(pump));
  }
  const std::uint64_t epoch = s.epoch;
  pump = std::thread([this, rank, epoch, fd] { pumpLoop(rank, epoch, fd); });
  admitted_.notify_all();
  return true;
}

void StreamTransport::pumpLoop(int rank, std::uint64_t epoch, int fd) {
  std::string detail = "socket EOF";
  try {
    wire::FrameReader reader(wire::fdReadFn(fd));
    while (auto frame = reader.next()) {
      beats_.beat(rank);
      if (frame->kind == wire::FrameKind::kData) {
        Message message;
        message.source = rank;
        message.tag = frame->tag;
        message.payload = std::move(frame->payload);
        rootQueue_.post(std::move(message));
      }
    }
  } catch (const std::exception& error) {
    detail = error.what();
  }
  flagDeath(rank, epoch, detail);
}

void StreamTransport::shutdownSlotFd(Slot& s) noexcept {
  std::lock_guard<std::mutex> lock(s.writeMutex);
  if (s.fd >= 0) {
    ::shutdown(s.fd, SHUT_RDWR);
  }
}

void StreamTransport::flagDeath(int rank, std::uint64_t epoch,
                                const std::string& detail) {
  if (shuttingDown_.load()) {
    return;
  }
  std::lock_guard<std::mutex> lock(stateMutex_);
  Slot& s = slot(rank);
  if (s.epoch != epoch || s.state != SlotState::kLive) {
    return;  // stale: the slot was already re-admitted or flagged
  }
  s.state = SlotState::kDisconnected;
  s.lastDeathDetail = detail;
}

void StreamTransport::noteEvent(WorkerEvent::Kind kind, int rank,
                                std::string detail) {
  events_.push_back(WorkerEvent{kind, rank, std::move(detail)});
}

void StreamTransport::killSlot(int rank, const std::string& detail,
                               bool report) {
  Slot& s = slot(rank);
  s.state = SlotState::kDead;
  s.respawned = false;
  if (report) {
    noteEvent(WorkerEvent::Kind::kPermanentDeath, rank, detail);
  }
  if (s.pid > 0) {
    ::kill(s.pid, SIGKILL);  // reaped by the monitor or teardown
  }
  shutdownSlotFd(s);
  admitted_.notify_all();  // waitForWorkers gives up on a dead rank
}

void StreamTransport::onChildExit(int rank,
                                  std::chrono::steady_clock::time_point now) {
  Slot& s = slot(rank);
  if (s.state == SlotState::kDead || quiesced_.load() ||
      shuttingDown_.load()) {
    return;
  }
  const std::string detail =
      s.lastDeathDetail.empty() ? "worker process exited" : s.lastDeathDetail;
  if (s.respawns >= options_.maxRespawns) {
    killSlot(rank, detail + "; respawn budget spent", true);
    return;
  }
  shutdownSlotFd(s);  // a still-open connection becomes a flagged death
  try {
    s.pid = spawnWorker(rank, s.epoch);
  } catch (const std::exception& error) {
    killSlot(rank, detail + "; respawn failed: " + error.what(), true);
    return;
  }
  ++s.respawns;
  s.respawned = true;
  s.lastDeathDetail = detail;
  s.deadline = now + std::chrono::milliseconds(std::max(
                         options_.reconnectGraceMs, options_.connectTimeoutMs));
}

void StreamTransport::monitorTick() {
  if (shuttingDown_.load() || aborted_.load()) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  const auto silenceLimit = std::chrono::milliseconds(
      options_.heartbeatMs *
      static_cast<std::uint64_t>(options_.heartbeatMissLimit));
  struct Closed {
    int fd;            // dead connection's descriptor, detached under lock
    std::thread pump;  // its reader, moved out under the lock
  };
  std::vector<Closed> closed;
  std::vector<int> live;
  bool died = false;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    for (int rank = 1; rank < options_.rankCount; ++rank) {
      Slot& s = slot(rank);
      const bool wasDead = s.state == SlotState::kDead;
      if (s.pid > 0 && ::waitpid(s.pid, nullptr, WNOHANG) == s.pid) {
        s.pid = -1;  // reaped; never waited on again
        onChildExit(rank, now);
      }
      switch (s.state) {
        case SlotState::kLive:
          if (beats_.overdue(rank, silenceLimit)) {
            // Presumed half-open or hung: poison the connection (a live
            // worker notices the EOF and re-dials); a local child is
            // killed so the launcher respawns it.
            if (s.pid > 0) {
              ::kill(s.pid, SIGKILL);
            }
            shutdownSlotFd(s);
          } else {
            live.push_back(rank);
          }
          break;
        case SlotState::kDisconnected: {
          // A fresh death opens the reconnect window (a respawned child
          // keeps its own, longer one); while quiescing it is final and
          // unreported.
          if (quiesced_.load()) {
            killSlot(rank, "", false);
          } else {
            s.state = SlotState::kReconnecting;
            if (!s.respawned) {
              s.deadline =
                  now + std::chrono::milliseconds(options_.reconnectGraceMs);
            }
          }
          // Detach the dead connection under the lock: once the state
          // leaves kDisconnected the accept thread may install a fresh
          // one, which the close/join below must never touch.
          std::lock_guard<std::mutex> writeLock(s.writeMutex);
          closed.push_back(
              {std::exchange(s.fd, -1),
               std::move(pumps_[static_cast<std::size_t>(rank)])});
          break;
        }
        case SlotState::kReconnecting:
          if (now > s.deadline) {
            killSlot(rank,
                     s.lastDeathDetail + (s.respawned
                                              ? "; respawned worker never "
                                                "dialed in"
                                              : "; reconnect grace expired"),
                     true);
          }
          break;
        default:
          break;
      }
      died = died || (!wasDead && s.state == SlotState::kDead);
    }
  }

  wire::Frame ping;
  ping.kind = wire::FrameKind::kPing;
  const std::vector<std::byte> pingBytes = wire::encodeFrame(ping);
  for (const int rank : live) {
    Slot& s = slot(rank);
    std::lock_guard<std::mutex> lock(s.writeMutex);
    if (s.fd >= 0 && !wire::writeAllFd(s.fd, pingBytes)) {
      ::shutdown(s.fd, SHUT_RDWR);
    }
  }
  for (Closed& entry : closed) {
    // The dead connection's pump has flagged its death and is exiting;
    // join it before the fd can be closed and its number reused.
    if (entry.pump.joinable()) {
      entry.pump.join();
    }
    if (entry.fd >= 0) {
      ::close(entry.fd);
    }
  }
  if (died) {
    rootQueue_.notifyAll();  // recvFor waiters re-check permanent death
  }
}

bool StreamTransport::waitForWorkers(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(stateMutex_);
  const auto countIn = [this](SlotState state) {
    return std::count_if(slots_.begin() + 1, slots_.end(),
                         [state](const auto& s) { return s->state == state; });
  };
  admitted_.wait_for(lock, timeout, [&] {
    return countIn(SlotState::kDead) > 0 ||
           countIn(SlotState::kLive) == options_.rankCount - 1;
  });
  return countIn(SlotState::kLive) == options_.rankCount - 1;
}

void StreamTransport::send(int self, int dest, int tag,
                           std::span<const std::byte> payload) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  CHISIM_REQUIRE(dest >= 0 && dest < options_.rankCount,
                 "invalid destination rank");
  validatePayloadLength(static_cast<std::int64_t>(payload.size()));
  if (dest == 0) {
    rootQueue_.post(Message{0, tag, {payload.begin(), payload.end()}});
    return;
  }
  std::vector<std::byte> encoded = wire::encodeFrame(
      wire::Frame{wire::FrameKind::kData, tag, {payload.begin(), payload.end()}});
  Slot& s = slot(dest);
  if (fault::armed()) {
    FaultSite ctx;
    ctx.rank = dest;
    ctx.payload = &encoded;
    if (fault::hit("sock.send", ctx) == FaultAction::kKillRank) {
      // Scripted process death: a real SIGKILL against the local child;
      // the frame is lost with it.
      std::lock_guard<std::mutex> lock(stateMutex_);
      if (s.pid > 0) {
        ::kill(s.pid, SIGKILL);
      }
      return;
    }
    if (fault::hit("sock.drop", ctx) == FaultAction::kKillRank) {
      // Scripted partition: the pump sees EOF, the slot opens its grace
      // window, and the still-alive worker re-dials.
      shutdownSlotFd(s);
      return;
    }
  }
  std::lock_guard<std::mutex> lock(s.writeMutex);
  if (s.fd >= 0 && !wire::writeAllFd(s.fd, encoded)) {
    ::shutdown(s.fd, SHUT_RDWR);  // poisoned; the pump flags the death
  }
}

Message StreamTransport::recv(int self, int source, int tag) {
  auto message = recvFor(self, std::chrono::milliseconds::max(), source, tag);
  CHISIM_CHECK(message.has_value(),
               "rank " + std::to_string(source) +
                   " is permanently lost; no reply will ever arrive");
  return std::move(*message);
}

std::optional<Message> StreamTransport::recvFor(
    int self, std::chrono::milliseconds timeout, int source, int tag) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (timeout != std::chrono::milliseconds::max()) {
    deadline = std::chrono::steady_clock::now() + timeout;
  }
  Message out;
  const auto result =
      rootQueue_.wait(out, source, tag, deadline, [this, source] {
        return aborted_.load() || (source >= 1 && isPermanentlyDead(source));
      });
  // A permanently dead source fails fast, not at the deadline: the driver
  // converges to markLost.
  CHISIM_CHECK(result != MessageQueue::WaitResult::kInterrupted ||
                   !aborted_.load(),
               "transport aborted while receiving");
  if (result != MessageQueue::WaitResult::kMessage) {
    return std::nullopt;
  }
  return out;
}

bool StreamTransport::tryRecv(int self, Message& out, int source, int tag) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  return rootQueue_.tryRecv(out, source, tag);
}

std::size_t StreamTransport::pendingMessages(int self) const {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  return rootQueue_.pending();
}

void StreamTransport::barrier(int /*self*/) {
  throw std::runtime_error(
      "the socket transport has no barrier (workers are root-driven)");
}

void StreamTransport::abort() noexcept {
  aborted_ = true;
  rootQueue_.notifyAll();
}

void StreamTransport::quiesce() noexcept { quiesced_ = true; }

void StreamTransport::forsakeRank(int rank) {
  if (rank == 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    killSlot(rank, "", false);
  }
  rootQueue_.notifyAll();
}

bool StreamTransport::isPermanentlyDead(int rank) const {
  if (rank == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(stateMutex_);
  return slot(rank).state == SlotState::kDead;
}

std::vector<StreamTransport::WorkerEvent> StreamTransport::drainEvents() {
  std::lock_guard<std::mutex> lock(stateMutex_);
  return std::exchange(events_, {});
}

// ------------------------------------------------------------ worker end

bool StreamWorkerLink::isWorkerProcess() {
  return std::getenv(kWorkerConnectEnv) != nullptr;
}

StreamWorkerLink::StreamWorkerLink()
    : rank_(static_cast<int>(bootstrapValue(
          kWorkerRankEnv, 1, std::numeric_limits<std::int32_t>::max()))),
      rankCount_(static_cast<int>(bootstrapValue(
          kWorkerRankCountEnv, 2, std::numeric_limits<std::int32_t>::max()))),
      connectTimeoutMs_(bootstrapValue(kWorkerConnectTimeoutEnv, 1,
                                       std::numeric_limits<std::int32_t>::max(),
                                       5000)),
      connectRetries_(static_cast<int>(
          bootstrapValue(kWorkerConnectRetriesEnv, 0, 1000, 5))),
      epoch_(bootstrapValue(kWorkerEpochEnv, 0,
                            std::numeric_limits<std::int32_t>::max(), 0)) {
  const char* address = std::getenv(kWorkerConnectEnv);
  CHISIM_REQUIRE(address != nullptr,
                 std::string("missing worker bootstrap variable ") +
                     kWorkerConnectEnv);
  address_ = address;
  if (address_.starts_with(kUnixScheme)) {
    unixEndpoint(address_.substr(kUnixScheme.size()));
  } else {
    parseHostPort(address_);
  }
  CHISIM_REQUIRE(rank_ < rankCount_, "worker rank " + std::to_string(rank_) +
                                         " is outside the rank count " +
                                         std::to_string(rankCount_));
}

StreamWorkerLink::~StreamWorkerLink() {
  shuttingDown_ = true;
  {
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }
  if (pump_.joinable()) {
    pump_.join();
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::vector<std::byte> StreamWorkerLink::dialAndHello() {
  // The dial and the hello exchange retry as one unit: a refused handshake
  // (the root closing our socket — stale epoch, occupied slot, a death
  // still being classified) counts as a failed attempt, so the backoff
  // paces re-admission against the root's monitor cadence.
  std::string lastError = "no attempts made";
  std::uint64_t backoff = kDialBackoffMs;
  for (int attempt = 0; attempt <= connectRetries_ && !shuttingDown_.load();
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min<std::uint64_t>(backoff * 2, kDialBackoffCapMs);
    }
    int fd = -1;
    try {
      fd = dialOnce(address_, std::chrono::milliseconds(connectTimeoutMs_),
                    rank_);
      util::ByteWriter epoch;
      epoch.u64(epoch_);
      const wire::Frame hello{wire::FrameKind::kHello, rank_, epoch.take()};
      CHISIM_CHECK(wire::writeAllFd(fd, wire::encodeFrame(hello)),
                   "failed to send worker hello");
      wire::FrameReader reader(wire::deadlineReadFn(
          fd, std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(connectTimeoutMs_)));
      auto ack = reader.next();
      CHISIM_CHECK(ack.has_value() && ack->kind == wire::FrameKind::kHelloAck,
                   "root refused the hello (connection closed)");
      std::lock_guard<std::mutex> lock(writeMutex_);
      CHISIM_CHECK(!shuttingDown_.load(), "worker link shutting down");
      if (fd_ >= 0) {
        ::close(fd_);
      }
      fd_ = std::exchange(fd, -1);
      epoch_ = static_cast<std::uint64_t>(ack->tag);
      return std::move(ack->payload);
    } catch (const std::exception& error) {
      lastError = error.what();
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
  throw std::runtime_error("worker rank " + std::to_string(rank_) +
                           " exhausted " +
                           std::to_string(connectRetries_ + 1) +
                           " connect attempts to " + address_ +
                           "; last error: " + lastError);
}

std::vector<std::byte> StreamWorkerLink::handshake() {
  CHISIM_REQUIRE(!pump_.joinable(), "handshake already performed");
  std::vector<std::byte> payload = dialAndHello();
  pump_ = std::thread([this] { pumpLoop(); });
  return payload;
}

void StreamWorkerLink::pumpLoop() {
  while (true) {
    try {
      wire::FrameReader reader(wire::fdReadFn(fd_));
      while (auto frame = reader.next()) {
        if (frame->kind == wire::FrameKind::kData) {
          queue_.post(Message{0, frame->tag, std::move(frame->payload)});
        } else if (frame->kind == wire::FrameKind::kPing) {
          const wire::Frame pong{wire::FrameKind::kPong, frame->tag, {}};
          std::lock_guard<std::mutex> lock(writeMutex_);
          (void)wire::writeAllFd(fd_, wire::encodeFrame(pong));
        }
      }
    } catch (...) {
      // Torn or corrupt frame: this connection can no longer be trusted.
    }
    if (shuttingDown_.load()) {
      break;
    }
    // Connection lost while the worker is healthy: re-dial inside the
    // root's grace window with the last granted epoch. Commands lost
    // mid-drop are re-sent by the root's retry path; a reply torn mid-send
    // is regenerated when the command is re-executed (stage bodies are
    // pure).
    try {
      dialAndHello();
    } catch (...) {
      break;  // budget exhausted or the root gave up on us: exit
    }
  }
  closed_ = true;
  queue_.notifyAll();
}

Message StreamWorkerLink::recv() {
  Message out;
  const auto result = queue_.wait(out, 0, kAnyTag, std::nullopt,
                                  [this] { return closed_.load(); });
  CHISIM_CHECK(result == MessageQueue::WaitResult::kMessage,
               "root connection closed");
  return out;
}

void StreamWorkerLink::send(int tag, std::span<const std::byte> payload) {
  validatePayloadLength(static_cast<std::int64_t>(payload.size()));
  std::vector<std::byte> encoded = wire::encodeFrame(
      wire::Frame{wire::FrameKind::kData, tag, {payload.begin(), payload.end()}});
  if (fault::armed()) {
    FaultSite ctx;
    ctx.rank = rank_;
    ctx.payload = &encoded;
    fault::hit("sock.worker.send", ctx);  // kTruncate tears the frame
  }
  std::lock_guard<std::mutex> lock(writeMutex_);
  // A failed or torn write means this connection is dying; the pump
  // re-dials and the root's retry re-requests whatever was lost.
  (void)wire::writeAllFd(fd_, encoded);
}

}  // namespace chisimnet::runtime
