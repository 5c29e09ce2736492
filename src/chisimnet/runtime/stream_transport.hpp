#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/heartbeat.hpp"
#include "chisimnet/runtime/wire.hpp"

/// Socket transport for worker processes.
///
/// Rank 0 lives in this process and listens; the N-1 workers always dial
/// in and speak CSF1 frames (runtime/wire.hpp). One class serves both
/// address families:
///
///   - AF_UNIX: the listening socket lives in a fresh mkdtemp directory
///     with mode 0700 (no other user can dial in), removed at teardown.
///     Workers share the root's filesystem.
///   - TCP: TCP_NODELAY + keepalive on every connection. Without an
///     explicit listen address the root binds 127.0.0.1 on an ephemeral
///     port and spawns local workers; with one (`--tcp-listen`) the
///     workers are external (`chisim worker --connect host:port`).
///
/// Local workers are fork/exec'd children of this process
/// (/proc/self/exe --worker); their connect address, rank and the slot's
/// current epoch travel in the bootstrap environment.
///
/// ## Handshake
///
/// The WORKER sends the hello: kind=hello, tag=rank, payload=[claimed
/// epoch u64] — the slot's epoch it was launched with (0 on first boot),
/// or the last granted epoch on a re-dial. The root refuses (closes the
/// socket) a rank out of range, a slot that is live or still being
/// classified, and a claimed epoch that is not the slot's; otherwise it
/// answers kind=hello-ack, tag=granted epoch, payload=application hello
/// bytes (serialized stage parameters), so the worker holds its
/// parameters before any command can arrive.
///
/// ## Liveness: one slot machine
///
///   connecting -> live -> disconnected -> reconnecting -+-> live
///                                                       +-> dead
///
/// Death signals are socket EOF / a torn frame in the pump, and ping
/// silence (heartbeatMissLimit * heartbeatMs without a frame), which
/// poisons the connection — and SIGKILLs a local child, so a hung child
/// is respawned. A worker that re-dials within reconnectGraceMs resumes
/// its rank (a reconnect); one that stays away past it makes the rank
/// permanently dead, and recvFor() on it fails fast so the driver
/// converges to markLost + reassignment.
///
/// Respawn is a launcher policy for local children: when waitpid reaps
/// one, a replacement that dials in with the slot's epoch is exec'd while
/// the rank has maxRespawns budget left (its admission counts as a
/// respawn); with the budget spent the rank is dead at once.
///
/// Sends to a slot without a live connection are dropped: the driver's
/// per-command timeout/retry re-sends after backoff, which the
/// epoch-stamped reply protocol already tolerates.
///
/// ## Fault sites
///
///   sock.send         root, per frame     kDelay stalls, kTruncate tears
///                                         it, kKillRank SIGKILLs the
///                                         local child (frame dropped)
///   sock.drop         root, per frame     kKillRank severs the connection
///   sock.accept       root, per hello     kThrow refuses the dial
///   sock.connect      worker, per dial    kThrow fails the attempt
///   sock.worker.send  worker, per frame   kTruncate tears it

namespace chisimnet::runtime {

/// Environment variables that carry the worker bootstrap across exec.
inline constexpr const char* kWorkerConnectEnv = "CHISIM_WORKER_CONNECT";
inline constexpr const char* kWorkerRankEnv = "CHISIM_WORKER_RANK";
inline constexpr const char* kWorkerRankCountEnv = "CHISIM_WORKER_RANKS";
inline constexpr const char* kWorkerEpochEnv = "CHISIM_WORKER_EPOCH";
inline constexpr const char* kWorkerConnectTimeoutEnv =
    "CHISIM_WORKER_CONNECT_TIMEOUT_MS";
inline constexpr const char* kWorkerConnectRetriesEnv =
    "CHISIM_WORKER_CONNECT_RETRIES";
inline constexpr const char* kWorkerFaultPlanEnv = "CHISIM_FAULT_PLAN";

/// Splits "host:port" (the last ':' separates the port, so bracketless
/// IPv6 is not supported). The port must be all digits in 1..65535.
/// Throws std::invalid_argument on malformed input.
std::pair<std::string, std::uint16_t> parseHostPort(const std::string& spec);

/// Dials `address` — "unix:PATH" or "host:port" — once, with a poll()
/// timeout on TCP. Returns the connected fd (CLOEXEC; TCP options set).
/// Throws on failure or timeout. Fires "sock.connect" (rank = `rank`).
int dialOnce(const std::string& address, std::chrono::milliseconds timeout,
             int rank);

struct StreamTransportOptions {
  /// Total ranks including the local root (rank 0).
  int rankCount = 0;

  /// Address family: TCP when true, an AF_UNIX socket otherwise.
  bool tcp = false;

  /// TCP only: "host:port" to listen on for external workers, which are
  /// launched out of band; nothing is spawned. Port 0 binds an ephemeral
  /// port. Empty: bind 127.0.0.1 on an ephemeral port and spawn one local
  /// worker per rank (AF_UNIX always spawns).
  std::string listen;

  /// Monitor cadence: ping period and silence-detection granularity.
  std::uint64_t heartbeatMs = 250;

  /// A connection silent for heartbeatMissLimit * heartbeatMs is presumed
  /// half-open (or hung) and poisoned.
  int heartbeatMissLimit = 8;

  /// Per-attempt connect/handshake timeout (propagated to local workers).
  std::uint64_t connectTimeoutMs = 5000;

  /// Additional dial attempts after the first (propagated to local
  /// workers).
  int connectRetries = 5;

  /// How long a disconnected worker may take to re-dial before the rank
  /// is declared permanently dead. 0 = the first disconnect is permanent.
  std::uint64_t reconnectGraceMs = 3000;

  /// Times a local child may be replaced after it dies. 0 disables
  /// respawn (a dead child makes its rank permanently dead).
  int maxRespawns = 1;

  /// Application handshake payload carried in every hello-ack (e.g.
  /// serialized stage parameters), including reconnects and respawns.
  std::vector<std::byte> helloPayload;
};

/// Root side of the socket transport (rank 0 is the calling process).
class StreamTransport final : public Transport {
 public:
  /// Binds, listens, and launches the local workers. Does NOT wait for
  /// them to connect — call waitForWorkers() before first use.
  explicit StreamTransport(StreamTransportOptions options);
  ~StreamTransport() override;

  /// The address workers dial: "unix:PATH" or "host:port".
  const std::string& address() const noexcept { return address_; }

  /// Blocks until every worker slot has completed its first handshake;
  /// false on timeout or once any rank is permanently dead.
  bool waitForWorkers(std::chrono::milliseconds timeout);

  int size() const noexcept override { return options_.rankCount; }
  void send(int self, int dest, int tag,
            std::span<const std::byte> payload) override;
  Message recv(int self, int source, int tag) override;
  std::optional<Message> recvFor(int self, std::chrono::milliseconds timeout,
                                 int source, int tag) override;
  bool tryRecv(int self, Message& out, int source, int tag) override;
  std::size_t pendingMessages(int self) const override;
  void barrier(int self) override;
  void abort() noexcept override;
  void quiesce() noexcept override;
  void forsakeRank(int rank) override;

  /// True once `rank` is dead for good (grace expired, respawn budget
  /// spent, or forsaken) — the driver should mark it lost.
  bool isPermanentlyDead(int rank) const;

  /// Worker lifecycle events since the last drain (for the driver's fault
  /// log / SynthesisReport counters).
  struct WorkerEvent {
    enum class Kind { kRespawn, kReconnect, kPermanentDeath };
    Kind kind = Kind::kReconnect;
    int rank = -1;
    std::string detail;
  };
  std::vector<WorkerEvent> drainEvents();

 private:
  enum class SlotState { kConnecting, kLive, kDisconnected, kReconnecting,
                         kDead };

  struct Slot {
    std::mutex writeMutex;  // serializes frame writes; guards fd for I/O
    int fd = -1;            // -1 when no live connection
    pid_t pid = -1;         // local child; -1 for external workers
    std::uint64_t epoch = 0;  // last granted epoch; bumped per hello
    SlotState state = SlotState::kConnecting;
    int respawns = 0;
    bool respawned = false;  // a replacement child is booting
    std::chrono::steady_clock::time_point deadline{};  // while reconnecting
    std::string lastDeathDetail;
  };

  Slot& slot(int rank) const;

  /// Stops every thread, reaps local children, closes every descriptor,
  /// and removes the socket directory. Safe on a partly built transport.
  void teardown() noexcept;

  /// fork/exec one local worker for `rank`, dialing in with the slot's
  /// current epoch. Returns the child's pid.
  pid_t spawnWorker(int rank, std::uint64_t epoch);

  /// Accept-loop thread body: runs each dialer's hello inline with a
  /// deadline. A bad, oversize, stale-epoch, or double-connect hello just
  /// closes that socket — the transport is never poisoned by a dialer.
  void acceptLoop();

  /// Validates one parsed hello and, if granted, installs the connection
  /// (ack written, pump started). False when the dial was refused.
  bool admitWorker(int fd, int rank, std::uint64_t claimedEpoch);

  /// Reader thread for one connection; posts data frames into the root
  /// queue and flags death on EOF / torn frames.
  void pumpLoop(int rank, std::uint64_t epoch, int fd);

  /// Poisons the connection so the pump wakes with EOF; does not close.
  void shutdownSlotFd(Slot& s) noexcept;

  /// A local child was reaped: respawn within budget, else the rank is
  /// dead. Caller holds stateMutex_.
  void onChildExit(int rank, std::chrono::steady_clock::time_point now);

  /// Marks the rank permanently dead and kills its local child. Caller
  /// holds stateMutex_.
  void killSlot(int rank, const std::string& detail, bool report);

  void monitorTick();
  void flagDeath(int rank, std::uint64_t epoch, const std::string& detail);
  void noteEvent(WorkerEvent::Kind kind, int rank, std::string detail);

  StreamTransportOptions options_;
  int listenFd_ = -1;
  int wakeFds_[2] = {-1, -1};  // self-pipe that stops the accept loop
  std::string socketDir_;      // AF_UNIX: private 0700 directory
  std::string address_;
  std::vector<std::unique_ptr<Slot>> slots_;
  MessageQueue rootQueue_;
  HeartbeatBook beats_;

  mutable std::mutex stateMutex_;  // slot lifecycle fields + events
  std::condition_variable admitted_;
  std::vector<WorkerEvent> events_;
  std::vector<std::thread> retiredPumps_;
  std::vector<std::thread> pumps_;  // one live pump per slot

  std::atomic<bool> aborted_{false};
  std::atomic<bool> quiesced_{false};
  std::atomic<bool> shuttingDown_{false};
  std::thread acceptThread_;
  std::unique_ptr<PeriodicTask> monitor_;
};

/// Worker-process end: dials the root, re-dials on connection loss
/// (replaying the hello with the last granted epoch), and presents the
/// recv/send surface the synthesis worker loop needs.
class StreamWorkerLink {
 public:
  /// True when this process was launched as a transport worker
  /// (CHISIM_WORKER_CONNECT present).
  static bool isWorkerProcess();

  /// Bootstraps from the environment. Throws std::invalid_argument when a
  /// variable is missing or malformed (e.g. a rank of "2x").
  StreamWorkerLink();
  ~StreamWorkerLink();

  StreamWorkerLink(const StreamWorkerLink&) = delete;
  StreamWorkerLink& operator=(const StreamWorkerLink&) = delete;

  int rank() const noexcept { return rank_; }
  int size() const noexcept { return rankCount_; }

  /// Dials (with per-attempt timeout + exponential backoff), sends the
  /// hello, reads the ack, and starts the background pump, which answers
  /// pings, queues data frames, and re-dials transparently. Returns the
  /// application hello payload. Call exactly once, before recv/send.
  std::vector<std::byte> handshake();

  /// Next data message from the root. Blocks across reconnects; throws
  /// only when the link is permanently down (re-dial budget exhausted or
  /// the root refused re-admission) — the worker's cue to exit.
  Message recv();

  /// Sends a data frame to the root. A failed write (connection mid-drop)
  /// is swallowed: the root's per-command retry re-requests after the
  /// reconnect, and command execution is idempotent.
  void send(int tag, std::span<const std::byte> payload);

 private:
  /// dial + hello + ack as one retried unit (a refused handshake counts
  /// as a failed attempt). Installs the new fd; returns the ack payload.
  /// Throws when the budget is exhausted.
  std::vector<std::byte> dialAndHello();

  void pumpLoop();

  std::string address_;
  int rank_ = -1;
  int rankCount_ = 0;
  std::uint64_t connectTimeoutMs_ = 5000;
  int connectRetries_ = 5;
  std::uint64_t epoch_ = 0;
  int fd_ = -1;
  std::mutex writeMutex_;  // serializes frame writes; guards fd_ swap
  MessageQueue queue_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> shuttingDown_{false};
  std::thread pump_;
};

}  // namespace chisimnet::runtime
