#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "chisimnet/net/checkpoint.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/mp_protocol.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/runtime/heartbeat.hpp"
#include "chisimnet/runtime/stream_transport.hpp"
#include "chisimnet/runtime/wire.hpp"
#include "support.hpp"

/// Socket transport suite: the wire frame decoder against adversarial byte
/// streams, the liveness primitives, the mp protocol and run-shipping
/// codecs, strict address and bootstrap parsing, end-to-end synthesis over
/// real worker processes on both address families — clean runs, command
/// retries, SIGKILLed workers (respawn, budget exhaustion, raw external
/// kills), scripted connection drops (reconnect), lost ranks (reassignment),
/// spill-run shipping and kill-mid-batch resumes, all bit-identical to
/// brute force or shared memory — and adversarial handshakes thrown at the
/// root's accept loop from raw client sockets.

namespace chisimnet::net {
namespace {

using runtime::FaultAction;
using runtime::FaultPlan;
using runtime::FaultSpec;
using runtime::StreamTransport;
using runtime::StreamTransportOptions;
using runtime::wire::Frame;
using runtime::wire::FrameKind;
using runtime::wire::FrameReader;
using runtime::wire::ReadFn;
using table::Event;
using testsupport::expectEqualAdjacency;
using testsupport::FuzzCase;
using testsupport::hasFault;
using testsupport::makeCase;
using testsupport::ScratchDir;
using testsupport::writePlacePartitionedFiles;

std::vector<std::byte> fileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<std::byte> out(chars.size());
  std::memcpy(out.data(), chars.data(), chars.size());
  return out;
}

/// Sets (or unsets, for nullptr) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// A socket-transport synthesis config with timings tuned for tests: fast
/// monitor ticks so respawn and reconnect latency is small, a short
/// reconnect grace so permanent-death cases resolve quickly, and a command
/// timeout comfortably above one respawn or re-dial so the retry lands on
/// the fresh connection.
SynthesisConfig socketConfig(const FuzzCase& fuzz, MpTransport transport) {
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = transport;
  config.heartbeatMs = 100;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandTimeoutMs = 600;
  config.commandMaxAttempts = 6;
  config.commandBackoffMs = 1;
  config.connectTimeoutMs = 2000;
  config.connectRetries = 3;
  config.reconnectGraceMs = 1500;
  return config;
}

// ---- wire frame decoding over adversarial streams ----

/// ReadFn over an in-memory byte stream that returns at most `chunk`
/// bytes per call — the short reads a stream socket is allowed to give.
ReadFn chunkedReadFn(std::vector<std::byte> data, std::size_t chunk) {
  auto pos = std::make_shared<std::size_t>(0);
  auto bytes = std::make_shared<std::vector<std::byte>>(std::move(data));
  return [pos, bytes, chunk](std::byte* out, std::size_t capacity) {
    if (*pos >= bytes->size()) {
      return std::size_t{0};
    }
    const std::size_t n =
        std::min({chunk, capacity, bytes->size() - *pos});
    std::memcpy(out, bytes->data() + *pos, n);
    *pos += n;
    return n;
  };
}

template <typename T>
void appendScalar(std::vector<std::byte>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

/// Hand-forged header for invalid-input cases encodeFrame cannot produce.
std::vector<std::byte> forgeHeader(std::uint32_t magic, std::uint32_t kind,
                                   std::int32_t tag, std::uint64_t length) {
  std::vector<std::byte> out;
  appendScalar(out, magic);
  appendScalar(out, kind);
  appendScalar(out, tag);
  appendScalar(out, length);
  return out;
}

TEST(WireFrameTest, FramesSurviveArbitrarySplitReads) {
  // Zero-length, one-byte, and a payload far larger than any read chunk,
  // back to back in one stream.
  Frame empty{FrameKind::kData, 7, {}};
  Frame tiny{FrameKind::kPong, -3, {std::byte{0xAB}}};
  Frame big{FrameKind::kData, 42, {}};
  big.payload.resize(1 << 20);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<std::byte>(i * 31 + 5);
  }
  std::vector<std::byte> stream;
  for (const Frame* frame : {&empty, &tiny, &big}) {
    const auto encoded = runtime::wire::encodeFrame(*frame);
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }

  // Chunk sizes that split the header, the payload, and their boundary.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{19}, std::size_t{4096}}) {
    FrameReader reader(chunkedReadFn(stream, chunk));
    for (const Frame* want : {&empty, &tiny, &big}) {
      const auto got = reader.next();
      ASSERT_TRUE(got.has_value()) << "chunk " << chunk;
      EXPECT_EQ(got->kind, want->kind) << "chunk " << chunk;
      EXPECT_EQ(got->tag, want->tag) << "chunk " << chunk;
      EXPECT_EQ(got->payload, want->payload) << "chunk " << chunk;
    }
    // Clean EOF exactly at a frame boundary: nullopt, not a throw.
    EXPECT_FALSE(reader.next().has_value()) << "chunk " << chunk;
  }
}

TEST(WireFrameTest, EofTearingAHeaderThrows) {
  const auto encoded =
      runtime::wire::encodeFrame(Frame{FrameKind::kPing, 0, {}});
  for (const std::size_t keep : {std::size_t{1}, std::size_t{8},
                                 runtime::wire::kFrameHeaderBytes - 1}) {
    std::vector<std::byte> torn(encoded.begin(),
                                encoded.begin() + static_cast<long>(keep));
    FrameReader reader(chunkedReadFn(torn, 3));
    EXPECT_THROW(reader.next(), std::exception) << "kept " << keep;
  }
}

TEST(WireFrameTest, EofTearingAPayloadThrows) {
  Frame frame{FrameKind::kData, 5, std::vector<std::byte>(64, std::byte{9})};
  auto encoded = runtime::wire::encodeFrame(frame);
  encoded.resize(encoded.size() - 10);  // header intact, payload short
  FrameReader reader(chunkedReadFn(encoded, 7));
  EXPECT_THROW(reader.next(), std::exception);
}

TEST(WireFrameTest, BadMagicAndUnknownKindAreRejected) {
  {
    FrameReader reader(chunkedReadFn(
        forgeHeader(0xDEADBEEFu, 1, 0, 0), 4));
    EXPECT_THROW(reader.next(), std::exception);
  }
  {
    FrameReader reader(chunkedReadFn(
        forgeHeader(runtime::wire::kFrameMagic, 99, 0, 0), 4));
    EXPECT_THROW(reader.next(), std::exception);
  }
}

TEST(WireFrameTest, OversizedLengthIsRejectedBeforeAllocation) {
  // A hostile length header one past the cap must throw from the header
  // check itself; were it used to size a buffer first, this would be a
  // 1 GiB+ allocation.
  const auto header = forgeHeader(runtime::wire::kFrameMagic, 1, 0,
                                  runtime::kMaxPayloadBytes + 1);
  FrameReader reader(chunkedReadFn(header, 5));
  try {
    reader.next();
    FAIL() << "oversized length must not be accepted";
  } catch (const std::exception& error) {
    EXPECT_NE(std::string(error.what()).find("payload"), std::string::npos);
  }
}

// ---- liveness primitives ----

TEST(HeartbeatTest, BookTracksSilencePerPeer) {
  runtime::HeartbeatBook book(3);
  EXPECT_EQ(book.peerCount(), 3);
  // Freshly constructed peers are not instantly overdue.
  EXPECT_FALSE(book.overdue(0, std::chrono::milliseconds(250)));
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_TRUE(book.overdue(1, std::chrono::milliseconds(5)));
  book.beat(1);
  EXPECT_FALSE(book.overdue(1, std::chrono::milliseconds(5)));
  // Beating one peer leaves the others' clocks alone.
  EXPECT_TRUE(book.overdue(2, std::chrono::milliseconds(5)));
  EXPECT_LT(book.age(1), book.age(2));
}

TEST(HeartbeatTest, PeriodicTaskTicksUntilStopped) {
  std::atomic<int> ticks{0};
  {
    runtime::PeriodicTask task(std::chrono::milliseconds(10),
                               [&ticks] { ++ticks; });
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    task.stop();
    const int atStop = ticks.load();
    EXPECT_GE(atStop, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(ticks.load(), atStop);  // no ticks after stop
    task.stop();                      // idempotent
  }
  // Destructor after stop must not hang or double-join.
}

// ---- mp protocol and run-shipping codecs ----

TEST(MpProtocolTest, StageParamsRoundTripThroughHelloPayload) {
  mp::StageParams params;
  params.windowStart = 17;
  params.windowEnd = 193;
  params.spillThresholdBytes = 1u << 20;
  params.spillDir = "spill-dir";
  params.splitRows = 16;
  params.shipRuns = true;
  const auto bytes = mp::encodeStageParams(params);
  const mp::StageParams back = mp::decodeStageParams(bytes);
  EXPECT_EQ(back.windowStart, params.windowStart);
  EXPECT_EQ(back.windowEnd, params.windowEnd);
  EXPECT_EQ(back.spillThresholdBytes, params.spillThresholdBytes);
  EXPECT_EQ(back.spillDir, params.spillDir);
  EXPECT_EQ(back.splitRows, params.splitRows);
  EXPECT_EQ(back.shipRuns, params.shipRuns);

  // Truncated and oversized payloads are both malformed.
  std::vector<std::byte> shortBytes(bytes.begin(), bytes.end() - 1);
  EXPECT_THROW(mp::decodeStageParams(shortBytes), std::exception);
  std::vector<std::byte> longBytes(bytes);
  longBytes.push_back(std::byte{0});
  EXPECT_THROW(mp::decodeStageParams(longBytes), std::exception);
}

TEST(TcpProtocolTest, ShipChunkRoundTripsAndOverrunIsRejected) {
  std::vector<std::byte> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 13 + 7);
  }
  const auto encoded = mp::encodeShipChunk("run_000042.spill", 64, 4096, data);
  const mp::ShipChunkView view = mp::decodeShipChunk(encoded);
  EXPECT_EQ(view.name, "run_000042.spill");
  EXPECT_EQ(view.offset, 64u);
  EXPECT_EQ(view.total, 4096u);
  ASSERT_EQ(view.data.size(), data.size());
  EXPECT_TRUE(std::equal(view.data.begin(), view.data.end(), data.begin()));

  // A chunk whose [offset, offset+size) overruns its own declared total is
  // malformed and must be rejected before any file write.
  const auto overrun = mp::encodeShipChunk("run.spill", 4000, 4096, data);
  EXPECT_THROW(mp::decodeShipChunk(overrun), std::exception);

  // Zero-byte files still ship as exactly one (empty) chunk.
  const auto empty = mp::encodeShipChunk("empty.spill", 0, 0, {});
  const mp::ShipChunkView emptyView = mp::decodeShipChunk(empty);
  EXPECT_EQ(emptyView.total, 0u);
  EXPECT_TRUE(emptyView.data.empty());
}

TEST(TcpProtocolTest, ShippedRunRefRoundTripsAsItsOwnMode) {
  mp::RunRef ref;
  ref.run.file = "run_000007.spill";  // bare name: bytes travelled on kShipTag
  ref.shipped = true;
  ref.run.bytes = 123456;
  ref.run.triplets = 789;
  ref.run.firstKey = 5;
  ref.run.lastKey = 9;
  util::ByteWriter writer;
  mp::putRunRef(writer, ref);
  const std::vector<std::byte> buffer = writer.take();
  util::ByteReader reader(buffer, "run ref");
  const mp::RunRef back = mp::takeRunRef(reader);
  EXPECT_EQ(reader.offset(), buffer.size());
  EXPECT_TRUE(back.shipped);
  EXPECT_TRUE(back.isFile());
  EXPECT_EQ(back.run.file, ref.run.file);
  EXPECT_EQ(back.run.bytes, ref.run.bytes);
  EXPECT_EQ(back.run.triplets, ref.run.triplets);
  EXPECT_EQ(back.run.firstKey, ref.run.firstKey);
  EXPECT_EQ(back.run.lastKey, ref.run.lastKey);

  // A plain file ref must come back unshipped — the two file modes must
  // not alias.
  mp::RunRef plain;
  plain.run.file = "/spill/run_000001.spill";
  plain.run.bytes = 42;
  mp::putRunRef(writer, plain);
  const std::vector<std::byte> plainBuffer = writer.take();
  util::ByteReader plainReader(plainBuffer, "run ref");
  EXPECT_FALSE(mp::takeRunRef(plainReader).shipped);
}

TEST(TcpProtocolTest, StageParamsCarryTheShipRunsFlag) {
  mp::StageParams params;
  params.windowStart = 3;
  params.windowEnd = 99;
  params.shipRuns = true;
  const mp::StageParams back = mp::decodeStageParams(mp::encodeStageParams(params));
  EXPECT_TRUE(back.shipRuns);
  params.shipRuns = false;
  EXPECT_FALSE(mp::decodeStageParams(mp::encodeStageParams(params)).shipRuns);
}

// ---- strict address and bootstrap parsing ----

TEST(TcpAddressTest, HostPortSpecsParseAndMalformedOnesThrow) {
  const auto [host, port] = runtime::parseHostPort("127.0.0.1:8080");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  const auto [name, high] = runtime::parseHostPort("node17:65535");
  EXPECT_EQ(name, "node17");
  EXPECT_EQ(high, 65535);

  // Port 0 is rejected: an explicit listen address exists so external
  // workers can be told where to dial — an ephemeral port defeats that.
  // The port is the whole tail: no sign, no spaces, no trailing garbage.
  for (const char* bad : {"", "node17:0", "hostonly", ":99", "host:",
                          "host:notaport", "host:65536", "h:80x", "h: 80",
                          "h:+80", "h:-80", "h:80 ", "h:99999999999999999999"}) {
    EXPECT_THROW(runtime::parseHostPort(bad), std::invalid_argument) << bad;
  }
}

TEST(StreamBootstrapTest, GarbageEnvironmentIsRejected) {
  ScopedEnv connect(runtime::kWorkerConnectEnv, "127.0.0.1:9");
  ScopedEnv count(runtime::kWorkerRankCountEnv, "4");
  for (const char* rank : {"2x", " 2", "+2", "", "0", "4", "-1",
                           "99999999999"}) {
    ScopedEnv bad(runtime::kWorkerRankEnv, rank);
    EXPECT_THROW(runtime::StreamWorkerLink{}, std::invalid_argument)
        << "rank '" << rank << "'";
  }
  ScopedEnv rank(runtime::kWorkerRankEnv, "2");
  EXPECT_NO_THROW(runtime::StreamWorkerLink{});  // constructing never dials
  const std::pair<const char*, const char*> garbage[] = {
      {runtime::kWorkerEpochEnv, "1e3"},
      {runtime::kWorkerConnectRetriesEnv, "-1"},
      {runtime::kWorkerConnectTimeoutEnv, "0"},
      {runtime::kWorkerRankCountEnv, "4 "},
      {runtime::kWorkerConnectEnv, "127.0.0.1:80x"},
      {runtime::kWorkerConnectEnv, "unix:"},
      {runtime::kWorkerConnectEnv, nullptr},
  };
  for (const auto& [name, value] : garbage) {
    ScopedEnv bad(name, value);
    EXPECT_THROW(runtime::StreamWorkerLink{}, std::invalid_argument)
        << name << "=" << (value != nullptr ? value : "(unset)");
  }
}

TEST(StreamTransportTest, UnixSocketLivesInAPrivateDirectoryRemovedAfter) {
  std::filesystem::path dir;
  {
    StreamTransportOptions options;
    options.rankCount = 1;  // the root alone: nothing to spawn
    StreamTransport transport(options);
    ASSERT_TRUE(transport.address().starts_with("unix:"));
    const std::filesystem::path socket = transport.address().substr(5);
    dir = socket.parent_path();
    EXPECT_TRUE(std::filesystem::is_socket(socket));
    EXPECT_EQ(std::filesystem::status(dir).permissions(),
              std::filesystem::perms::owner_all);
  }
  EXPECT_FALSE(std::filesystem::exists(dir));

  // A socket path that cannot fit sun_path is a clear error, not a
  // truncated bind, and leaves no directory behind.
  ScratchDir deep(std::string(100, 'd'));
  ScopedEnv tmpdir("TMPDIR", deep.path().c_str());
  StreamTransportOptions options;
  options.rankCount = 1;
  try {
    StreamTransport transport(options);
    FAIL() << "a socket path past sun_path must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("sun_path"), std::string::npos);
  }
  EXPECT_TRUE(std::filesystem::is_empty(deep.path()));
}

// ---- config validation ----

TEST(ProcessTransportConfigTest, InvalidCombinationsAreRejected) {
  SynthesisConfig config;
  config.transport = MpTransport::kProcess;  // needs the mp backend
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.heartbeatMs = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.maxRespawns = -1;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  // Degrade over processes without a command timeout would hang forever
  // on a dead worker; the config must say so up front.
  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandTimeoutMs = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
}

TEST(TcpConfigTest, InvalidCombinationsAreRejected) {
  SynthesisConfig config;
  config.transport = MpTransport::kTcp;  // needs the mp backend
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kTcp;
  config.connectTimeoutMs = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.connectRetries = -1;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  // --tcp-listen is meaningless off the tcp transport, and an ephemeral
  // or malformed listen port leaves external workers nowhere to dial.
  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.tcpListen = "127.0.0.1:9999";
  config.heartbeatMs = 100;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
  config.transport = MpTransport::kTcp;
  for (const char* listen : {"127.0.0.1:0", "127.0.0.1:99x"}) {
    config.tcpListen = listen;
    EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument) << listen;
  }

  // Degrade over TCP without a command timeout would hang forever on a
  // dead worker; the config must say so up front.
  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kTcp;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandTimeoutMs = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
}

// ---- end-to-end synthesis, run on both address families ----

void expectCleanRun(MpTransport transport, std::uint64_t seed) {
  const FuzzCase fuzz = makeCase(seed);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_sock_clean");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  SynthesisConfig config = socketConfig(fuzz, transport);
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "clean");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_EQ(report.workersRespawned, 0u);
  EXPECT_EQ(report.workersReconnected, 0u);
  EXPECT_GT(report.bytesScattered, 0u);
}

TEST(ProcessTransportSynthesisTest, CleanRunMatchesBruteForce) {
  expectCleanRun(MpTransport::kProcess, 91);
}

TEST(TcpSynthesisTest, CleanRunMatchesBruteForce) {
  expectCleanRun(MpTransport::kTcp, 181);
}

TEST(ProcessTransportSynthesisTest, WorkerCommandThrowIsRetried) {
  const FuzzCase fuzz = makeCase(92);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_retry");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 3);

  // The plan ships to the workers through the bootstrap environment; the
  // first command a worker processes throws, it answers status=failed,
  // and the root retries against the same (still live) process.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kThrow, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  NetworkSynthesizer synthesizer(socketConfig(fuzz, MpTransport::kProcess));
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "retry after worker throw");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_GE(report.commandRetries, 1u);
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kCommandRetry));
}

/// Acceptance (respawn path): the worker behind the very first root->worker
/// frame is SIGKILLed before the frame reaches it. The monitor reaps it,
/// the launcher execs a replacement that dials in with the slot's epoch,
/// the command retry lands on the fresh process, and the output is
/// bit-identical with no rank lost.
void expectSigkilledWorkerRespawned(MpTransport transport,
                                    std::uint64_t seed) {
  const FuzzCase fuzz = makeCase(seed);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_sock_respawn");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Root-side site: the hit counter lives in this process, so the kill
  // fires exactly once and the respawned worker is left alone.
  FaultPlan plan;
  plan.at("sock.send",
          FaultSpec{.action = FaultAction::kKillRank, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = socketConfig(fuzz, transport);
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "respawn path");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_GE(report.workersRespawned, 1u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kWorkerRespawn));
  EXPECT_FALSE(hasFault(report, FaultEvent::Kind::kRankLost));
}

TEST(ProcessTransportSynthesisTest, SigkilledWorkerIsRespawnedBitIdentical) {
  expectSigkilledWorkerRespawned(MpTransport::kProcess, 93);
}

TEST(TcpSynthesisTest, SigkilledWorkerIsRespawnedBitIdentical) {
  expectSigkilledWorkerRespawned(MpTransport::kTcp, 185);
}

/// Acceptance (reassignment path): worker rank 2 SIGKILLs itself on every
/// command it receives. The fault plan is replayed into each respawn, so
/// the respawn budget drains and the rank goes permanently dead; the run
/// completes on the survivors with identical output.
TEST(ProcessTransportSynthesisTest, RespawnBudgetExhaustionReassignsWork) {
  const FuzzCase fuzz = makeCase(94);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_reassign");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kKillProcess, .rank = 2});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = socketConfig(fuzz, MpTransport::kProcess);
  config.workers = 4;
  config.maxRespawns = 1;
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "reassignment path");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 1);
  EXPECT_GE(report.workersRespawned, 1u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kRankLost));

  // The degraded synthesizer keeps producing identical output afterwards.
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "reassignment path, second run");
}

TEST(ProcessTransportSynthesisTest, MaxRespawnsZeroLosesTheRankOnFirstDeath) {
  const FuzzCase fuzz = makeCase(95);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_no_respawn");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 3);

  FaultPlan plan;
  plan.at("sock.send",
          FaultSpec{.action = FaultAction::kKillRank, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = socketConfig(fuzz, MpTransport::kProcess);
  config.maxRespawns = 0;
  NetworkSynthesizer synthesizer(config);
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "respawn disabled");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 1);
  EXPECT_EQ(report.workersRespawned, 0u);
}

/// Child pids of this process, read from /proc — the transport's workers
/// are our only children, so this is how an *external* killer (an OOM
/// killer, an operator) would find them.
std::vector<pid_t> childProcesses() {
  std::vector<pid_t> children;
  const pid_t self = ::getpid();
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() ||
        !std::isdigit(static_cast<unsigned char>(name[0]))) {
      continue;
    }
    std::ifstream stat(entry.path() / "stat");
    std::string content((std::istreambuf_iterator<char>(stat)),
                        std::istreambuf_iterator<char>());
    // Fields after the parenthesized comm: state, then ppid.
    const auto close = content.rfind(')');
    if (close == std::string::npos || close + 2 >= content.size()) {
      continue;
    }
    std::istringstream rest(content.substr(close + 2));
    char state = 0;
    pid_t ppid = -1;
    rest >> state >> ppid;
    if (ppid == self) {
      children.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return children;
}

/// Acceptance (raw external kill): SIGKILL a live worker from outside the
/// fault framework while mapAdjacency commands are in flight. Whichever
/// recovery path engages — respawn or loss reassignment — the surviving
/// output must be bit-identical.
TEST(ProcessTransportSynthesisTest, RawExternalSigkillMidRunSurvives) {
  const FuzzCase fuzz = makeCase(96);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_external_kill");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Stretch every worker command by 40 ms (shipped via the bootstrap env)
  // so the external SIGKILL reliably lands while work is in flight.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kDelay, .delayMs = 40});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = socketConfig(fuzz, MpTransport::kProcess);
  config.filesPerBatch = 2;

  std::atomic<bool> done{false};
  std::atomic<bool> killed{false};
  std::thread killer([&done, &killed] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      const auto children = childProcesses();
      if (!children.empty()) {
        // Give the run a moment to get commands in flight, then kill.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        if (!done.load() && ::kill(children.front(), SIGKILL) == 0) {
          killed.store(true);
        }
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  done.store(true);
  killer.join();

  expectEqualAdjacency(adjacency, reference, "raw external SIGKILL");
  const SynthesisReport& report = synthesizer.report();
  ASSERT_TRUE(killed.load()) << "the killer thread never found a worker";
  EXPECT_GE(report.workersRespawned + static_cast<std::uint64_t>(
                                          report.ranksLost),
            1u)
      << "the kill must show up as a respawn or a lost rank";
}

/// Kill-mid-batch checkpoint/resume: the driver dies right after the
/// second batch's checkpoint, and the resumed run decodes the remaining
/// batch from its log files — with bit-identical output.
TEST(ProcessTransportSynthesisTest, KillMidBatchResumeIsBitIdentical) {
  const FuzzCase fuzz = makeCase(97);
  ScratchDir scratch("chisimnet_proc_kill_resume");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);

  for (const bool processTransport : {false, true}) {
    const std::string label =
        processTransport ? "mp-process" : "mp-inproc";
    ScratchDir checkpoints("chisimnet_proc_kill_resume_ckpt_" + label);

    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;
    config.backend = SynthesisBackend::kMessagePassing;
    config.filesPerBatch = 2;  // 3 batches over 6 files
    if (processTransport) {
      config.transport = MpTransport::kProcess;
      config.heartbeatMs = 100;
    }

    // Reference: one uninterrupted run, no checkpointing involved.
    NetworkSynthesizer uninterrupted(config);
    const auto reference = uninterrupted.synthesizeAdjacency(files);

    config.checkpointDir = checkpoints.path();
    {
      // Die right after the second batch's checkpoint hits disk.
      FaultPlan plan;
      plan.at("driver.batch",
              FaultSpec{.action = FaultAction::kThrow, .hit = 2});
      runtime::fault::ScopedFaultPlan scoped(plan);
      NetworkSynthesizer interrupted(config);
      EXPECT_THROW(interrupted.synthesizeAdjacency(files),
                   runtime::FaultInjected)
          << label;
    }
    const auto manifest = loadCheckpointManifest(checkpoints.path());
    ASSERT_TRUE(manifest.has_value()) << label;
    EXPECT_EQ(manifest->filesConsumed, 4u) << label;

    config.resume = true;
    NetworkSynthesizer resumed(config);
    const auto adjacency = resumed.synthesizeAdjacency(files);
    EXPECT_EQ(adjacency.toTriplets(), reference.toTriplets()) << label;
    const SynthesisReport& report = resumed.report();
    EXPECT_TRUE(report.resumed) << label;
    EXPECT_EQ(report.batches, 3u) << label;
    EXPECT_EQ(report.filesSkippedByResume, 4u) << label;
  }
}

/// A resume with a different worker count (a perf knob outside the config
/// hash) must accept the checkpoint a run wrote before dying mid-way and
/// finish it bit-identically.
TEST(ProcessTransportSynthesisTest, SerialResumeAtAnotherWorkerCount) {
  const FuzzCase fuzz = makeCase(98);
  ScratchDir scratch("chisimnet_proc_serial_resume");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);
  ScratchDir checkpoints("chisimnet_proc_serial_resume_ckpt");

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.filesPerBatch = 2;

  NetworkSynthesizer uninterrupted(config);
  const auto reference = uninterrupted.synthesizeAdjacency(files);

  config.checkpointDir = checkpoints.path();
  {
    FaultPlan plan;
    plan.at("driver.batch",
            FaultSpec{.action = FaultAction::kThrow, .hit = 2});
    runtime::fault::ScopedFaultPlan scoped(plan);
    NetworkSynthesizer interrupted(config);
    EXPECT_THROW(interrupted.synthesizeAdjacency(files),
                 runtime::FaultInjected);
  }
  const auto manifest = loadCheckpointManifest(checkpoints.path());
  ASSERT_TRUE(manifest.has_value());

  config.resume = true;
  config.workers = 1;  // resume with a different worker count
  NetworkSynthesizer resumed(config);
  const auto adjacency = resumed.synthesizeAdjacency(files);
  EXPECT_EQ(adjacency.toTriplets(), reference.toTriplets());
}

/// Acceptance (reconnect path): the first root->worker data frame is
/// dropped on the floor along with its connection — a scripted partition,
/// not a process death. The still-live worker re-dials inside the grace
/// window, the command retry lands on the re-admitted connection, and the
/// output is bit-identical with no rank lost and no respawn.
TEST(TcpSynthesisTest, ScriptedConnectionDropReconnectsBitIdentical) {
  const FuzzCase fuzz = makeCase(182);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_tcp_drop");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Root-side site: the hit counter lives in this process, so exactly one
  // connection is dropped and the re-dialed worker is left alone.
  FaultPlan plan;
  plan.at("sock.drop",
          FaultSpec{.action = FaultAction::kKillRank, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = socketConfig(fuzz, MpTransport::kTcp);
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "reconnect path");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_EQ(report.workersRespawned, 0u);
  EXPECT_GE(report.workersReconnected, 1u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kWorkerReconnect));
  EXPECT_FALSE(hasFault(report, FaultEvent::Kind::kRankLost));
}

/// Acceptance (reassignment path): worker rank 2 SIGKILLs itself on its
/// first command. With respawn disabled the reaped child makes the rank
/// dead at once, and the run completes on the survivors with identical
/// output.
TEST(TcpSynthesisTest, DeadWorkerProcessIsLostAndItsWorkReassigned) {
  const FuzzCase fuzz = makeCase(183);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_tcp_reassign");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Worker-side site, shipped via the bootstrap environment; the rank
  // filter confines the crash to rank 2.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kKillProcess, .rank = 2});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = socketConfig(fuzz, MpTransport::kTcp);
  config.workers = 4;
  config.filesPerBatch = 2;
  config.maxRespawns = 0;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "reassignment path");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 1);
  EXPECT_EQ(report.workersRespawned, 0u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kRankLost));

  // The degraded synthesizer keeps producing identical output afterwards.
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "reassignment path, second run");
}

/// Spill mode: the streamed CADJ file must be byte-identical to the
/// shared-memory backend's, for one-shard and multi-shard merge plans.
/// Over TCP every worker spills into its own private local directory (no
/// shared filesystem assumed) and ships run bytes to the root on kShipTag;
/// over AF_UNIX the workers share the root's spill directory.
void expectSpillBitIdentical(MpTransport transport, std::uint64_t seed) {
  const FuzzCase fuzz = makeCase(seed);
  ScratchDir scratch("chisimnet_sock_spill");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  ScratchDir out("chisimnet_sock_spill_out");

  for (const std::uint32_t rows : {0u, 16u}) {
    const std::string label = "merge rows " + std::to_string(rows);
    SynthesisConfig sharedConfig;
    sharedConfig.windowStart = fuzz.windowStart;
    sharedConfig.windowEnd = fuzz.windowEnd;
    sharedConfig.workers = 3;
    sharedConfig.memoryBudgetBytes = 32 << 10;  // force real spills
    sharedConfig.mergeRowsPerShard = rows;
    sharedConfig.spillDir = (out.path() / ("shared_spill" +
                                           std::to_string(rows))).string();
    NetworkSynthesizer shared(sharedConfig);
    const auto sharedOut = out.path() / ("shared" + std::to_string(rows));
    const std::uint64_t sharedEdges = shared.synthesizeToFile(files, sharedOut);

    SynthesisConfig config = socketConfig(fuzz, transport);
    config.memoryBudgetBytes = 32 << 10;
    config.mergeRowsPerShard = rows;
    NetworkSynthesizer synthesizer(config);
    const auto mpOut = out.path() / ("mp" + std::to_string(rows));
    const std::uint64_t mpEdges = synthesizer.synthesizeToFile(files, mpOut);

    EXPECT_EQ(mpEdges, sharedEdges) << label;
    EXPECT_EQ(fileBytes(mpOut), fileBytes(sharedOut)) << label;
    const SynthesisReport& report = synthesizer.report();
    EXPECT_EQ(report.ranksLost, 0) << label;
    EXPECT_GT(report.spillRunsWritten, 0u) << label;
  }
}

TEST(TcpSynthesisTest, SpillModeShipsRunBytesBitIdentical) {
  expectSpillBitIdentical(MpTransport::kTcp, 184);
}

TEST(ProcessTransportSynthesisTest, SpillModeSharesRunFilesBitIdentical) {
  expectSpillBitIdentical(MpTransport::kProcess, 186);
}

/// Kill between two flushes: worker rank 2 SIGKILLs itself right after the
/// second flush of its adjacency command, leaving the command's one run
/// file as a multi-run .tmp husk. The respawn re-executes the same body
/// (same token) and rewrites that file — and, the plan being replayed into
/// it, dies at the same point; with the respawn budget spent the rank is
/// lost and its places go to the survivors under fresh tokens. The CADJ is
/// still the brute-force sum, the husk is on disk, and the next run over
/// the same spill directory sweeps it at startup and writes the same bytes.
/// Each place puts 25 of 60 persons together in hour 19, so its 300 pairs
/// alone pass the 4 KiB (256-row) floor of the flush threshold.
TEST(ProcessTransportSynthesisTest, KillBetweenFlushesLeavesAHuskTheNextRunSweeps) {
  util::Rng rng(97);
  FuzzCase fuzz;
  fuzz.windowEnd = 48;
  for (table::PlaceId place = 0; place < 24; ++place) {
    const auto first = static_cast<table::PersonId>(rng.uniformBelow(60));
    for (table::PersonId i = 0; i < 25; ++i) {
      const auto start = static_cast<table::Hour>(rng.uniformBelow(20));
      fuzz.events.append(table::Event{
          start, start + 20 + static_cast<table::Hour>(rng.uniformBelow(6)),
          (first + i) % 60, 0, place});
    }
  }
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_flush_kill");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 2);
  const auto husks = [&scratch] {
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(scratch.path() / "spill")) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with("sum.t") && name.ends_with(".spl.tmp")) {
        names.push_back(name);
      }
    }
    return names;
  };

  SynthesisConfig config = socketConfig(fuzz, MpTransport::kProcess);
  config.maxRespawns = 1;
  config.memoryBudgetBytes = 32 << 10;  // flush after every place
  config.spillDir = scratch.path() / "spill";
  {
    FaultPlan plan;
    plan.at("spill.flush", FaultSpec{.action = FaultAction::kKillProcess,
                                     .hit = 2,
                                     .rank = 2});
    runtime::fault::ScopedFaultPlan scoped(plan);
    NetworkSynthesizer synthesizer(config);
    const auto out = scratch.path() / "killed.cadj";
    EXPECT_EQ(synthesizer.synthesizeToFile(files, out), reference.edgeCount());
    EXPECT_EQ(sparse::loadTriplets(out), reference.toTriplets());
    const SynthesisReport& report = synthesizer.report();
    EXPECT_GE(report.workersRespawned, 1u);
    EXPECT_EQ(report.ranksLost, 1);
  }
  EXPECT_EQ(husks().size(), 1u);

  NetworkSynthesizer clean(config);
  const auto out = scratch.path() / "clean.cadj";
  clean.synthesizeToFile(files, out);
  EXPECT_TRUE(husks().empty());
  EXPECT_EQ(fileBytes(out), fileBytes(scratch.path() / "killed.cadj"));
}

/// Multi-pass shard merges on worker processes, under faults. A tight
/// budget over 40 one-file batches leaves each of two merge shards with
/// more than kMergeFanIn runs, so each owner merges in intermediate passes
/// before it writes its segment; shard 1 belongs to worker rank 1. Its
/// merge command is (a) thrown on inside the worker and retried with the
/// same body, which rewrites its own pass files, and (b) lost with its
/// worker (SIGKILL as the frame is sent) and replayed on the respawned
/// process. Both CADJ files must equal the shared backend's byte for byte.
TEST(ProcessTransportSynthesisTest, MultiPassShardMergeSurvivesRetryAndRespawn) {
  constexpr int kFiles = 40;
  FuzzCase fuzz;
  fuzz.windowStart = 0;
  fuzz.windowEnd = 48;
  util::Rng rng(977);
  for (int n = 0; n < 4000; ++n) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(48));
    fuzz.events.append(Event{
        start, start + 1 + static_cast<table::Hour>(rng.uniformBelow(6)),
        static_cast<table::PersonId>(rng.uniformBelow(160)), 0,
        static_cast<table::PlaceId>(rng.uniformBelow(kFiles))});
  }
  ScratchDir scratch("chisimnet_proc_multipass");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), kFiles);
  ScratchDir out("chisimnet_proc_multipass_out");
  const auto budgeted = [&](SynthesisConfig config) {
    config.memoryBudgetBytes = 8 << 10;
    config.mergeRowsPerShard = 80;  // persons 0-159: shards 0 and 1
    config.filesPerBatch = 1;
    return config;
  };

  SynthesisConfig sharedConfig;
  sharedConfig.windowStart = fuzz.windowStart;
  sharedConfig.windowEnd = fuzz.windowEnd;
  sharedConfig.workers = 3;
  sharedConfig.spillDir = (out.path() / "shared_spill").string();
  NetworkSynthesizer shared(budgeted(sharedConfig));
  const auto sharedOut = out.path() / "shared.cadj";
  shared.synthesizeToFile(files, sharedOut);
  // 80 runs over two shards, one pass each: both shards hold more than
  // kMergeFanIn runs (a shard at or under it would leave the other over
  // 2·kMergeFanIn - 1, which takes two passes).
  ASSERT_EQ(shared.report().spillRunsWritten, 80u);
  ASSERT_EQ(shared.report().spillCompactions, 2u);
  const std::vector<std::byte> want = fileBytes(sharedOut);

  struct Case {
    const char* label;
    const char* site;
    FaultSpec spec;
    FaultEvent::Kind recovery;
  };
  const Case cases[] = {
      // Rank 1's process sees one adjacency command per batch, then its
      // merge command.
      {"worker throw, retried", "mp.service.command",
       FaultSpec{.action = FaultAction::kThrow, .hit = kFiles + 1, .rank = 1},
       FaultEvent::Kind::kCommandRetry},
      // The root sends ranks 1 and 2 one adjacency frame per batch; the
      // next frame is rank 1's merge command.
      {"worker killed, respawned", "sock.send",
       FaultSpec{.action = FaultAction::kKillRank, .hit = 2 * kFiles + 1},
       FaultEvent::Kind::kWorkerRespawn},
  };
  for (const Case& fault : cases) {
    FaultPlan plan;
    plan.at(fault.site, fault.spec);
    runtime::fault::ScopedFaultPlan scoped(plan);
    NetworkSynthesizer synthesizer(
        budgeted(socketConfig(fuzz, MpTransport::kProcess)));
    const auto mpOut = out.path() / "mp.cadj";
    synthesizer.synthesizeToFile(files, mpOut);
    EXPECT_EQ(fileBytes(mpOut), want) << fault.label;
    const SynthesisReport& report = synthesizer.report();
    EXPECT_EQ(report.mergeSegmentsWritten, 2u) << fault.label;
    EXPECT_EQ(report.spillCompactions, 2u) << fault.label;
    EXPECT_EQ(report.ranksLost, 0) << fault.label;
    EXPECT_TRUE(hasFault(report, fault.recovery)) << fault.label;
  }
}

// ---- adversarial handshakes against the root's accept loop ----

/// A bare 2-rank TCP transport with a listen address, so it spawns
/// nothing: the test plays the worker (or the attacker) over raw client
/// sockets against address().
std::unique_ptr<StreamTransport> bareTransport(std::uint64_t graceMs = 2000,
                                               std::uint64_t heartbeatMs = 200,
                                               int missLimit = 8) {
  StreamTransportOptions options;
  options.rankCount = 2;
  options.tcp = true;
  options.listen = "127.0.0.1:0";
  options.heartbeatMs = heartbeatMs;
  options.heartbeatMissLimit = missLimit;
  options.reconnectGraceMs = graceMs;
  options.connectTimeoutMs = 1000;
  options.helloPayload = {std::byte{0xC5}, std::byte{0x1}};
  return std::make_unique<StreamTransport>(std::move(options));
}

/// Dials the transport and sends one worker hello; returns the connected
/// fd (caller closes).
int dialAndSendHello(const StreamTransport& transport, int rank,
                     std::uint64_t claimedEpoch) {
  const int fd = runtime::dialOnce(transport.address(),
                                   std::chrono::milliseconds(1000), rank);
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.tag = rank;
  hello.payload.resize(sizeof(claimedEpoch));
  std::memcpy(hello.payload.data(), &claimedEpoch, sizeof(claimedEpoch));
  EXPECT_TRUE(runtime::wire::writeAllFd(fd, runtime::wire::encodeFrame(hello)));
  return fd;
}

/// Reads the hello-ack off `fd`; nullopt when the root refused (closed the
/// socket without acking).
std::optional<Frame> readAck(int fd) {
  FrameReader reader(runtime::wire::deadlineReadFn(
      fd, std::chrono::steady_clock::now() + std::chrono::seconds(2)));
  try {
    auto frame = reader.next();
    if (!frame.has_value() || frame->kind != FrameKind::kHelloAck) {
      return std::nullopt;
    }
    return frame;
  } catch (const std::exception&) {
    return std::nullopt;  // torn/refused mid-ack
  }
}

TEST(TcpHandshakeTest, ValidHelloIsAckedWithEpochAndPayload) {
  auto transport = bareTransport();
  const int fd = dialAndSendHello(*transport, 1, 0);
  const auto ack = readAck(fd);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->tag, 1);  // first granted epoch
  EXPECT_EQ(ack->payload,
            (std::vector<std::byte>{std::byte{0xC5}, std::byte{0x1}}));
  EXPECT_TRUE(transport->waitForWorkers(std::chrono::seconds(2)));
  ::close(fd);
}

TEST(TcpHandshakeTest, StaleEpochAndDoubleConnectAreRefused) {
  auto transport = bareTransport();

  // A zombie claiming an epoch the slot never granted is refused.
  const int stale = dialAndSendHello(*transport, 1, 7);
  EXPECT_FALSE(readAck(stale).has_value());
  ::close(stale);

  // Out-of-range ranks are refused outright (rank 0 is the root itself).
  for (const int rank : {0, 2, -1}) {
    const int bad = dialAndSendHello(*transport, rank, 0);
    EXPECT_FALSE(readAck(bad).has_value()) << "rank " << rank;
    ::close(bad);
  }

  // The genuine worker is still admitted after all those refusals...
  const int good = dialAndSendHello(*transport, 1, 0);
  ASSERT_TRUE(readAck(good).has_value());

  // ...and a second dial claiming the now-live slot is refused without
  // disturbing it.
  const int dup = dialAndSendHello(*transport, 1, 0);
  EXPECT_FALSE(readAck(dup).has_value());
  ::close(dup);
  EXPECT_FALSE(transport->isPermanentlyDead(1));
  ::close(good);
}

TEST(TcpHandshakeTest, ForgedHeadersPoisonOnlyTheirOwnSocket) {
  auto transport = bareTransport();

  {  // wrong magic
    const int fd = runtime::dialOnce(transport->address(),
                                     std::chrono::milliseconds(1000), 1);
    std::vector<std::byte> junk(runtime::wire::kFrameHeaderBytes,
                                std::byte{0x5A});
    EXPECT_TRUE(runtime::wire::writeAllFd(fd, junk));
    EXPECT_FALSE(readAck(fd).has_value());
    ::close(fd);
  }
  {  // hello with a hostile payload length: refused from the header check,
     // never allocated
    const int fd = runtime::dialOnce(transport->address(),
                                     std::chrono::milliseconds(1000), 1);
    const auto header = forgeHeader(runtime::wire::kFrameMagic,
                                    static_cast<std::uint32_t>(FrameKind::kHello),
                                    1, runtime::kMaxPayloadBytes + 1);
    EXPECT_TRUE(runtime::wire::writeAllFd(fd, header));
    EXPECT_FALSE(readAck(fd).has_value());
    ::close(fd);
  }

  // The accept loop survives both attackers: the real worker still gets in.
  const int good = dialAndSendHello(*transport, 1, 0);
  EXPECT_TRUE(readAck(good).has_value());
  ::close(good);
}

TEST(TcpHandshakeTest, HalfOpenConnectionIsDetectedByPingSilence) {
  // Tight monitor: 40 ms pings, 3 misses, no reconnect grace — a peer
  // that never answers is permanently dead within ~a second.
  auto transport = bareTransport(/*graceMs=*/0, /*heartbeatMs=*/40,
                                 /*missLimit=*/3);
  const int fd = dialAndSendHello(*transport, 1, 0);
  ASSERT_TRUE(readAck(fd).has_value());

  // Play dead: never answer a ping, never send a frame, keep the socket
  // open. Only ping silence can catch this (no EOF, no local child).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!transport->isPermanentlyDead(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(transport->isPermanentlyDead(1));

  // recvFor on the dead rank fails fast instead of burning its timeout.
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_FALSE(transport
                   ->recvFor(0, std::chrono::milliseconds(5000), 1, 0)
                   .has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::milliseconds(2500));

  const auto events = transport->drainEvents();
  EXPECT_TRUE(std::any_of(
      events.begin(), events.end(), [](const auto& event) {
        return event.kind ==
               StreamTransport::WorkerEvent::Kind::kPermanentDeath;
      }));
  ::close(fd);
}

// ---- dial retry budget ----

TEST(TcpDialTest, RetryBudgetIsHonoredAndCounted) {
  FaultPlan plan;
  plan.at("sock.connect", FaultSpec{.action = FaultAction::kThrow});
  runtime::fault::ScopedFaultPlan scoped(plan);

  // The fault fires before any real connect, so the address never matters.
  ScopedEnv connect(runtime::kWorkerConnectEnv, "127.0.0.1:1");
  ScopedEnv rank(runtime::kWorkerRankEnv, "1");
  ScopedEnv count(runtime::kWorkerRankCountEnv, "2");
  ScopedEnv retries(runtime::kWorkerConnectRetriesEnv, "3");
  runtime::StreamWorkerLink link;
  EXPECT_THROW(link.handshake(), std::exception);
  EXPECT_EQ(plan.hitCount("sock.connect"), 4u);  // 1 + retries attempts
}

}  // namespace
}  // namespace chisimnet::net

/// The transport re-enters this binary for its local workers
/// (/proc/self/exe); the worker hook must run before gtest takes over, so
/// this suite supplies its own main.
int main(int argc, char** argv) {
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
