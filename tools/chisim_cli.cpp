/// chisim — command-line driver for the chisimnet pipeline.
///
/// Subcommands mirror the paper's workflow:
///   simulate    generate a synthetic population and run the distributed
///               ABM, writing per-rank CLG5 logs (optionally with the SEIR
///               disease layer and its CLX5 logs)
///   info        inventory of a log directory (files, entries, time range)
///   synthesize  logs -> sparse collocation adjacency (CADJ file)
///   analyze     CADJ -> degree distribution, fits, clustering, components,
///               communities
///   ego         CADJ -> radius-k ego network around a person, exported as
///               SVG + GraphML
///
/// Example session:
///   chisim simulate   --persons 20000 --weeks 1 --ranks 4 --logs /tmp/run
///   chisim info       --logs /tmp/run
///   chisim synthesize --logs /tmp/run --window-end 168 --out /tmp/net.cadj
///   chisim analyze    --net /tmp/net.cadj --communities
///   chisim ego        --net /tmp/net.cadj --person 42 --radius 2
///                     --out /tmp/ego

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "chisimnet/chisimnet.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/runtime/stream_transport.hpp"

namespace {

using namespace chisimnet;

/// Minimal --key value argument parser. Every accessor records the key it
/// was asked for; rejectUnknown() then fails on any option the subcommand
/// never read, so a typo or a retired flag is an error, not a no-op. An
/// option given twice is an error too, not "the last one wins".
class Args {
 public:
  Args(int argc, char** argv, int firstArg) {
    for (int i = firstArg; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --option, got: " + key);
      }
      key = key.substr(2);
      std::string value;  // empty: a boolean flag
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      if (!values_.emplace(key, std::move(value)).second) {
        throw std::invalid_argument("duplicate option --" + key);
      }
    }
  }

  bool has(const std::string& key) const { return find(key) != values_.end(); }

  /// A boolean flag: present or absent. A value after it (--disease no) is
  /// an error, not a silent "on".
  bool flag(const std::string& key) const {
    const auto it = find(key);
    if (it != values_.end() && !it->second.empty()) {
      throw std::invalid_argument("--" + key + " takes no value, got: " +
                                  it->second);
    }
    return it != values_.end();
  }

  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string requireStr(const std::string& key) const {
    const auto it = find(key);
    if (it == values_.end() || it->second.empty()) {
      throw std::invalid_argument("missing required option --" + key);
    }
    return it->second;
  }

  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = find(key);
    if (it == values_.end()) {
      return fallback;
    }
    std::uint64_t value = 0;
    const auto& text = it->second;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      throw std::invalid_argument("--" + key + " expects an integer, got: " +
                                  text);
    }
    return value;
  }

  /// u64() narrowed to T; a value T cannot hold is rejected rather than
  /// wrapped (--workers 4294967297 must not run with 1 worker).
  template <class T>
  T num(const std::string& key, T fallback) const {
    const std::uint64_t value = u64(key, static_cast<std::uint64_t>(fallback));
    if (value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      throw std::out_of_range(
          "--" + key + " " + std::to_string(value) + " is out of range (max " +
          std::to_string(std::numeric_limits<T>::max()) + ")");
    }
    return static_cast<T>(value);
  }

  /// Byte size with an optional K/M/G (KiB/MiB/GiB) suffix, e.g.
  /// --memory-budget 256M.
  std::uint64_t bytes(const std::string& key, std::uint64_t fallback) const {
    const auto it = find(key);
    if (it == values_.end()) {
      return fallback;
    }
    std::string text = it->second;
    std::uint64_t multiplier = 1;
    if (!text.empty()) {
      switch (text.back()) {
        case 'K': case 'k': multiplier = std::uint64_t{1} << 10; break;
        case 'M': case 'm': multiplier = std::uint64_t{1} << 20; break;
        case 'G': case 'g': multiplier = std::uint64_t{1} << 30; break;
        default: break;
      }
      if (multiplier != 1) {
        text.pop_back();
      }
    }
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      throw std::invalid_argument(
          "--" + key + " expects a byte size like 4096, 256M or 12G, got: " +
          it->second);
    }
    if (value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
      throw std::out_of_range("--" + key + " " + it->second +
                              " overflows a 64-bit byte count");
    }
    return value * multiplier;
  }

  /// A finite decimal number; the whole string must parse (--beta 0.5x
  /// is rejected, not read as 0.5), and inf/nan are rejected.
  double real(const std::string& key, double fallback) const {
    const auto it = find(key);
    if (it == values_.end()) {
      return fallback;
    }
    double value = 0.0;
    const auto& text = it->second;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size() ||
        !std::isfinite(value)) {
      throw std::invalid_argument("--" + key +
                                  " expects a finite number, got: " + text);
    }
    return value;
  }

  /// Throws on the first given option no accessor has asked for. Each
  /// subcommand calls this once, after reading its options and before
  /// doing any work.
  void rejectUnknown() const {
    for (const auto& entry : values_) {
      if (!read_.contains(entry.first)) {
        throw std::invalid_argument("unknown option --" + entry.first);
      }
    }
  }

 private:
  std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const {
    read_.insert(key);
    return values_.find(key);
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// A byte count in whole MiB, or in whole KiB below 1 MiB.
std::string memorySize(std::uint64_t bytes) {
  return bytes < (std::uint64_t{1} << 20)
             ? std::to_string(bytes / 1024) + " KiB"
             : std::to_string(bytes / 1024 / 1024) + " MiB";
}

int cmdSimulate(const Args& args) {
  pop::PopulationConfig popConfig;
  popConfig.personCount = args.num<std::uint32_t>("persons", 20000);
  popConfig.seed = args.u64("seed", 20170517);

  abm::ModelConfig config;
  config.logDirectory = args.requireStr("logs");
  config.rankCount = args.num<int>("ranks", 4);
  config.weeks = args.num<std::uint32_t>("weeks", 1);
  config.scheduleSeed = args.u64("schedule-seed", 7);
  config.logCacheEntries = args.u64("cache", elog::kDefaultCacheEntries);
  const std::string partition = args.str("partition", "neighborhood");
  if (partition == "round-robin") {
    config.strategy = abm::PartitionStrategy::kRoundRobin;
  } else if (partition != "neighborhood") {
    throw std::invalid_argument(
        "--partition expects neighborhood or round-robin, got: " + partition);
  }
  if (args.flag("compress")) {
    config.logCompression = elog::LogCompression::kPacked;
  }
  config.checkpointDir = args.str("checkpoint-dir", "");
  config.checkpointEveryHours =
      args.num<std::uint32_t>("sim-checkpoint-hours", 0);
  config.resume = args.flag("resume");
  const bool withDisease = args.flag("disease");
  abm::DiseaseConfig disease;
  disease.beta = args.real("beta", 0.002);
  disease.seedCount = args.num<std::uint32_t>("seeds", 5);
  disease.seed = args.u64("disease-seed", 99);
  args.rejectUnknown();

  const auto population = pop::SyntheticPopulation::generate(popConfig);
  std::cout << "population: " << population.persons().size() << " persons, "
            << population.places().size() << " places\n";

  // SIGTERM/SIGINT become a graceful checkpoint-and-exit only when there
  // is a checkpoint directory to write to; otherwise the default
  // dispositions (terminate) stay in place.
  std::optional<abm::ScopedShutdownHandler> shutdownHandler;
  if (!config.checkpointDir.empty()) {
    abm::clearShutdownRequest();
    shutdownHandler.emplace();
  }

  abm::ModelStats stats;
  if (withDisease) {
    abm::DiseaseStats epidemic;
    stats = abm::runModel(population, config, disease, epidemic);
    std::cout << "epidemic: " << epidemic.seeded << " seeds, "
              << epidemic.infections << " transmissions, attack rate "
              << 100.0 * epidemic.attackRate() << "%, peak "
              << epidemic.peakInfectious << " @h" << epidemic.peakHour << "\n";
  } else {
    stats = abm::runModel(population, config);
  }
  std::cout << "simulated " << stats.simulatedHours << " h ("
            << stats.hoursActive << " active) on "
            << config.rankCount << " ranks in " << stats.wallSeconds << " s; "
            << stats.eventsLogged << " events ("
            << memorySize(stats.logBytes) << "), migration "
            << 100.0 * stats.migrationFraction() << "%\n";
  if (stats.checkpointsWritten > 0 || stats.resumed) {
    std::cout << "checkpoint: " << stats.checkpointsWritten << " written to "
              << config.checkpointDir.string();
    if (stats.resumed) {
      std::cout << ", resumed at h" << stats.hoursReplayed << " ("
                << stats.hoursReplayed << " h already on disk)";
    }
    std::cout << "\n";
  }
  if (stats.interrupted) {
    std::cout << "interrupted: checkpointed and stopped on a shutdown "
                 "signal; rerun with --resume to continue\n";
    return 3;
  }
  return 0;
}

int cmdInfo(const Args& args) {
  const std::string logs = args.requireStr("logs");
  args.rejectUnknown();
  const auto files = elog::listLogFiles(logs);
  if (files.empty()) {
    std::cout << "no CLG5 files found\n";
    return 1;
  }
  std::uint64_t totalEntries = 0;
  for (const auto& file : files) {
    elog::ChunkedLogReader reader(file);
    table::Hour minStart = ~0u;
    table::Hour maxEnd = 0;
    for (const elog::ChunkInfo& chunk : reader.chunks()) {
      minStart = std::min(minStart, chunk.minStart);
      maxEnd = std::max(maxEnd, chunk.maxEnd);
    }
    std::cout << file.filename().string() << ": " << reader.totalEntries()
              << " entries in " << reader.chunks().size() << " chunks, ";
    if (reader.chunks().empty()) {
      std::cout << "empty, ";
    } else {
      std::cout << "hours [" << minStart << ", " << maxEnd << "), ";
    }
    std::cout << std::filesystem::file_size(file) / 1024 << " KiB\n";
    totalEntries += reader.totalEntries();
  }
  std::cout << "total: " << files.size() << " files, " << totalEntries
            << " entries, " << memorySize(elog::totalFileBytes(files))
            << "\n";
  return 0;
}

int cmdSynthesize(const Args& args) {
  const std::string logs = args.requireStr("logs");
  const std::string out = args.requireStr("out");
  net::SynthesisConfig config;
  config.windowStart = args.num<table::Hour>("window-start", 0);
  config.windowEnd = args.num<table::Hour>("window-end", 168);
  config.workers = args.num<unsigned>("workers", 4);
  config.filesPerBatch = args.num<std::size_t>("batch", 0);
  const std::string backend = args.str("backend", "shared");
  if (backend == "mp") {
    config.backend = net::SynthesisBackend::kMessagePassing;
  } else if (backend != "shared") {
    throw std::invalid_argument("--backend expects shared or mp, got: " +
                                backend);
  }
  const std::string policy = args.str("fault-policy", "failfast");
  if (policy == "degrade") {
    config.faultPolicy = net::FaultPolicy::kDegrade;
  } else if (policy != "failfast") {
    throw std::invalid_argument(
        "--fault-policy expects failfast or degrade, got: " + policy);
  }
  config.maxQuarantinedFiles = args.u64("max-quarantined-files", 0);
  config.commandTimeoutMs = args.u64("command-timeout-ms", 0);
  const std::string transport = args.str("transport", "inproc");
  if (transport == "process") {
    config.transport = net::MpTransport::kProcess;
  } else if (transport == "tcp") {
    config.transport = net::MpTransport::kTcp;
  } else if (transport != "inproc") {
    throw std::invalid_argument(
        "--transport expects inproc, process or tcp, got: " + transport);
  }
  config.maxRespawns = args.num<int>("max-respawns", 1);
  config.heartbeatMs = args.u64("heartbeat-ms", 250);
  config.connectTimeoutMs = args.u64("connect-timeout-ms", 5000);
  config.connectRetries = args.num<int>("connect-retries", 5);
  config.reconnectGraceMs = args.u64("reconnect-grace-ms", 3000);
  config.tcpListen = args.str("tcp-listen", "");
  config.checkpointDir = args.str("checkpoint-dir", "");
  config.resume = args.flag("resume");
  config.memoryBudgetBytes = args.bytes("memory-budget", 0);
  config.spillDir = args.str("spill-dir", "");
  args.rejectUnknown();

  const auto files = elog::listLogFiles(logs);
  if (files.empty()) {
    std::cerr << "no CLG5 files found\n";
    return 1;
  }
  net::NetworkSynthesizer synthesizer(config);
  std::uint64_t edges = 0;
  if (config.memoryBudgetBytes > 0) {
    // Bounded-memory path: the accumulator spills sorted runs and the
    // final k-way merge streams straight into the CADJ file, so the
    // result never has to be resident.
    edges = synthesizer.synthesizeToFile(files, out);
  } else {
    const auto adjacency = synthesizer.synthesizeAdjacency(files);
    edges = adjacency.edgeCount();
    sparse::saveAdjacency(adjacency, out);
  }
  const auto& report = synthesizer.report();
  std::cout << "synthesized " << edges << " edges from "
            << report.logEntriesLoaded << " entries / "
            << report.placesProcessed << " places in "
            << report.totalSeconds << " s (" << net::backendName(report.backend)
            << " backend, partition imbalance " << report.partitionImbalance
            << ")\n";
  if (report.backend == net::SynthesisBackend::kMessagePassing) {
    std::cout << "comm: scattered " << report.bytesScattered / 1024
              << " KiB to ranks, returned " << report.bytesReturned / 1024
              << " KiB (" << net::mpTransportName(config.transport)
              << " transport)\n";
  }
  std::cout << "kernel: " << report.kernelDensePlaces << " dense / "
            << report.kernelHashPlaces << " hash places, "
            << report.kernelPairHourUpdates << " local updates -> "
            << report.kernelGlobalEmits << " global emits\n";
  std::cout << "reduce: " << report.reduceMergedSums
            << " worker sums folded in " << report.reduceCriticalSeconds
            << " s\n";
  std::cout << "load: " << report.loadSeconds << " s total, "
            << report.loadExposedSeconds
            << " s exposed on the compute path (prefetch hid "
            << report.loadOverlappedSeconds << " s; buffer mean/peak "
            << report.prefetchMeanOccupancy << "/"
            << report.prefetchPeakOccupancy << ")\n";
  if (report.resumed) {
    std::cout << "resumed from checkpoint: skipped "
              << report.filesSkippedByResume << " already-consumed files\n";
  }
  if (report.checkpointsWritten > 0) {
    std::cout << "checkpoints: " << report.checkpointsWritten << " written to "
              << config.checkpointDir.string() << "\n";
  }
  if (!report.quarantined.empty()) {
    std::cout << "quarantined " << report.quarantined.size()
              << " input files (output excludes them):\n";
    for (const elog::QuarantinedFile& entry : report.quarantined) {
      std::cout << "  " << entry.file.string() << " @" << entry.byteOffset
                << ": " << entry.reason << "\n";
    }
  }
  if (report.commandRetries > 0 || report.ranksLost > 0 ||
      report.workersRespawned > 0 || report.workersReconnected > 0) {
    std::cout << "recovery: " << report.commandRetries
              << " command retries, " << report.workersRespawned
              << " workers respawned, " << report.workersReconnected
              << " workers reconnected, " << report.ranksLost
              << " ranks lost (work reassigned to survivors)\n";
  }
  if (report.memoryBudgetBytes > 0) {
    std::cout << "spill: budget " << memorySize(report.memoryBudgetBytes)
              << ", peak accumulator "
              << memorySize(report.peakAccumulatorBytes)
              << ", stage-5 transient " << memorySize(report.peakStage5Bytes)
              << ", "
              << report.spillRunsWritten << " runs ("
              << memorySize(report.spilledBytes - report.mergePassBytes)
              << ", " << report.spilledTriplets << " triplets), "
              << report.spillRunsRestored << " restored, "
              << report.spillCompactions << " owner merge passes ("
              << memorySize(report.mergePassBytes) << ")\n";
    std::cout << "merge: " << report.reduceShardsUsed << " owners, "
              << report.mergeSegmentsWritten << " segments ("
              << report.mergeSegmentsReused << " reused, "
              << report.spillRunsSplit << " runs split), "
              << report.mergeSeconds << " s merge CPU, critical path "
              << report.mergeCriticalSeconds << " s (modeled), wall "
              << report.mergeWallSeconds << " s (splice "
              << report.spliceSeconds << " s)\n";
  }
  std::cout << "wrote " << out << " ("
            << memorySize(std::filesystem::file_size(out)) << ")\n";
  return 0;
}

int cmdAnalyze(const Args& args) {
  const std::string net = args.requireStr("net");
  const bool clustering = args.flag("clustering");
  const bool communities = args.flag("communities");
  const std::uint64_t seed = args.u64("seed", 1);
  const std::string degreesOut =
      args.has("degrees-out") ? args.requireStr("degrees-out") : "";
  args.rejectUnknown();

  const auto triplets = sparse::loadTriplets(net);
  const graph::Graph network = graph::Graph::fromTriplets(triplets);
  std::cout << "network: " << network.vertexCount() << " vertices, "
            << network.edgeCount() << " edges, mean degree "
            << graph::meanDegree(network) << ", total weight "
            << network.totalWeight() << " person-hours\n";

  const auto degrees = graph::degreeSequence(network);
  const auto distribution = stats::frequencyDistribution(degrees);
  const auto powerLaw = stats::fitPowerLaw(distribution);
  const auto truncated = stats::fitTruncatedPowerLaw(distribution);
  const auto exponential = stats::fitExponential(distribution);
  std::cout << "degree fits (log-SSE): power-law alpha=" << powerLaw.alpha
            << " (" << powerLaw.sseLog << "), truncated alpha="
            << truncated.alpha << " kc=" << truncated.cutoff << " ("
            << truncated.sseLog << "), exponential kc=" << exponential.cutoff
            << " (" << exponential.sseLog << ")\n";

  const auto components = graph::connectedComponents(network);
  std::cout << "components: " << components.count() << ", giant "
            << components.giantSize() << " vertices\n";

  if (clustering) {
    const auto coefficients = graph::localClusteringCoefficients(network);
    std::uint64_t atOne = 0;
    for (double c : coefficients) {
      atOne += c >= 0.999 ? 1 : 0;
    }
    std::cout << "clustering: mean " << stats::mean(coefficients) << ", "
              << atOne << " vertices at 1.0\n";
  }
  if (communities) {
    util::Rng rng(seed);
    const auto assignment = graph::louvain(network, rng);
    std::cout << "louvain: " << assignment.communityCount
              << " communities, modularity " << assignment.modularity << "\n";
  }
  if (!degreesOut.empty()) {
    std::ofstream out(degreesOut);
    if (!out) {
      throw std::runtime_error("cannot open for writing: " + degreesOut);
    }
    out << "degree\tcount\tfraction\n";
    for (const auto& point : distribution) {
      out << point.value << '\t' << point.count << '\t' << point.fraction
          << '\n';
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("degree distribution write failed: " +
                               degreesOut);
    }
    std::cout << "wrote degree distribution to " << degreesOut << "\n";
  }
  return 0;
}

int cmdExport(const Args& args) {
  const std::string logs = args.requireStr("logs");
  const std::string out = args.requireStr("out");
  const auto windowStart = args.num<table::Hour>("window-start", 0);
  const auto windowEnd = args.num<table::Hour>(
      "window-end", std::numeric_limits<table::Hour>::max());
  args.rejectUnknown();

  const auto files = elog::listLogFiles(logs);
  if (files.empty()) {
    std::cerr << "no CLG5 files found\n";
    return 1;
  }
  table::EventTable events = elog::loadEvents(files, windowStart, windowEnd);
  events.sortByStart();
  table::writeEventsTsv(events, out);
  std::cout << "wrote " << events.size() << " events to " << out
            << " (load into R with data.table::fread)\n";
  return 0;
}

int cmdEgo(const Args& args) {
  const std::string net = args.requireStr("net");
  const auto person = args.num<std::uint32_t>("person", 0);
  const auto radius = args.num<unsigned>("radius", 2);
  const std::string prefix = args.requireStr("out");
  const std::uint64_t layoutLimit = args.u64("layout-limit", 4000);
  // Unset: scale the layout effort to the ego size (known only later).
  const bool autoIterations = !args.has("iterations");
  const auto iterations = args.num<unsigned>("iterations", 0);
  args.rejectUnknown();

  const auto triplets = sparse::loadTriplets(net);
  const graph::Graph network = graph::Graph::fromTriplets(triplets);
  const auto vertex = network.vertexForLabel(person);
  if (!vertex.has_value()) {
    std::cerr << "person " << person << " is not in the network\n";
    return 1;
  }
  const graph::Graph ego = graph::egoNetwork(network, *vertex, radius);
  std::cout << "ego(" << person << ", r=" << radius << "): "
            << ego.vertexCount() << " nodes, " << ego.edgeCount()
            << " edges\n";
  graph::writeGraphMl(ego, prefix + ".graphml");
  if (ego.vertexCount() <= layoutLimit) {
    util::Rng rng(5);
    graph::LayoutOptions layout;
    layout.iterations = autoIterations
                            ? (ego.vertexCount() > 1500 ? 80u : 200u)
                            : iterations;
    const auto positions = graph::forceAtlas2Layout(ego, layout, rng);
    graph::writeSvg(ego, positions, prefix + ".svg");
    std::cout << "wrote " << prefix << ".svg and " << prefix << ".graphml\n";
  } else {
    std::cout << "wrote " << prefix
              << ".graphml (ego too large for the O(n^2) layout; raise "
                 "--layout-limit to force)\n";
  }
  return 0;
}

/// `chisim worker` — join a remote synthesis root over TCP. The flags are
/// translated into the same bootstrap environment the root exports when it
/// spawns local workers itself, then the shared worker entry point takes
/// over and validates them: dial, handshake, serve commands until
/// kStop/kDie.
int cmdWorker(const Args& args) {
  const std::string connect = args.requireStr("connect");
  const std::string rank = args.requireStr("rank");
  const std::string rankCount = args.requireStr("rank-count");
  const std::uint64_t connectTimeoutMs = args.u64("connect-timeout-ms", 5000);
  const std::uint64_t connectRetries = args.u64("connect-retries", 5);
  args.rejectUnknown();
  runtime::parseHostPort(connect);  // fail fast on a malformed address
  ::setenv(runtime::kWorkerConnectEnv, connect.c_str(), 1);
  ::setenv(runtime::kWorkerRankEnv, rank.c_str(), 1);
  ::setenv(runtime::kWorkerRankCountEnv, rankCount.c_str(), 1);
  ::setenv(runtime::kWorkerConnectTimeoutEnv,
           std::to_string(connectTimeoutMs).c_str(), 1);
  ::setenv(runtime::kWorkerConnectRetriesEnv,
           std::to_string(connectRetries).c_str(), 1);
  return *net::maybeRunSynthesisWorker();
}

void printUsage() {
  std::cout <<
      "usage: chisim <command> [--options]\n"
      "\n"
      "commands:\n"
      "  simulate    --logs DIR [--persons N] [--seed S] [--weeks W]\n"
      "              [--schedule-seed S] [--ranks R] [--cache N]\n"
      "              [--partition neighborhood|round-robin]\n"
      "              [--compress]\n"
      "              [--disease [--beta B] [--seeds K] [--disease-seed S]]\n"
      "              [--checkpoint-dir DIR [--sim-checkpoint-hours N] [--resume]]\n"
      "  info        --logs DIR\n"
      "  synthesize  --logs DIR --out FILE.cadj [--window-start H] [--window-end H]\n"
      "              [--backend shared|mp] [--workers W] [--batch N]\n"
      "              [--fault-policy failfast|degrade] [--max-quarantined-files N]\n"
      "              [--command-timeout-ms MS] [--checkpoint-dir DIR] [--resume]\n"
      "              [--transport inproc|process|tcp] [--max-respawns N]\n"
      "              [--heartbeat-ms MS] [--connect-timeout-ms MS]\n"
      "              [--connect-retries N] [--reconnect-grace-ms MS]\n"
      "              [--tcp-listen HOST:PORT]   (tcp: external workers)\n"
      "              [--memory-budget BYTES[K|M|G]] [--spill-dir DIR]\n"
      "  worker      --connect HOST:PORT --rank N --rank-count R\n"
      "              [--connect-timeout-ms MS] [--connect-retries N]\n"
      "              (join a --transport tcp synthesis root from another host)\n"
      "  analyze     --net FILE.cadj [--clustering] [--communities]\n"
      "              [--seed S] [--degrees-out FILE.tsv]\n"
      "  ego         --net FILE.cadj --out PREFIX [--person P] [--radius R]\n"
      "              [--layout-limit N] [--iterations N]\n"
      "  export      --logs DIR --out FILE.tsv [--window-start H]\n"
      "              [--window-end H]   (events as TSV for R/data.table)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // A worker spawned by --transport process|tcp re-enters this binary with
  // worker bootstrap env vars set; it must become a synthesis worker before
  // any CLI parsing (the root passes no argv to workers).
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  // A scripted fault plan shipped through the environment (the same
  // mechanism the transports use for synthesis workers) lets CI and the
  // nightly soak kill a simulation at an exact hour, tear a wire frame, or
  // drop a connection — root-side sites (sock.send, sock.drop, ...)
  // fire in this process; worker-side sites ride the env into the workers.
  std::unique_ptr<chisimnet::runtime::FaultPlan> faultPlan;
  if (const char* planText =
          std::getenv(chisimnet::runtime::kWorkerFaultPlanEnv)) {
    faultPlan = chisimnet::runtime::FaultPlan::decode(planText);
    chisimnet::runtime::fault::install(faultPlan.get());
  }
  if (argc < 2) {
    printUsage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (command == "simulate") {
      return cmdSimulate(args);
    }
    if (command == "info") {
      return cmdInfo(args);
    }
    if (command == "synthesize") {
      return cmdSynthesize(args);
    }
    if (command == "analyze") {
      return cmdAnalyze(args);
    }
    if (command == "ego") {
      return cmdEgo(args);
    }
    if (command == "export") {
      return cmdExport(args);
    }
    if (command == "worker") {
      return cmdWorker(args);
    }
    printUsage();
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
