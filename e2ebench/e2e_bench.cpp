/// e2e_bench — the end-to-end, per-layer benchmark of the chisimnet
/// pipeline: synthetic population -> ABM -> CLG5 logs -> collocation
/// synthesis -> CADJ -> graph analysis.
///
/// Each workload is one batch job run to completion: a closed loop with one
/// client. The driver calls the library's public entry points in the same
/// order as the chisim CLI and, like the CLI, hands a phase's result to the
/// next phase only through files on disk. Every call is timed from outside;
/// nothing inside the library is instrumented.
///
///   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
///             --work DIR --out DIR [--scale full|smoke] [--commit ID]
///
/// Set-up (population generation, plus the simulation that writes the
/// input logs when the measured phases start at synthesis) runs before the
/// first iteration and again after each one, and reports its median. The
/// measured phases repeat, each time in a forked process, for as long as
/// they fit in --seconds (at least three times at full scale). Each metric
/// is the median over the iterations that lost little CPU time to the host.
///
/// The last stdout line is one JSON object with the keys correct,
/// attempted, failed and metrics. With --trace 0 the metrics are the
/// end-to-end ones. With --trace 1 they are the per-layer ones: every
/// other iteration records a span around each call, and the spans are
/// written as Chrome trace-event JSON into the --out directory.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "chisimnet/chisimnet.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace {

using namespace chisimnet;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// --seed N gives a run the input seeds N * kInputsPerRun + 0, 1, ... An
/// input seed s draws the schedules (seed 7 + s) and the epidemic (99 + s);
/// input seed 0 is the CLI defaults, so `chisim simulate/synthesize` at the
/// same scale reproduces the CADJ bytes pinned below. A workload that
/// simulates inside its iterations cycles them over the run's inputs, so
/// one run's median covers several networks and one unusually dense
/// network does not decide it. The count is odd, so the every-other
/// iteration that a traced run traces also covers every input.
constexpr std::uint64_t kInputsPerRun = 5;
/// ABM ranks, synthesis workers and mp ranks (root + 3 worker processes).
constexpr unsigned kCores = 4;
/// Set-up runs before the measured loop and again after every iteration,
/// each time repeating for at least this long (and at most this often), so
/// that its median samples the same machine conditions as the iterations.
constexpr double kSetupRoundSeconds = 0.05;
constexpr int kSetupMaxRepeats = 100;
/// On a virtual machine the host can take CPU time away from the guest
/// (the steal column of /proc/stat). An iteration or set-up round that lost
/// more than this share of the guest's CPU time is set aside when enough
/// others did not.
constexpr double kMaxStealShare = 0.02;

// ------------------------------------------------------------- workloads

/// Every workload simulates one week and synthesizes its whole window,
/// hours 0-168.
struct Workload {
  std::string_view name;
  std::uint32_t persons = 0;  ///< full scale; smoke scale divides by 10
  bool disease = false;
  /// The simulation writes the input logs during set-up and the measured
  /// phases start at synthesis.
  bool simulateInSetup = false;
  /// Message-passing backend over the process transport with a memory
  /// budget and the sharded merge streaming into CADJ.
  bool messagePassing = false;
  /// Read the CADJ back and analyse it as `chisim analyze --clustering`.
  bool analyze = true;
};

constexpr table::Hour kWindowHours = 168;

constexpr Workload kWorkloads[] = {
    {.name = "week_e2e", .persons = 3000, .disease = true},
    {.name = "mp_spill",
     .persons = 25000,
     .simulateInSetup = true,
     .messagePassing = true,
     .analyze = false},
};

/// Outputs pinned for input seed 0: a digest of the CADJ bytes and, with
/// disease on, the transmission count.
struct Pin {
  std::string_view workload;
  bool smoke = false;
  std::uint64_t cadjDigest = 0;
  std::uint64_t infections = 0;
};

constexpr Pin kPins[] = {
    {"week_e2e", false, 0x43014e669f74b6caULL, 62},
    {"mp_spill", false, 0x71c25019e7900b6cULL, 0},
    {"week_e2e", true, 0xda12bc98b140cd26ULL, 47},
    {"mp_spill", true, 0x40aff24c14bd916eULL, 0},
};

// --------------------------------------------------------------- metrics

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"total_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/// Every per-layer metric, emitted on every workload; a layer the workload
/// does not run reports 0.
constexpr MetricDef kPerLayer[] = {
    {"pop.generate_s", "s"},
    {"abm.run_s", "s"},
    {"abm.agent_hours_per_s", "1/s"},
    {"abm.events", "count"},
    {"abm.hours_active", "count"},
    {"abm.peak_queue_depth", "count"},
    {"abm.migration_fraction", "ratio"},
    {"abm.infections", "count"},
    {"abm.peak_rss_mib", "MiB"},
    {"elog.bytes_written", "bytes"},
    {"elog.decode_s", "s"},
    {"elog.decode_exposed_s", "s"},
    {"elog.entries_read", "count"},
    {"net.synthesize_s", "s"},
    {"net.subset_s", "s"},
    {"net.collocation_s", "s"},
    {"net.partition_s", "s"},
    {"net.adjacency_s", "s"},
    {"net.reduce_s", "s"},
    {"net.reduce_critical_s", "s"},
    {"net.report_gap_s", "s"},
    {"net.teardown_s", "s"},
    {"net.partition_imbalance", "ratio"},
    {"net.busy_imbalance", "ratio"},
    {"net.peak_rss_mib", "MiB"},
    {"sparse.kernel_updates", "count"},
    {"sparse.kernel_emits", "count"},
    {"sparse.emit_ratio", "ratio"},
    {"sparse.cadj_write_s", "s"},
    {"sparse.cadj_read_s", "s"},
    {"sparse.cadj_bytes", "bytes"},
    {"sparse.spill_runs", "count"},
    {"sparse.spill_bytes", "bytes"},
    {"sparse.spill_compactions", "count"},
    {"sparse.peak_accumulator_bytes", "bytes"},
    {"sparse.merge_cpu_s", "s"},
    {"sparse.merge_critical_s", "s"},
    {"runtime.bytes_scattered", "bytes"},
    {"runtime.bytes_returned", "bytes"},
    {"runtime.command_retries", "count"},
    {"runtime.workers_respawned", "count"},
    {"runtime.ranks_lost", "count"},
    {"runtime.worker_peak_rss_mib", "MiB"},
    {"graph.build_s", "s"},
    {"graph.degree_s", "s"},
    {"graph.components_s", "s"},
    {"graph.clustering_s", "s"},
    {"graph.vertices", "count"},
    {"graph.edges", "count"},
    {"graph.wedges", "count"},
    {"graph.triangles", "count"},
    {"graph.peak_rss_mib", "MiB"},
    {"stats.fit_s", "s"},
    {"trace.coverage", "ratio"},
    {"trace.total_s", "s"},
    {"trace.untraced_total_s", "s"},
    {"trace.overhead_s", "s"},
};

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ---------------------------------------------------------------- memory

constexpr double kMiB = 1024.0 * 1024.0;

/// Resets the peak-RSS high-water mark to the current RSS, after handing
/// freed heap back to the kernel so one phase's garbage does not count as
/// the next phase's peak.
void resetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of this process in MiB.
double peakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

/// CPU time the host took from this guest, summed over its CPUs, in
/// seconds; 0 where there is no hypervisor.
double stolenSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) {
  }
  return static_cast<double>(field) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Largest peak RSS of any reaped child (the mp worker processes) in MiB.
double childrenPeakRssMib() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

/// Pins the calling thread to one of its allowed CPUs for the scope. The
/// single-threaded set-up repeats rotate over the CPUs, so that a CPU
/// slowed by a neighbour on the same core does not decide their median.
class PinnedCpu {
 public:
  explicit PinnedCpu(std::size_t rotation) {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
      return;
    }
    const int allowed = CPU_COUNT(&saved_);
    int skip = allowed > 0 ? static_cast<int>(rotation % allowed) : 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_) && skip-- == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
        return;
      }
    }
  }
  ~PinnedCpu() {
    if (pinned_) {
      ::sched_setaffinity(0, sizeof saved_, &saved_);
    }
  }

  PinnedCpu(const PinnedCpu&) = delete;
  PinnedCpu& operator=(const PinnedCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// ----------------------------------------------------------------- spans

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the process started
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing recorded span
};

/// Bench-side spans and counters, kept in memory and written at the end.
/// Top-level spans are always recorded (a few per run); nested spans only
/// while detail is on.
class Recorder {
 public:
  explicit Recorder(Clock::time_point origin) : origin_(origin) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  void setDetail(bool detail) { detail_ = detail; }

  int open(std::string name, double start) {
    int id = -1;
    if (detail_ || stack_.empty()) {
      int parent = -1;
      for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
        if (*it >= 0) {
          parent = *it;
          break;
        }
      }
      spans_.push_back({std::move(name), start, start, parent});
      id = static_cast<int>(spans_.size()) - 1;
    }
    stack_.push_back(id);
    return id;
  }

  void close(int id, double end) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].end = end;
    }
    stack_.pop_back();
  }

  void counter(const std::string& name, double value) {
    if (detail_) {
      counters_.push_back({name, now(), value});
    }
  }

  std::size_t spanCount() const { return spans_.size(); }

  /// Serializes the spans from index `first` on, one per line.
  void exportSpans(std::size_t first, std::ostream& out) const {
    for (std::size_t i = first; i < spans_.size(); ++i) {
      out << "span " << spans_[i].name << ' ' << spans_[i].start << ' '
          << spans_[i].end << ' ' << spans_[i].parent << '\n';
    }
  }

  /// Appends a span exported by a forked copy of this recorder; its parent
  /// index is valid because both copies hold the same spans before it.
  void importSpan(SpanRecord span) { spans_.push_back(std::move(span)); }

  /// Share of [0, wall] covered by top-level spans.
  double coverage(double wall) const {
    double covered = 0.0;
    for (const SpanRecord& span : spans_) {
      covered += span.parent < 0 ? span.end - span.start : 0.0;
    }
    return ratio(covered, wall);
  }

  /// Self seconds per span name: duration minus the time its direct
  /// children cover (children run one after another, never overlapping).
  std::map<std::string, double> selfSeconds() const {
    std::map<std::string, double> self;
    for (const SpanRecord& span : spans_) {
      self[span.name] += span.end - span.start;
      if (span.parent >= 0) {
        self[spans_[static_cast<std::size_t>(span.parent)].name] -=
            span.end - span.start;
      }
    }
    return self;
  }

  void writeChromeTrace(const fs::path& path) const;

 private:
  struct Counter {
    std::string name;
    double at = 0.0;
    double value = 0.0;
  };

  Clock::time_point origin_;
  bool detail_ = false;
  std::vector<int> stack_;  ///< open spans; -1 for unrecorded ones
  std::vector<SpanRecord> spans_;
  std::vector<Counter> counters_;
};

/// Times a scope and records it as a span.
class Span {
 public:
  Span(Recorder& recorder, std::string name)
      : recorder_(recorder),
        start_(recorder.now()),
        id_(recorder.open(std::move(name), start_)) {}
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double close() {
    if (!closed_) {
      end_ = recorder_.now();
      recorder_.close(id_, end_);
      closed_ = true;
    }
    return end_ - start_;
  }

 private:
  Recorder& recorder_;
  double start_ = 0.0;
  double end_ = 0.0;
  int id_ = -1;
  bool closed_ = false;
};

// ------------------------------------------------------------------ JSON

std::string jsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

void Recorder::writeChromeTrace(const fs::path& path) const {
  const auto micros = [](double seconds) { return jsonNumber(seconds * 1e6); };
  const std::string pid = std::to_string(::getpid());
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const char* separator = "";
  for (const SpanRecord& span : spans_) {
    const std::string parent =
        span.parent < 0 ? ""
                        : spans_[static_cast<std::size_t>(span.parent)].name;
    out << separator << "{\"name\": " << jsonString(span.name)
        << ", \"cat\": \"e2e\", \"ph\": \"X\", \"pid\": " << pid
        << ", \"tid\": 1, \"ts\": " << micros(span.start)
        << ", \"dur\": " << micros(span.end - span.start)
        << ", \"args\": {\"parent\": " << jsonString(parent) << "}}";
    separator = ",\n";
  }
  for (const Counter& counter : counters_) {
    out << separator << "{\"name\": " << jsonString(counter.name)
        << ", \"ph\": \"C\", \"pid\": " << pid << ", \"tid\": 1, \"ts\": "
        << micros(counter.at) << ", \"args\": {\"value\": "
        << jsonNumber(counter.value) << "}}";
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------- checks

/// 64-bit digest of a file's bytes (FNV-1a over 8-byte little-endian
/// words, then the tail bytes).
std::uint64_t fileDigest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path.string());
  }
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::vector<char> buffer(1 << 20);
  std::uint64_t carry = 0;
  std::size_t carryBytes = 0;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i < got; ++i) {
      carry |= static_cast<std::uint64_t>(static_cast<unsigned char>(buffer[i]))
               << (8 * carryBytes);
      if (++carryBytes == 8) {
        hash = (hash ^ carry) * kPrime;
        carry = 0;
        carryBytes = 0;
      }
    }
  }
  return ((hash ^ carry) * kPrime) ^ carryBytes;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

std::uint64_t directoryBytes(const fs::path& directory) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(directory)) {
    bytes += entry.is_regular_file() ? entry.file_size() : 0;
  }
  return bytes;
}

// ----------------------------------------------------------- fingerprint

std::string cpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ------------------------------------------------------------------- run

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  fs::path work;
  fs::path out;
  std::string commit = "unknown";
};

/// One pass over the measured phases (or over set-up).
struct Sample {
  double totalSeconds = 0.0;  ///< Σ phase wall times; checks excluded
  double peakRssMib = 0.0;    ///< max over phases, workers included
  double stealShare = 0.0;    ///< share of the guest's CPU time stolen
  bool traced = false;
  std::map<std::string, double> layer;  ///< per-layer values of this pass
};

class Bench {
 public:
  Bench(const Workload& workload, Options options, Clock::time_point origin)
      : workload_(workload),
        options_(std::move(options)),
        recorder_(origin),
        persons_(options_.smoke ? workload.persons / 10 : workload.persons),
        logDir_(options_.work / "logs"),
        cadjPath_(options_.work / "net.cadj"),
        spillDir_(options_.work / "spill") {
    for (const Pin& pin : kPins) {
      if (pin.workload == workload_.name && pin.smoke == options_.smoke) {
        pin_ = pin;
      }
    }
  }

  /// Runs set-up, the measured loop and the output checks; prints the
  /// result line. Returns the process exit code.
  int run();

 private:
  bool phase(const std::string& name, Sample& sample,
             const std::function<void()>& call);
  void fail(const std::string& phaseName, const std::string& why);
  Sample setup();
  bool simulate(Sample& sample, const std::string& phaseName);
  void referenceDigest();
  Sample iteration(bool traced, std::size_t index);
  Sample isolatedIteration(bool traced, std::size_t index);
  /// The pin of the current inputs, if they are the pinned ones.
  const Pin* pin() const {
    return pin_ && inputSeed_ == 0 ? &*pin_ : nullptr;
  }
  /// Whether the current inputs are the run's first, whose outputs go into
  /// the result record.
  bool firstInput() const {
    return inputSeed_ == options_.seed * kInputsPerRun;
  }
  /// Runs `pass`, then stamps the samples it appended to `samples` with
  /// the share of CPU time the host stole meanwhile.
  void measureSteal(std::vector<Sample>& samples,
                    const std::function<void()>& pass) const;
  net::SynthesisConfig synthesisConfig(bool messagePassing) const;
  std::uint64_t memoryBudget() const {
    return (options_.smoke ? 1 : 16) * static_cast<std::uint64_t>(kMiB);
  }
  void recordSynthesis(Sample& sample, const net::SynthesisReport& report);
  void writeResult(const std::map<std::string, double>& metrics,
                   const std::map<std::string, std::vector<double>>& samples,
                   bool correct) const;

  const Workload& workload_;
  Options options_;
  Recorder recorder_;
  std::uint32_t persons_;
  fs::path logDir_;
  fs::path cadjPath_;
  fs::path spillDir_;
  std::optional<Pin> pin_;
  std::uint64_t inputSeed_ = 0;  ///< of the current pass
  std::optional<pop::SyntheticPopulation> population_;
  std::optional<std::uint64_t> referenceDigest_;
  /// Outputs of the run's first input, kept in the result record for
  /// pinning.
  std::uint64_t lastDigest_ = 0;
  std::uint64_t lastInfections_ = 0;

  std::size_t setupRepeats_ = 0;
  bool isolated_ = false;  ///< true in a forked iteration process
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::set<std::string> failedPhases_;  ///< of the current pass
};

/// Runs one phase: resets the peak-RSS mark, times the call inside a span,
/// and reads the phase's peak. A throw counts the phase as failed and
/// returns false, since later phases would read its missing output.
bool Bench::phase(const std::string& name, Sample& sample,
                  const std::function<void()>& call) {
  resetPeakRss();
  ++attempted_;
  Span span(recorder_, name);
  try {
    call();
  } catch (const std::exception& error) {
    span.close();
    fail(name, std::string("threw: ") + error.what());
    return false;
  }
  const double seconds = span.close();
  // Only an iteration's own process has the mp workers as its children;
  // in the parent they would be the iteration processes themselves.
  const double peak = std::max(peakRssMib(),
                               isolated_ ? childrenPeakRssMib() : 0.0);
  sample.totalSeconds += seconds;
  sample.peakRssMib = std::max(sample.peakRssMib, peak);
  sample.layer[name + "_s"] = seconds;
  sample.layer["peak." + name] = peak;
  return true;
}

/// Counts a failed output check; a phase fails at most once per pass.
void Bench::fail(const std::string& phaseName, const std::string& why) {
  std::cerr << "e2e_bench: " << workload_.name << " " << phaseName << ": "
            << why << "\n";
  if (failedPhases_.insert(phaseName).second) {
    ++failed_;
  }
}

net::SynthesisConfig Bench::synthesisConfig(bool messagePassing) const {
  net::SynthesisConfig config;
  config.windowStart = 0;
  config.windowEnd = kWindowHours;
  config.workers = kCores;
  config.spillDir = spillDir_;
  if (messagePassing) {
    config.backend = net::SynthesisBackend::kMessagePassing;
    config.transport = net::MpTransport::kProcess;
    config.memoryBudgetBytes = memoryBudget();
    // Eight row-range shards over the four merge owners; the automatic
    // width (2^18 rows / owners) would leave a population this size in
    // one shard.
    config.mergeRowsPerShard = std::max<std::uint32_t>(1, persons_ / 8);
  }
  return config;
}

/// Runs the ABM into a fresh log directory. Returns false if it threw.
bool Bench::simulate(Sample& sample, const std::string& phaseName) {
  fs::remove_all(logDir_);
  fs::create_directories(logDir_);
  abm::ModelConfig config;
  config.logDirectory = logDir_;
  config.rankCount = static_cast<int>(kCores);
  config.weeks = 1;
  config.scheduleSeed = 7 + inputSeed_;
  abm::ModelStats stats;
  abm::DiseaseStats epidemic;
  const bool ok = phase(phaseName, sample, [&] {
    if (workload_.disease) {
      abm::DiseaseConfig disease;
      disease.seed = 99 + inputSeed_;
      stats = abm::runModel(*population_, config, disease, epidemic);
    } else {
      stats = abm::runModel(*population_, config);
    }
  });
  if (!ok) {
    return false;
  }
  const double seconds = sample.layer[phaseName + "_s"];
  sample.layer["abm.run_s"] = seconds;
  sample.layer["abm.peak_rss_mib"] = sample.layer["peak." + phaseName];
  sample.layer["abm.agent_hours_per_s"] =
      ratio(static_cast<double>(stats.agentHours), seconds);
  sample.layer["abm.events"] = static_cast<double>(stats.eventsLogged);
  sample.layer["abm.hours_active"] = static_cast<double>(stats.hoursActive);
  sample.layer["abm.peak_queue_depth"] =
      static_cast<double>(stats.peakQueueDepth);
  sample.layer["abm.migration_fraction"] = stats.migrationFraction();
  sample.layer["abm.infections"] = static_cast<double>(epidemic.infections);
  if (firstInput()) {
    lastInfections_ = epidemic.infections;
  }
  sample.layer["elog.bytes_written"] =
      static_cast<double>(directoryBytes(logDir_));

  const std::uint64_t hours = kWindowHours;
  if (stats.simulatedHours != hours || stats.eventsLogged == 0 ||
      elog::listLogFiles(logDir_).size() != kCores) {
    fail(phaseName, "expected " + std::to_string(hours) + " h and " +
                        std::to_string(kCores) + " non-empty rank logs");
  }
  if (workload_.disease && pin() && pin()->infections != 0 &&
      epidemic.infections != pin()->infections) {
    fail(phaseName, "infections " + std::to_string(epidemic.infections) +
                        " != pinned " + std::to_string(pin()->infections));
  }
  return true;
}

Sample Bench::setup() {
  Sample sample;
  inputSeed_ = options_.seed * kInputsPerRun;
  Span span(recorder_, "setup");
  population_.reset();
  std::optional<PinnedCpu> pinned(std::in_place, setupRepeats_++);
  const bool ok = phase("pop.generate", sample, [&] {
    pop::PopulationConfig config;
    config.personCount = persons_;
    // One fixed city per workload, as the paper simulates one Chicago:
    // --seed draws the schedules and the epidemic, not the population,
    // whose few large schools and workplaces would otherwise swing the
    // network's size from seed to seed.
    config.seed = 20170517;
    population_.emplace(pop::SyntheticPopulation::generate(config));
  });
  if (ok && population_->persons().size() != persons_) {
    fail("pop.generate", "population size " +
                             std::to_string(population_->persons().size()));
  }
  pinned.reset();  // the ABM's rank threads inherit this thread's CPUs
  if (ok && workload_.simulateInSetup) {
    simulate(sample, "setup.simulate");
    population_.reset();  // the measured phases read only the logs
  }
  return sample;
}

/// mp_spill's reference: the shared-memory synthesis of the same logs,
/// which the mp output must match byte for byte.
void Bench::referenceDigest() {
  Span span(recorder_, "check.reference");
  const fs::path path = options_.work / "reference.cadj";
  try {
    net::NetworkSynthesizer synthesizer(synthesisConfig(false));
    sparse::saveAdjacency(
        synthesizer.synthesizeAdjacency(elog::listLogFiles(logDir_)), path);
    referenceDigest_ = fileDigest(path);
  } catch (const std::exception& error) {
    fail("check.reference", std::string("threw: ") + error.what());
  }
  fs::remove(path);
}

void Bench::recordSynthesis(Sample& sample,
                            const net::SynthesisReport& report) {
  auto& layer = sample.layer;
  layer["elog.decode_s"] = report.loadSeconds;
  layer["elog.decode_exposed_s"] = report.loadExposedSeconds;
  layer["elog.entries_read"] = static_cast<double>(report.logEntriesLoaded);
  layer["net.subset_s"] = report.subsetSeconds;
  layer["net.collocation_s"] = report.collocationSeconds;
  layer["net.partition_s"] = report.partitionSeconds;
  layer["net.adjacency_s"] = report.adjacencySeconds;
  layer["net.reduce_s"] = report.reduceSeconds;
  layer["net.reduce_critical_s"] = report.reduceCriticalSeconds;
  layer["net.report_gap_s"] =
      layer["net.synthesize_s"] - report.totalSeconds;
  layer["net.partition_imbalance"] = report.partitionImbalance;
  layer["net.busy_imbalance"] = report.adjacencyBusyImbalance;
  layer["net.peak_rss_mib"] = layer["peak.net.synthesize"];
  layer["sparse.kernel_updates"] =
      static_cast<double>(report.kernelPairHourUpdates);
  layer["sparse.kernel_emits"] = static_cast<double>(report.kernelGlobalEmits);
  layer["sparse.emit_ratio"] =
      ratio(static_cast<double>(report.kernelGlobalEmits),
            static_cast<double>(report.kernelPairHourUpdates));
  layer["sparse.spill_runs"] = static_cast<double>(report.spillRunsWritten);
  layer["sparse.spill_bytes"] = static_cast<double>(report.spilledBytes);
  layer["sparse.spill_compactions"] =
      static_cast<double>(report.spillCompactions);
  layer["sparse.peak_accumulator_bytes"] =
      static_cast<double>(report.peakAccumulatorBytes);
  layer["sparse.merge_cpu_s"] = report.mergeSeconds;
  layer["sparse.merge_critical_s"] = report.mergeCriticalSeconds;
  layer["runtime.bytes_scattered"] = static_cast<double>(report.bytesScattered);
  layer["runtime.bytes_returned"] = static_cast<double>(report.bytesReturned);
  layer["runtime.command_retries"] = static_cast<double>(report.commandRetries);
  layer["runtime.workers_respawned"] =
      static_cast<double>(report.workersRespawned);
  layer["runtime.ranks_lost"] = static_cast<double>(report.ranksLost);
}

Sample Bench::iteration(bool traced, std::size_t index) {
  Sample sample;
  // Logs made in set-up are always the run's first input.
  inputSeed_ = options_.seed * kInputsPerRun +
               (workload_.simulateInSetup ? 0 : index % kInputsPerRun);
  sample.traced = traced;
  failedPhases_.clear();
  recorder_.setDetail(traced);
  // Untraced iterations record only this span, so their time shows as
  // self time under their own name.
  Span span(recorder_, traced ? "iteration" : "iteration.untraced");
  auto& layer = sample.layer;

  if (!workload_.simulateInSetup && !simulate(sample, "abm.run")) {
    return sample;
  }

  // Synthesis, the CADJ write and teardown, as `chisim synthesize`.
  const auto files = elog::listLogFiles(logDir_);
  fs::remove(cadjPath_);
  fs::remove_all(spillDir_);
  fs::create_directories(spillDir_);
  std::optional<net::NetworkSynthesizer> synthesizer;
  std::optional<sparse::SymmetricAdjacency> adjacency;
  std::uint64_t edges = 0;
  const bool synthesized = phase("net.synthesize", sample, [&] {
    synthesizer.emplace(synthesisConfig(workload_.messagePassing));
    if (workload_.messagePassing) {
      edges = synthesizer->synthesizeToFile(files, cadjPath_);
    } else {
      adjacency.emplace(synthesizer->synthesizeAdjacency(files));
      edges = adjacency->edgeCount();
    }
  });
  if (!synthesized) {
    return sample;
  }
  const net::SynthesisReport report = synthesizer->report();
  recordSynthesis(sample, report);
  if (report.edges != edges) {
    fail("net.synthesize", "report edges " + std::to_string(report.edges) +
                               " != returned " + std::to_string(edges));
  }
  if (adjacency && !phase("sparse.cadj_write", sample, [&] {
        sparse::saveAdjacency(*adjacency, cadjPath_);
      })) {
    return sample;
  }
  if (!phase("net.teardown", sample, [&] {
        adjacency.reset();
        synthesizer.reset();
      })) {
    return sample;
  }
  layer["runtime.worker_peak_rss_mib"] =
      workload_.messagePassing ? childrenPeakRssMib() : 0.0;

  try {
    Span check(recorder_, "check.cadj");
    layer["sparse.cadj_bytes"] =
        static_cast<double>(fs::file_size(cadjPath_));
    const std::uint64_t digest = fileDigest(cadjPath_);
    if (firstInput()) {
      lastDigest_ = digest;
    }
    if (pin() && pin()->cadjDigest != 0 && digest != pin()->cadjDigest) {
      fail("net.synthesize", "CADJ digest " + hex(digest) + " != pinned " +
                                 hex(pin()->cadjDigest));
    }
    if (workload_.messagePassing) {
      if (!referenceDigest_ || digest != *referenceDigest_) {
        fail("net.synthesize", "mp CADJ differs from the shared-memory CADJ");
      }
      if (report.spillRunsWritten == 0) {
        fail("net.synthesize", "no spill runs under the memory budget");
      }
      if (report.peakAccumulatorBytes > memoryBudget()) {
        fail("net.synthesize", "peak accumulator " +
                                   std::to_string(report.peakAccumulatorBytes) +
                                   " B over the budget");
      }
    }
  } catch (const std::exception& error) {
    fail("sparse.cadj_write", std::string("unreadable CADJ: ") + error.what());
  }
  if (!workload_.analyze) {
    return sample;
  }

  // Analysis, as `chisim analyze --clustering`.
  std::vector<sparse::AdjacencyTriplet> triplets;
  if (!phase("sparse.cadj_read", sample,
             [&] { triplets = sparse::loadTriplets(cadjPath_); })) {
    return sample;
  }
  if (triplets.size() != edges) {
    fail("sparse.cadj_read", "read back " + std::to_string(triplets.size()) +
                                 " edges, synthesized " +
                                 std::to_string(edges));
  }
  graph::Graph network;
  std::vector<std::uint64_t> degrees;
  graph::Components components;
  std::vector<double> coefficients;
  const bool analysed =
      phase("graph.build", sample,
            [&] { network = graph::Graph::fromTriplets(triplets); }) &&
      phase("graph.degree", sample,
            [&] { degrees = graph::degreeSequence(network); }) &&
      phase("stats.fit", sample,
            [&] {
              const auto distribution = stats::frequencyDistribution(degrees);
              const auto fits = {stats::fitPowerLaw(distribution),
                                 stats::fitTruncatedPowerLaw(distribution),
                                 stats::fitExponential(distribution)};
              for (const stats::FitResult& fit : fits) {
                if (!std::isfinite(fit.sseLog)) {
                  throw std::runtime_error("non-finite fit residual");
                }
              }
            }) &&
      phase("graph.components", sample,
            [&] { components = graph::connectedComponents(network); }) &&
      phase("graph.clustering", sample, [&] {
        coefficients = graph::localClusteringCoefficients(network);
      });
  if (!analysed) {
    return sample;
  }
  double graphPeak = 0.0;
  for (const char* name : {"sparse.cadj_read", "graph.build", "graph.degree",
                           "stats.fit", "graph.components",
                           "graph.clustering"}) {
    graphPeak = std::max(graphPeak, layer["peak." + std::string(name)]);
  }
  layer["graph.peak_rss_mib"] = graphPeak;

  Span check(recorder_, "check.graph");
  if (network.edgeCount() != edges || degrees.size() != network.vertexCount() ||
      coefficients.size() != network.vertexCount()) {
    fail("graph.build", "CSR has " + std::to_string(network.edgeCount()) +
                            " edges for " + std::to_string(edges) +
                            " triplets");
  }
  std::uint64_t componentVertices = 0;
  for (const std::uint64_t size : components.sizes) {
    componentVertices += size;
  }
  if (componentVertices != network.vertexCount()) {
    fail("graph.components", "components do not partition the vertices");
  }
  // Wedges from the degree sequence; triangles as Σ cᵥ·wedgesᵥ / 3, which
  // must be integral per vertex and divisible by three in total.
  std::uint64_t wedges = 0;
  std::uint64_t closed = 0;
  bool integral = true;
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    const std::uint64_t vertexWedges = degrees[v] * (degrees[v] - 1) / 2;
    wedges += degrees[v] > 0 ? vertexWedges : 0;
    if (v < coefficients.size()) {
      const double corner =
          coefficients[v] * static_cast<double>(vertexWedges);
      const double rounded = std::round(corner);
      integral = integral && std::abs(corner - rounded) < 1e-6;
      closed += static_cast<std::uint64_t>(rounded);
    }
  }
  if (!integral || closed % 3 != 0) {
    fail("graph.clustering", "triangle count is not integral");
  }
  layer["graph.vertices"] = static_cast<double>(network.vertexCount());
  layer["graph.edges"] = static_cast<double>(network.edgeCount());
  layer["graph.wedges"] = static_cast<double>(wedges);
  layer["graph.triangles"] = static_cast<double>(closed / 3);
  return sample;
}

void writeAll(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t wrote = ::write(fd, text.data() + done, text.size() - done);
    if (wrote < 0 && errno == EINTR) {
      continue;
    }
    if (wrote <= 0) {
      return;
    }
    done += static_cast<std::size_t>(wrote);
  }
}

std::string readAll(int fd) {
  std::string text;
  char buffer[1 << 16];
  while (true) {
    const ssize_t got = ::read(fd, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      return text;
    }
    text.append(buffer, static_cast<std::size_t>(got));
  }
}

/// Runs one iteration in a forked child, the way the CLI runs each step in
/// a process of its own. Every iteration then starts from the same memory
/// state, so its peak RSS and times do not drift with what earlier
/// iterations left in the allocator and the thread-stack cache. The child
/// sends its sample, spans and tallies back over a pipe.
Sample Bench::isolatedIteration(bool traced, std::size_t index) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "pipe");
  }
  std::cout.flush();
  const std::size_t firstSpan = recorder_.spanCount();
  const pid_t child = ::fork();
  if (child < 0) {
    throw std::system_error(errno, std::generic_category(), "fork");
  }
  if (child == 0) {
    isolated_ = true;
    ::close(fds[0]);
    int code = 0;
    std::ostringstream out;
    out.precision(17);
    try {
      const Sample sample = iteration(traced, index);
      out << "sample " << sample.traced << ' ' << sample.totalSeconds << ' '
          << sample.peakRssMib << '\n';
      for (const auto& [name, value] : sample.layer) {
        out << "layer " << name << ' ' << value << '\n';
      }
      recorder_.exportSpans(firstSpan, out);
      out << "tally " << attempted_ << ' ' << failed_ << ' ' << lastDigest_
          << ' ' << lastInfections_ << '\n';
    } catch (const std::exception& error) {
      std::cerr << "e2e_bench: iteration threw: " << error.what() << "\n";
      code = 1;
    }
    writeAll(fds[1], out.str());
    ::_exit(code);
  }
  ::close(fds[1]);
  std::istringstream in(readAll(fds[0]));
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }

  Sample sample;
  bool complete = false;
  std::string kind;
  while (in >> kind) {
    if (kind == "sample") {
      in >> sample.traced >> sample.totalSeconds >> sample.peakRssMib;
    } else if (kind == "layer") {
      std::string name;
      in >> name;
      in >> sample.layer[name];
    } else if (kind == "span") {
      SpanRecord span;
      in >> span.name >> span.start >> span.end >> span.parent;
      recorder_.importSpan(std::move(span));
    } else if (kind == "tally") {
      in >> attempted_ >> failed_ >> lastDigest_ >> lastInfections_;
      complete = true;
    }
  }
  if (!complete || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    ++attempted_;
    failedPhases_.clear();
    fail("iteration", "child process ended without a result");
  }
  return sample;
}

void Bench::measureSteal(std::vector<Sample>& samples,
                         const std::function<void()>& pass) const {
  const std::size_t first = samples.size();
  const double stolen = stolenSeconds();
  const double start = recorder_.now();
  pass();
  const double share =
      ratio(stolenSeconds() - stolen,
            (recorder_.now() - start) * std::thread::hardware_concurrency());
  for (std::size_t i = first; i < samples.size(); ++i) {
    samples[i].stealShare = share;
  }
}

/// The samples that lost little CPU time to the host, if there are at least
/// `enough` of them; otherwise all samples.
std::vector<Sample> steady(const std::vector<Sample>& samples,
                           std::size_t enough) {
  std::vector<Sample> kept;
  std::copy_if(samples.begin(), samples.end(), std::back_inserter(kept),
               [](const Sample& s) { return s.stealShare <= kMaxStealShare; });
  return kept.size() >= enough ? kept : samples;
}

int Bench::run() {
  fs::remove_all(options_.work);
  fs::create_directories(options_.work);
  recorder_.setDetail(options_.trace);

  // Set-up rounds; the median over all their repeats is setup_s.
  std::vector<Sample> setups;
  const auto setUp = [&] {
    measureSteal(setups, [&] {
      double spent = 0.0;
      for (int i = 0; i < kSetupMaxRepeats && spent < kSetupRoundSeconds;
           ++i) {
        failedPhases_.clear();
        setups.push_back(setup());
        spent += setups.back().totalSeconds;
        if (!failedPhases_.empty() || options_.smoke) {
          break;
        }
      }
    });
    return failedPhases_.empty();
  };
  bool setupOk = setUp();
  if (setupOk && workload_.messagePassing) {
    referenceDigest();
  }

  // The measured loop. Traced runs record detail on every other
  // iteration, so one run gives both traced and untraced times.
  std::vector<Sample> samples;
  const std::size_t minIterations = options_.smoke ? 1 : 3;
  // An iteration starts only if one more, as long as the last one with its
  // set-up round, still ends within --seconds.
  const double loopStart = recorder_.now();
  double roundSeconds = 0.0;
  while (setupOk && failed_ == 0) {
    const double roundStart = recorder_.now();
    if (samples.size() >= minIterations &&
        roundStart - loopStart + roundSeconds > options_.seconds) {
      break;
    }
    measureSteal(samples, [&] {
      samples.push_back(
          isolatedIteration(options_.trace && samples.size() % 2 == 0,
                            samples.size()));
    });
    setupOk = setUp();
    roundSeconds = recorder_.now() - roundStart;
    if (samples.back().traced) {
      for (const auto& [name, value] : samples.back().layer) {
        if (name.rfind("peak.", 0) != 0) {
          recorder_.counter(name, value);
        }
      }
    }
  }
  recorder_.setDetail(false);
  {
    Span cleanup(recorder_, "cleanup");
    population_.reset();
    fs::remove_all(options_.work);
  }
  const double wall = recorder_.now();

  // The result record keeps every sample. The metrics are medians over
  // the samples that lost little CPU time to the host: set-up over its
  // repeats, everything else over iterations (per-layer values over the
  // traced ones).
  std::map<std::string, std::vector<double>> record;
  for (const Sample& sample : setups) {
    record["setup_s"].push_back(sample.totalSeconds);
  }
  for (const Sample& sample : samples) {
    record["total_s"].push_back(sample.totalSeconds);
    record["peak_rss_mib"].push_back(sample.peakRssMib);
    record["steal_share"].push_back(sample.stealShare);
  }
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::vector<double>> layerSeries;
  for (const Sample& sample : steady(setups, minIterations)) {
    series["setup_s"].push_back(sample.totalSeconds);
    for (const auto& [name, value] : sample.layer) {
      layerSeries[name].push_back(value);
    }
  }
  std::map<std::string, std::vector<double>> iterationLayers;
  for (const Sample& sample : steady(samples, minIterations)) {
    series["total_s"].push_back(sample.totalSeconds);
    series["peak_rss_mib"].push_back(sample.peakRssMib);
    (sample.traced ? series["trace.total_s"]
                   : series["trace.untraced_total_s"])
        .push_back(sample.totalSeconds);
    if (sample.traced) {
      for (const auto& [name, value] : sample.layer) {
        iterationLayers[name].push_back(value);
      }
    }
  }
  for (auto& [name, values] : iterationLayers) {
    layerSeries[name] = std::move(values);  // iteration values win
  }

  std::map<std::string, double> metrics;
  if (options_.trace) {
    for (const MetricDef& def : kPerLayer) {
      const auto it = layerSeries.find(std::string(def.name));
      metrics[std::string(def.name)] =
          it == layerSeries.end() ? 0.0 : median(it->second);
    }
    metrics["trace.coverage"] = recorder_.coverage(wall);
    metrics["trace.total_s"] = median(series["trace.total_s"]);
    metrics["trace.untraced_total_s"] =
        median(series["trace.untraced_total_s"]);
    metrics["trace.overhead_s"] =
        metrics["trace.total_s"] - metrics["trace.untraced_total_s"];
  } else {
    for (const MetricDef& def : kEndToEnd) {
      metrics[std::string(def.name)] = median(series[std::string(def.name)]);
    }
  }

  const bool correct = setupOk && failed_ == 0 && !samples.empty();
  writeResult(metrics, record, correct);

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
  const char* separator = "";
  for (const auto& defs : {std::span<const MetricDef>(kEndToEnd),
                           std::span<const MetricDef>(kPerLayer)}) {
    for (const MetricDef& def : defs) {
      const auto it = metrics.find(std::string(def.name));
      if (it == metrics.end()) {
        continue;
      }
      std::cout << separator << jsonString(def.name)
                << ": {\"value\": " << jsonNumber(it->second)
                << ", \"unit\": " << jsonString(def.unit) << "}";
      separator = ", ";
    }
  }
  std::cout << "}}" << std::endl;
  return 0;
}

/// Writes the full record of the run next to the trace: fingerprint,
/// metrics, every sample, self time per span, and the error rate.
void Bench::writeResult(
    const std::map<std::string, double>& metrics,
    const std::map<std::string, std::vector<double>>& samples,
    bool correct) const {
  fs::create_directories(options_.out);
  const std::string stem = std::string(workload_.name) + "_seed" +
                           std::to_string(options_.seed) + "_trace" +
                           (options_.trace ? "1" : "0") +
                           (options_.smoke ? "_smoke" : "");
  std::ostringstream fingerprint;
  fingerprint << "{\"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu_model\": " << jsonString(cpuModel())
              << ", \"compiler\": " << jsonString(E2E_COMPILER)
              << ", \"build_type\": " << jsonString(E2E_BUILD_TYPE)
              << ", \"commit\": " << jsonString(options_.commit)
              << ", \"seed\": " << options_.seed << ", \"scale\": "
              << jsonString(options_.smoke ? "smoke" : "full")
              << ", \"workload\": " << jsonString(workload_.name) << "}";
  // The fingerprint also goes to stdout, ahead of the result line.
  std::cout << "{\"fingerprint\": " << fingerprint.str() << "}\n";

  std::ofstream out(options_.out / (stem + ".json"));
  out << "{\"fingerprint\": " << fingerprint.str()
      << ",\n \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"cadj_digest\": " << jsonString(hex(lastDigest_))
      << ", \"infections\": " << lastInfections_ << ", \"error_rate\": "
      << jsonNumber(ratio(static_cast<double>(failed_),
                          static_cast<double>(attempted_)))
      << ",\n \"metrics\": {";
  const char* separator = "";
  for (const auto& [name, value] : metrics) {
    out << separator << jsonString(name) << ": " << jsonNumber(value);
    separator = ", ";
  }
  out << "},\n \"samples\": {";
  separator = "";
  for (const auto& [name, values] : samples) {
    out << separator << jsonString(name) << ": [";
    const char* comma = "";
    for (const double value : values) {
      out << comma << jsonNumber(value);
      comma = ", ";
    }
    out << "]";
    separator = ", ";
  }
  out << "},\n \"self_seconds\": {";
  separator = "";
  for (const auto& [name, seconds] : recorder_.selfSeconds()) {
    out << separator << jsonString(name) << ": " << jsonNumber(seconds);
    separator = ", ";
  }
  out << "}}\n";
  if (options_.trace) {
    recorder_.writeChromeTrace(options_.out / (stem + ".trace.json"));
  }
}

Options parseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "smoke") {
        throw std::invalid_argument("--scale expects full or smoke");
      }
      options.smoke = value == "smoke";
    } else if (key == "--work") {
      options.work = value;
    } else if (key == "--out") {
      options.out = value;
    } else if (key == "--commit") {
      options.commit = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (options.work.empty() || options.out.empty()) {
    throw std::invalid_argument("--work and --out are required");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  // The mp workload's process transport re-enters this binary as its
  // worker processes.
  if (const auto workerExit = net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  try {
    const Options options = parseOptions(argc, argv);
    for (const Workload& workload : kWorkloads) {
      if (workload.name == options.workload) {
        return Bench(workload, options, origin).run();
      }
    }
    std::cerr << "e2e_bench: unknown workload '" << options.workload << "'\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "e2e_bench: " << error.what() << "\n";
    return 2;
  }
}
