/// SYNTH-SCALE — network synthesis pipeline scaling and batching (§IV-V).
///
/// Paper workflow reproduced: synthesis ran as batch jobs of 16 files on a
/// 64-process cluster (~30 min/batch at 2.9 M persons); batches are
/// independent and their adjacency matrices sum to the final network. This
/// bench sweeps the worker count, reports the per-stage breakdown, and
/// verifies batch additivity.

#include <algorithm>
#include <optional>

#include "bench_common.hpp"
#include "chisimnet/runtime/fault.hpp"

int main() {
  using namespace chisimnet;
  using namespace chisimnet::bench;

  printHeader("SYNTH-SCALE pipeline scaling",
              "§V: 16-file batches on 64 processes, ~30 min/batch @2.9M");

  const auto population = makePopulation(scaledPersons(15'000));
  const SimulatedLogs logs = simulate(population, 16);
  std::cout << "log files: " << logs.files.size() << ", "
            << fmtCount(logs.stats.eventsLogged) << " entries\n\n";

  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;

  JsonReport json("synthesis_scaling");
  json.put("bench", "synthesis_scaling");
  json.put("persons", static_cast<std::uint64_t>(population.persons().size()));
  json.put("log_files", static_cast<std::uint64_t>(logs.files.size()));

  std::cout << "worker sweep (single-core host: expect flat wall time; the "
               "decomposition itself is what scales on a cluster):\n";
  std::cout << "  workers  total(s)  load(s)  weigh(s)   adjacency(s)  "
               "reduce(s)  busy-imbalance\n";
  std::uint64_t referenceEdges = 0;
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    config.workers = workers;
    net::NetworkSynthesizer synthesizer(config);
    const auto adjacency = synthesizer.synthesizeAdjacency(logs.files);
    const auto& report = synthesizer.report();
    if (workers == 1) {
      referenceEdges = adjacency.edgeCount();
    } else if (adjacency.edgeCount() != referenceEdges) {
      std::cout << "ERROR: result depends on worker count!\n";
      return 1;
    }
    std::cout << "  " << workers << "        " << fmt(report.totalSeconds, 2)
              << "      " << fmt(report.loadSeconds, 2) << "     "
              << fmt(report.collocationSeconds, 2) << "       "
              << fmt(report.adjacencySeconds, 2) << "          "
              << fmt(report.reduceSeconds, 2) << "       "
              << fmt(report.adjacencyBusyImbalance, 2) << "\n";
    if (workers == 4) {
      // Per-stage breakdown of the representative 4-worker run for CI.
      json.put("workers", static_cast<std::uint64_t>(workers));
      json.put("edges", report.edges);
      json.put("load_seconds", report.loadSeconds);
      json.put("subset_seconds", report.subsetSeconds);
      json.put("weigh_seconds", report.collocationSeconds);
      json.put("partition_seconds", report.partitionSeconds);
      json.put("adjacency_seconds", report.adjacencySeconds);
      json.put("reduce_seconds", report.reduceSeconds);
      json.put("total_seconds", report.totalSeconds);
      json.put("edges_per_sec", static_cast<double>(report.edges) /
                                    std::max(report.totalSeconds, 1e-12));
      json.put("kernel_dense_places", report.kernelDensePlaces);
      json.put("kernel_hash_places", report.kernelHashPlaces);
      json.put("kernel_pair_hour_updates", report.kernelPairHourUpdates);
      json.put("kernel_global_emits", report.kernelGlobalEmits);
    }
  }

  // Backend axis: the same stage driver through both dispatch substrates —
  // SNOW-style shared-memory workers vs Rmpi-style message-passing ranks
  // (paper §IV.A ran both; message passing pays serialization for the
  // ability to leave one address space).
  std::cout << "\nbackend comparison (4 workers, same logs):\n"
            << "  backend  total(s)  weigh(s)   adjacency(s)  "
               "scattered(MiB)  returned(MiB)  busy-imbalance\n";
  bool backendsAgree = true;
  {
    config.workers = 4;
    std::vector<sparse::AdjacencyTriplet> sharedTriplets;
    for (const net::SynthesisBackend backend :
         {net::SynthesisBackend::kSharedMemory,
          net::SynthesisBackend::kMessagePassing}) {
      config.backend = backend;
      net::NetworkSynthesizer synthesizer(config);
      const auto adjacency = synthesizer.synthesizeAdjacency(logs.files);
      const auto& report = synthesizer.report();
      std::string name = net::backendName(backend);
      name.resize(6, ' ');
      std::cout << "  " << name << "  " << fmt(report.totalSeconds, 2)
                << "      "
                << fmt(report.collocationSeconds, 2) << "       "
                << fmt(report.adjacencySeconds, 2) << "          "
                << fmt(static_cast<double>(report.bytesScattered) /
                           (1024.0 * 1024.0), 1)
                << "             "
                << fmt(static_cast<double>(report.bytesReturned) /
                           (1024.0 * 1024.0), 1)
                << "            " << fmt(report.adjacencyBusyImbalance, 2)
                << "\n";
      if (backend == net::SynthesisBackend::kSharedMemory) {
        sharedTriplets = adjacency.toTriplets();
      } else {
        backendsAgree = adjacency.toTriplets() == sharedTriplets;
      }
    }
    config.backend = net::SynthesisBackend::kSharedMemory;
  }
  printRow("shared vs message-passing edges", "bit-identical adjacency",
           backendsAgree ? "EXACT" : "MISMATCH");

  // Batch additivity over files (the paper's independent batch jobs).
  config.workers = 4;
  config.filesPerBatch = 0;
  net::NetworkSynthesizer whole(config);
  const auto wholeAdjacency = whole.synthesizeAdjacency(logs.files);

  // Time-slice batching: the paper also slices by time window and sums.
  net::SynthesisConfig half1 = config;
  half1.windowEnd = pop::kHoursPerWeek / 2;
  net::SynthesisConfig half2 = config;
  half2.windowStart = pop::kHoursPerWeek / 2;
  half2.windowEnd = pop::kHoursPerWeek;
  net::NetworkSynthesizer a(half1);
  net::NetworkSynthesizer b(half2);
  auto summed = a.synthesizeAdjacency(logs.files);
  summed.merge(b.synthesizeAdjacency(logs.files));
  const bool additive = summed.toTriplets() == wholeAdjacency.toTriplets();
  printRow("batch additivity (2 half-week slices)",
           "adjacency matrices simply sum", additive ? "EXACT" : "MISMATCH");

  // Two-stage pipeline: background prefetch decodes batch k+1 while batch k
  // is in stages 2-6, so only the first batch's decode stays exposed on the
  // compute critical path.
  std::cout << "\nbatched load pipeline (16 files, 1 per batch -> 16 batches):\n";
  net::SynthesisConfig pipelined = config;
  pipelined.filesPerBatch = 1;
  net::NetworkSynthesizer prefetched(pipelined);
  prefetched.synthesizeAdjacency(logs.files);
  const auto& prefetchReport = prefetched.report();
  const double exposedFraction =
      prefetchReport.loadExposedSeconds /
      std::max(prefetchReport.loadSeconds, 1e-12);
  std::cout << "  prefetch load:  " << fmt(prefetchReport.loadSeconds, 3)
            << " s decoded, " << fmt(prefetchReport.loadExposedSeconds, 3)
            << " s exposed (" << fmt(100.0 * exposedFraction, 1)
            << "% of decode; buffer mean/peak "
            << fmt(prefetchReport.prefetchMeanOccupancy, 2) << "/"
            << prefetchReport.prefetchPeakOccupancy << "; total "
            << fmt(prefetchReport.totalSeconds, 2) << " s)\n";
  printRow("exposed load with prefetch", "< 25% of decode time",
           fmt(100.0 * exposedFraction, 1) + "%",
           exposedFraction < 0.25 ? "PASS" : "FAIL");

  // Idle fault-hook cost: the injection sites are compiled in permanently
  // (never a build flavor), so when no fault plan is active a whole run
  // must cost the same to within noise. Compare min-of-3 wall time with no
  // plan installed against an installed-but-empty plan (the strictly more
  // expensive state: every site takes the plan's lock and map lookup).
  net::SynthesisConfig hookConfig = config;
  hookConfig.filesPerBatch = 2;  // 8 batches -> plenty of site hits
  const auto minOf3Seconds = [&](bool armed) {
    chisimnet::runtime::FaultPlan empty;
    std::optional<chisimnet::runtime::fault::ScopedFaultPlan> scoped;
    if (armed) {
      scoped.emplace(empty);
    }
    double best = 1e300;
    for (int repeat = 0; repeat < 3; ++repeat) {
      net::NetworkSynthesizer synthesizer(hookConfig);
      synthesizer.synthesizeAdjacency(logs.files);
      best = std::min(best, synthesizer.report().totalSeconds);
    }
    return best;
  };
  const double idleSeconds = minOf3Seconds(false);
  const double armedSeconds = minOf3Seconds(true);
  const double hookOverhead = armedSeconds / std::max(idleSeconds, 1e-12) - 1.0;
  printRow("idle fault-hook overhead",
           "< 2% wall time (sites always compiled in)",
           fmt(100.0 * hookOverhead, 2) + "%",
           hookOverhead < 0.02 ? "PASS" : "FAIL");

  // Throughput extrapolation row.
  const double entriesPerSecond =
      static_cast<double>(whole.report().logEntriesLoaded) /
      whole.report().totalSeconds;
  const double paperEntriesWeek = kPaperPersons * kPaperChangesPerDay * 7.0;
  printRow("single-core time @2.9M, 1 week",
           "1-1.5 h on 1024 processes (64x16)",
           fmt(paperEntriesWeek / entriesPerSecond / 3600.0, 1) + " h",
           "extrapolated at measured entries/s; a cluster divides this");

  json.put("entries_per_sec", entriesPerSecond);
  json.put("backends_agree", backendsAgree);
  json.put("batch_additive", additive);
  std::cout << "wrote " << json.write().string() << "\n";

  return additive && backendsAgree && exposedFraction < 0.25 &&
                 hookOverhead < 0.02
             ? 0
             : 1;
}
