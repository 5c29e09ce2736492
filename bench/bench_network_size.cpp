/// NET-SIZE — full collocation network size and memory (paper §V), plus
/// the memory-bounded synthesis sweep.
///
/// Paper numbers: the complete one-week network for Chicago has 2,927,761
/// vertices (persons) and 830,328,649 edges (collocations) and takes ~10 GB
/// of memory in R. This bench reports the synthesized network's size, the
/// bytes-per-edge of our CSR + triplet storage, and then re-synthesizes the
/// same logs under descending --memory-budget caps: for each cap it reports
/// edges/sec, spill volume, and the peak accumulator footprint, and FAILS
/// (non-zero exit) if any capped run's peak exceeds its cap or drifts from
/// the unbounded result. At CHISIMNET_SCALE high enough for 2.9 M persons
/// this is the paper-scale acceptance run; CHISIMNET_MEMORY_BUDGET (bytes)
/// pins a single cap — the nightly job uses it to assert a 12 GB ceiling.

#include <sys/resource.h>

#include <algorithm>
#include <limits>

#include "bench_common.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"

namespace {

double maxRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main() {
  using namespace chisimnet;
  using namespace chisimnet::bench;

  printHeader("NET-SIZE network size & memory",
              "§V: 2,927,761 vertices / 830,328,649 edges / ~10 GB in R");

  const auto population = makePopulation(scaledPersons(30'000));
  const SimulatedLogs logs = simulate(population);
  JsonReport json("network_size");
  json.put("persons", std::uint64_t{population.persons().size()});

  // ---- unbounded baseline: the in-memory accumulator and the CSR ----
  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  config.workers = 8;
  net::NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(logs.files);
  const graph::Graph network = graph::Graph::fromTriplets(adjacency.toTriplets());
  const double unboundedSeconds = synthesizer.report().totalSeconds;

  const double persons = static_cast<double>(population.persons().size());
  const double vertices = static_cast<double>(network.vertexCount());
  const double edges = static_cast<double>(network.edgeCount());

  printRow("vertices", fmtCount(kPaperVertices) + " @2.9M",
           fmtCount(network.vertexCount()));
  printRow("edges", fmtCount(kPaperEdges) + " @2.9M",
           fmtCount(network.edgeCount()));
  printRow("vertex coverage of population", "~100% (everyone collocates)",
           fmt(100.0 * vertices / persons, 1) + "%");

  const double paperMeanDegree = 2.0 * kPaperEdges / kPaperVertices;
  printRow("mean degree", fmt(paperMeanDegree, 0) + " @2.9M",
           fmt(graph::meanDegree(network), 0),
           "largest places grow with city size");

  const double csrBytesPerEdge = static_cast<double>(network.memoryBytes()) / edges;
  const std::uint64_t mapBytes = adjacency.memoryBytes();
  const double mapBytesPerEdge = static_cast<double>(mapBytes) / edges;
  printRow("CSR bytes / edge", "~13 (R sparse triangular, 10GB/830M)",
           fmt(csrBytesPerEdge, 1));
  printRow("accumulator bytes / edge", "-", fmt(mapBytesPerEdge, 1),
           "open-addressing pair map, load<=0.7");
  printRow("extrapolated CSR memory @830M edges", "~10 GB in R",
           fmt(csrBytesPerEdge * kPaperEdges / 1e9, 1) + " GB");

  json.put("vertices", std::uint64_t{network.vertexCount()});
  json.put("edges", std::uint64_t{network.edgeCount()});
  json.put("csr_bytes_per_edge", csrBytesPerEdge);
  json.put("accumulator_bytes_per_edge", mapBytesPerEdge);
  json.put("unbounded_accumulator_bytes", mapBytes);
  json.put("unbounded_seconds", unboundedSeconds);
  json.put("unbounded_edges_per_sec", edges / unboundedSeconds);

  // ---- memory-bounded sweep: same logs, descending accumulator caps ----
  // Caps are fractions of the unbounded accumulator so the sweep stresses
  // spilling at every scale; CHISIMNET_MEMORY_BUDGET pins one explicit cap
  // (the nightly paper-scale job uses 12 GiB).
  std::vector<std::uint64_t> caps;
  if (const char* env = std::getenv("CHISIMNET_MEMORY_BUDGET")) {
    caps.push_back(std::strtoull(env, nullptr, 10));
  } else {
    caps = {mapBytes / 2, mapBytes / 4, mapBytes / 8};
  }

  std::cout << "\nmemory-bounded synthesis (--memory-budget sweep):\n"
            << "  budget MiB   peak MiB   under cap   stage5 MiB   "
               "spill runs   spilled MiB   edges/sec\n";
  bool boundedOk = true;
  bool identicalOk = true;
  int capIndex = 0;
  for (const std::uint64_t cap : caps) {
    net::SynthesisConfig bounded = config;
    bounded.memoryBudgetBytes = cap;
    net::NetworkSynthesizer capped(bounded);
    const auto outFile = resultsDir() / "network_size_bounded.cadj";
    const std::uint64_t cappedEdges =
        capped.synthesizeToFile(logs.files, outFile);
    const net::SynthesisReport& report = capped.report();

    const bool underCap = report.peakAccumulatorBytes <= cap;
    boundedOk = boundedOk && underCap;
    // Bit-identity gate: the capped, disk-spilled run must reproduce the
    // unbounded accumulator's triplets exactly.
    const bool identical =
        cappedEdges == network.edgeCount() &&
        sparse::loadTriplets(outFile) == adjacency.toTriplets();
    identicalOk = identicalOk && identical;
    std::filesystem::remove(outFile);

    const double edgesPerSec = edges / report.totalSeconds;
    std::printf("  %10.1f %10.1f %11s %12.1f %12llu %13.1f %11.3g%s\n",
                cap / 1048576.0, report.peakAccumulatorBytes / 1048576.0,
                underCap ? "YES" : "NO", report.peakStage5Bytes / 1048576.0,
                static_cast<unsigned long long>(report.spillRunsWritten),
                report.spilledBytes / 1048576.0, edgesPerSec,
                identical ? "" : "   DRIFT");

    const std::string prefix = "cap" + std::to_string(capIndex++) + "_";
    json.put(prefix + "budget_bytes", cap);
    json.put(prefix + "peak_accumulator_bytes", report.peakAccumulatorBytes);
    json.put(prefix + "peak_stage5_bytes", report.peakStage5Bytes);
    json.put(prefix + "under_cap", underCap);
    json.put(prefix + "spill_runs", report.spillRunsWritten);
    json.put(prefix + "spilled_bytes", report.spilledBytes);
    json.put(prefix + "edges_per_sec", edgesPerSec);
    json.put(prefix + "seconds", report.totalSeconds);
    json.put(prefix + "identical", identical);
  }
  // ---- sharded external merge: owner-parallel stage-6 reduce ----
  // The stage-6 spill reduce assigns row-range shards to the worker
  // owners and merges them independently. The speedup gate uses the
  // modeled parallel critical path: per-segment merge cost is measured in
  // thread-CPU seconds, the critical path is the busiest owner's sum, and
  // the speedup is total merge CPU over that path — the ratio a
  // dedicated-core run realizes. The measured merge wall time (merge plus
  // splice) is printed beside it. All are min-of-3.
  // The cap is the unbounded accumulator size: the spill threshold (half
  // the budget) still forces an external merge over the full edge set, but
  // the flush count stays small — each flush writes one run per resident
  // fine shard, and a tight cap at reduced scale would push thousands of
  // tiny runs through the owners' intermediate merge passes, measuring
  // pass churn instead of the merge. `merge_compactions` counts those
  // passes.
  const std::uint64_t mergeCap = mapBytes;
  const unsigned mergeShards = 4;
  net::SynthesisConfig shardedCfg = config;
  shardedCfg.memoryBudgetBytes = mergeCap;
  shardedCfg.workers = mergeShards;  // the merge owners are the workers
  // Fine shards sized for ~4 segments per owner so round-robin ownership
  // load-balances the merge plan.
  shardedCfg.mergeRowsPerShard = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(population.persons().size()) /
             (4 * mergeShards));

  double shardedWall = std::numeric_limits<double>::max();
  double mergeCpuSeconds = std::numeric_limits<double>::max();
  double mergeCriticalSeconds = std::numeric_limits<double>::max();
  double mergeWallSeconds = std::numeric_limits<double>::max();
  std::uint64_t mergeSegments = 0;
  bool mergeIdentical = true;
  bool mergeUnderCap = true;
  const auto shardOut = resultsDir() / "network_size_sharded.cadj";
  for (int rep = 0; rep < 3; ++rep) {
    net::NetworkSynthesizer sharded(shardedCfg);
    const std::uint64_t got = sharded.synthesizeToFile(logs.files, shardOut);
    const net::SynthesisReport& report = sharded.report();
    mergeIdentical = mergeIdentical && got == network.edgeCount() &&
                     sparse::loadTriplets(shardOut) == adjacency.toTriplets();
    std::filesystem::remove(shardOut);
    mergeUnderCap = mergeUnderCap && report.peakAccumulatorBytes <= mergeCap;
    shardedWall = std::min(shardedWall, report.totalSeconds);
    mergeCpuSeconds = std::min(mergeCpuSeconds, report.mergeSeconds);
    mergeCriticalSeconds =
        std::min(mergeCriticalSeconds, report.mergeCriticalSeconds);
    mergeWallSeconds = std::min(mergeWallSeconds, report.mergeWallSeconds);
    mergeSegments = report.mergeSegmentsWritten;
    if (rep == 0) {
      json.put("merge_spill_runs", report.spillRunsWritten);
      json.put("merge_runs_split", report.spillRunsSplit);
      json.put("merge_compactions", report.spillCompactions);
      json.put("merge_spilled_bytes", report.spilledBytes);
    }
  }
  const double mergeSpeedup =
      mergeCpuSeconds / std::max(mergeCriticalSeconds, 1e-9);
  const bool mergeOk = mergeIdentical && mergeUnderCap && mergeSpeedup >= 2.0;

  std::cout << "\nsharded external merge (" << mergeShards << " owners, "
            << mergeSegments << " segments, min-of-3):\n"
            << "  sharded wall " << fmt(shardedWall, 2) << " s, merge CPU "
            << fmt(mergeCpuSeconds, 3) << " s, critical path "
            << fmt(mergeCriticalSeconds, 3) << " s, merge wall "
            << fmt(mergeWallSeconds, 3) << " s, modeled speedup "
            << fmt(mergeSpeedup, 2) << "x (gate >= 2x: "
            << (mergeSpeedup >= 2.0 ? "YES" : "NO") << ", identical: "
            << (mergeIdentical ? "YES" : "NO") << ", under cap: "
            << (mergeUnderCap ? "YES" : "NO") << ")\n";

  json.put("merge_shards", std::uint64_t{mergeShards});
  json.put("merge_segments", mergeSegments);
  json.put("merge_sharded_wall_seconds", shardedWall);
  json.put("merge_cpu_seconds", mergeCpuSeconds);
  json.put("merge_critical_seconds", mergeCriticalSeconds);
  json.put("merge_wall_seconds", mergeWallSeconds);
  json.put("merge_modeled_speedup", mergeSpeedup);
  json.put("merge_identical", mergeIdentical);
  json.put("merge_under_cap", mergeUnderCap);
  json.put("merge_speedup_ok", mergeOk);

  json.put("max_rss_mib", maxRssMiB());
  json.put("bounded_under_cap", boundedOk);
  json.put("bounded_identical", identicalOk);
  std::cout << "json: " << json.write().string() << "\n";

  const auto& report = synthesizer.report();
  std::cout << "\nsynthesis cost (unbounded): " << fmt(report.totalSeconds, 1)
            << " s total (load " << fmt(report.loadSeconds, 1) << ", weigh "
            << fmt(report.collocationSeconds, 1) << ", adjacency "
            << fmt(report.adjacencySeconds, 1) << ", reduce "
            << fmt(report.reduceSeconds, 1) << ")\n";

  const bool coverageOk = vertices > 0.95 * persons;
  const bool memoryOk = csrBytesPerEdge < 40.0;
  std::cout << "\nshape checks: nearly all persons appear as vertices: "
            << (coverageOk ? "YES" : "NO")
            << "; edge storage within sparse-matrix ballpark: "
            << (memoryOk ? "YES" : "NO")
            << "; every capped run stayed under its budget: "
            << (boundedOk ? "YES" : "NO")
            << "; capped output bit-identical to unbounded: "
            << (identicalOk ? "YES" : "NO")
            << "; sharded merge >=2x modeled speedup, identical, under cap: "
            << (mergeOk ? "YES" : "NO") << "\n";
  return coverageOk && memoryOk && boundedOk && identicalOk && mergeOk ? 0
                                                                       : 1;
}
