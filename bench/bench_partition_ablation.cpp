/// BALANCE — the nnz-based load-balancing ablation (paper §IV.A.3).
///
/// "This step is crucial to achieve even load balancing across workers ...
/// Without this balancing step, some workers would sit idle while others
/// would be working for extended periods of time due to the variance in the
/// number of collocated persons at different locations, which can range
/// from a single individual to tens of thousands of individuals."
///
/// This bench runs the adjacency stage with (a) greedy-LPT-by-nnz (the
/// paper's scheme), (b) contiguous equal-count lists, (c) round-robin and
/// (d) greedy LPT by the pipeline's own stage-4 weight (net::weighPlaces),
/// and reports weight imbalance, observed worker busy-time imbalance, and
/// stage wall time.

#include "bench_common.hpp"

int main() {
  using namespace chisimnet;
  using namespace chisimnet::bench;

  printHeader("BALANCE partition ablation",
              "§IV.A.3: nnz re-partitioning is crucial for even balance");

  const auto population = makePopulation(scaledPersons(30'000));
  const SimulatedLogs logs = simulate(population);
  const table::EventTable events =
      elog::loadEvents(logs.files, 0, pop::kHoursPerWeek);

  // Weigh the places as the pipeline does, then build their collocation
  // matrices once; the ablation varies only the partitioning of the
  // adjacency stage.
  const table::PlaceIndex index = events.buildPlaceIndex();
  const net::PlaceWeights pipeline =
      net::weighPlaces(events, index, 0, pop::kHoursPerWeek);
  std::vector<sparse::CollocationMatrix> matrices;
  std::vector<std::uint64_t> weights;
  matrices.reserve(pipeline.groups.size());
  weights.reserve(pipeline.groups.size());
  std::uint64_t maxNnz = 0;
  std::uint64_t minNnz = ~0ull;
  for (const std::size_t group : pipeline.groups) {
    const sparse::CollocationMatrix& matrix =
        matrices.emplace_back(sparse::buildCollocationMatrix(
            events, index, group, 0, pop::kHoursPerWeek));
    weights.push_back(matrix.nnz());
    maxNnz = std::max(maxNnz, matrix.nnz());
    minNnz = std::min(minNnz, matrix.nnz());
  }
  std::cout << "collocation matrices: " << fmtCount(matrices.size())
            << " places, nnz range [" << minNnz << ", " << fmtCount(maxNnz)
            << "] (paper: 1 .. tens of thousands)\n\n";

  const unsigned workers = 8;
  struct Result {
    std::string name;
    double weightImbalance = 0.0;
    double busyImbalance = 0.0;
    double wallSeconds = 0.0;
    double busyMax = 0.0;
  };
  std::vector<Result> results;

  for (const auto& [name, partition] :
       std::vector<std::pair<std::string, runtime::Partition>>{
           {"lpt-by-nnz (paper)", runtime::partitionGreedyLpt(weights, workers)},
           {"contiguous (naive)", runtime::partitionContiguous(weights, workers)},
           {"round-robin (naive)", runtime::partitionRoundRobin(weights, workers)},
           {"lpt-by-pipeline-weight",
            runtime::partitionGreedyLpt(pipeline.weights, workers)},
       }) {
    runtime::Cluster cluster(workers);
    std::vector<sparse::SymmetricAdjacency> sums;
    for (unsigned w = 0; w < workers; ++w) {
      sums.emplace_back(1024);
    }
    cluster.applyPartitioned(partition, [&](std::size_t item, unsigned worker) {
      sums[worker].addCollocation(matrices[item]);
    });
    Result result;
    result.name = name;
    result.weightImbalance = partition.imbalance();
    result.busyImbalance = cluster.busyImbalance();
    result.wallSeconds = cluster.lastWallSeconds();
    for (double busy : cluster.workerBusySeconds()) {
      result.busyMax = std::max(result.busyMax, busy);
    }
    results.push_back(result);
    std::cout << "  " << name << ": weight-imbalance "
              << fmt(result.weightImbalance, 2) << ", busy-imbalance "
              << fmt(result.busyImbalance, 2) << ", makespan(busy) "
              << fmt(result.busyMax, 2) << " s, wall " << fmt(result.wallSeconds, 2)
              << " s\n";
  }

  const Result& lpt = results[0];
  const Result& contiguous = results[1];
  const Result& weighed = results[3];
  std::cout << "\nmeasured busy imbalance (" << workers
            << " workers, max / mean thread busy seconds): nnz-LPT "
            << fmt(lpt.busyImbalance, 2) << ", pipeline-weight LPT "
            << fmt(weighed.busyImbalance, 2) << ", contiguous "
            << fmt(contiguous.busyImbalance, 2) << "\n\n";
  printRow("LPT weight imbalance", "~1.0 (even)", fmt(lpt.weightImbalance, 2));
  printRow("naive weight imbalance", ">> 1 (idle workers)",
           fmt(contiguous.weightImbalance, 2));
  printRow("weight-LPT busy imbalance",
           "vs nnz-LPT " + fmt(lpt.busyImbalance, 2),
           fmt(weighed.busyImbalance, 2),
           "nnz² / occupied hours, the pipeline's stage-4 weight");
  const bool crucial =
      contiguous.weightImbalance > 1.5 * lpt.weightImbalance;
  std::cout << "\nshape check: balancing step materially evens the load: "
            << (crucial ? "YES (matches paper's 'crucial')" : "NO") << "\n";
  return crucial ? 0 : 1;
}
