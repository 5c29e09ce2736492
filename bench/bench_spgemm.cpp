/// SPGEMM — per-place adjacency computation A = x·xᵀ (paper §IV).
///
/// Microbenchmarks of the production local-coordinate kernel, which
/// batches each place's pair-hours before touching the global map, against
/// the SpGEMM reference (sparse column outer products — the paper's math,
/// one global insert per pair-hour) across place profiles: a household
/// (tiny, always-on), a classroom (30 persons, school hours), a workplace
/// (hundreds, business hours), a congregate hub (thousands, mixed hours)
/// and a shop (thousands, rarely co-present).
///
/// Beyond the google-benchmark tables, the binary writes
/// BENCH_spgemm.json (min-of-N seconds per shape and kernel, speedups,
/// edges/sec) into resultsDir(), and `--smoke` runs a quick perf gate:
/// the local-coordinate kernel must beat SpGEMM by >= 1.5x on the
/// hub-heavy shape, else the exit code is nonzero.

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/util/rng.hpp"
#include "chisimnet/util/timer.hpp"

namespace {

using namespace chisimnet;

/// A place visited by `persons` persons, each present for `hoursEach`
/// uniformly placed hours of a week.
sparse::CollocationMatrix makePlace(std::size_t persons, unsigned hoursEach,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<table::Event> events;
  for (std::size_t p = 0; p < persons; ++p) {
    const auto start = static_cast<table::Hour>(rng.uniformBelow(168 - hoursEach));
    events.push_back(table::Event{start,
                                  static_cast<table::Hour>(start + hoursEach),
                                  static_cast<table::PersonId>(p), 0, 1});
  }
  return sparse::CollocationMatrix(1, events, 0, 168);
}

/// The two kernels under comparison, both presized to the matrix nnz.
sparse::SymmetricAdjacency runKernel(const sparse::CollocationMatrix& matrix,
                                     bool local) {
  if (!local) {
    return sparse::spGemmAdjacency(matrix);
  }
  sparse::SymmetricAdjacency adjacency(matrix.nnz());
  adjacency.addCollocation(matrix);
  return adjacency;
}

void runShape(benchmark::State& state, std::size_t persons, unsigned hours,
              bool local) {
  const sparse::CollocationMatrix matrix = makePlace(persons, hours, 42);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const sparse::SymmetricAdjacency adjacency = runKernel(matrix, local);
    benchmark::DoNotOptimize(adjacency);
    edges = adjacency.edgeCount();
  }
  state.counters["nnz"] = static_cast<double>(matrix.nnz());
  state.counters["edges"] = static_cast<double>(edges);
}

void BM_SpGemm_Household(benchmark::State& state) {
  runShape(state, 4, 120, false);
}
void BM_Local_Household(benchmark::State& state) {
  runShape(state, 4, 120, true);
}
void BM_SpGemm_Classroom(benchmark::State& state) {
  runShape(state, 30, 30, false);
}
void BM_Local_Classroom(benchmark::State& state) {
  runShape(state, 30, 30, true);
}
void BM_SpGemm_Workplace(benchmark::State& state) {
  runShape(state, 300, 40, false);
}
void BM_Local_Workplace(benchmark::State& state) {
  runShape(state, 300, 40, true);
}
void BM_SpGemm_CongregateHub(benchmark::State& state) {
  runShape(state, 2000, 30, false);
}
void BM_Local_CongregateHub(benchmark::State& state) {
  runShape(state, 2000, 30, true);
}
// A shop: many distinct visitors but only a couple present at a time, so
// most visitor pairs never overlap. The local kernel's dense/hash
// crossover picks the hash path here (p²/2 pair slots vastly exceed the
// actual pair-hours).
void BM_SpGemm_Shop(benchmark::State& state) {
  runShape(state, 3000, 1, false);
}
void BM_Local_Shop(benchmark::State& state) {
  runShape(state, 3000, 1, true);
}

BENCHMARK(BM_SpGemm_Household);
BENCHMARK(BM_Local_Household);
BENCHMARK(BM_SpGemm_Classroom);
BENCHMARK(BM_Local_Classroom);
BENCHMARK(BM_SpGemm_Workplace)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Local_Workplace)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SpGemm_CongregateHub)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Local_CongregateHub)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SpGemm_Shop)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Local_Shop)->Unit(benchmark::kMillisecond);

/// Merge (reduction) cost: summing worker adjacencies at the root.
void BM_AdjacencyMerge(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  sparse::SymmetricAdjacency a(entries);
  sparse::SymmetricAdjacency b(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    a.add(static_cast<std::uint32_t>(rng.uniformBelow(100000)),
          static_cast<std::uint32_t>(100000 + rng.uniformBelow(100000)), 1);
    b.add(static_cast<std::uint32_t>(rng.uniformBelow(100000)),
          static_cast<std::uint32_t>(100000 + rng.uniformBelow(100000)), 1);
  }
  for (auto _ : state) {
    sparse::SymmetricAdjacency sum(entries * 2);
    sum.merge(a);
    sum.merge(b);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries) * 2);
}
BENCHMARK(BM_AdjacencyMerge)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

// ---- JSON dump and --smoke perf gate -------------------------------------

struct Shape {
  const char* name;
  std::size_t persons;
  unsigned hours;
};

constexpr Shape kShapes[] = {
    {"household", 4, 120},       {"classroom", 30, 30},
    {"workplace", 300, 40},      {"congregate_hub", 2000, 30},
    {"shop", 3000, 1},
};

/// Min-of-N wall time of one kernel on one place; min filters scheduler
/// noise on the shared CI machines this gate runs on.
double minSeconds(const sparse::CollocationMatrix& matrix, bool local,
                  int repeats, std::uint64_t* edgesOut = nullptr) {
  double best = 1e300;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    util::WallTimer timer;
    const sparse::SymmetricAdjacency adjacency = runKernel(matrix, local);
    best = std::min(best, timer.seconds());
    if (edgesOut != nullptr) {
      *edgesOut = adjacency.edgeCount();
    }
  }
  return best;
}

/// Times every (shape, kernel) pair, writes BENCH_spgemm.json, and returns
/// the local-vs-spgemm speedup on the hub-heavy shape (the gated number).
double dumpJson(int repeats) {
  using chisimnet::bench::JsonReport;
  JsonReport json("spgemm");
  json.put("bench", "spgemm");
  json.put("repeats", repeats);
  double hubSpeedup = 0.0;
  for (const Shape& shape : kShapes) {
    const sparse::CollocationMatrix matrix =
        makePlace(shape.persons, shape.hours, 42);
    const std::string prefix = shape.name;
    std::uint64_t edges = 0;
    const double spgemm = minSeconds(matrix, false, repeats);
    const double local = minSeconds(matrix, true, repeats, &edges);
    json.put(prefix + "_spgemm_seconds", spgemm);
    json.put(prefix + "_local_seconds", local);
    const double speedup = spgemm / std::max(local, 1e-12);
    json.put(prefix + "_edges", edges);
    json.put(prefix + "_local_edges_per_sec",
             static_cast<double>(edges) / std::max(local, 1e-12));
    json.put(prefix + "_local_vs_spgemm_speedup", speedup);
    if (std::string(shape.name) == "congregate_hub") {
      hubSpeedup = speedup;
    }
    std::cout << "  " << prefix << ": spgemm "
              << chisimnet::bench::fmt(spgemm * 1e3, 3) << " ms, local "
              << chisimnet::bench::fmt(local * 1e3, 3) << " ms ("
              << chisimnet::bench::fmt(speedup, 2) << "x)\n";
  }
  json.put("congregate_hub_gate_threshold", 1.5);
  json.put("congregate_hub_gate_speedup", hubSpeedup);
  const auto path = json.write();
  std::cout << "wrote " << path.string() << "\n";
  return hubSpeedup;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  std::cout << (smoke ? "perf smoke (min-of-3):\n"
                      : "\nkernel comparison (min-of-5):\n");
  const double hubSpeedup = dumpJson(smoke ? 3 : 5);
  const bool pass = hubSpeedup >= 1.5;
  std::cout << "gate: local >= 1.5x spgemm on congregate hub: measured "
            << chisimnet::bench::fmt(hubSpeedup, 2) << "x -> "
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
