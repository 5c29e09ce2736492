#pragma once

/// Umbrella header for the chisimnet library: a C++ reproduction of
/// "Endogenous Social Networks from Large-Scale Agent-Based Models"
/// (Tatara, Collier, Ozik, Macal — IPPS 2017).
///
/// Typical flow (see examples/quickstart.cpp):
///   1. pop::SyntheticPopulation::generate  — build a synthetic city
///   2. abm::runModel                       — simulate and write event logs
///   3. net::NetworkSynthesizer             — logs -> collocation network
///   4. graph:: / stats::                   — analyze degree distributions,
///                                            clustering, ego networks

#include "chisimnet/abm/disease.hpp"
#include "chisimnet/abm/model.hpp"
#include "chisimnet/abm/place_partition.hpp"
#include "chisimnet/abm/sim_checkpoint.hpp"
#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/extended.hpp"
#include "chisimnet/elog/event_logger.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/graph/algorithms.hpp"
#include "chisimnet/graph/community.hpp"
#include "chisimnet/graph/generators.hpp"
#include "chisimnet/graph/graph.hpp"
#include "chisimnet/graph/io.hpp"
#include "chisimnet/graph/layout.hpp"
#include "chisimnet/graph/mixing.hpp"
#include "chisimnet/graph/weighted_stats.hpp"
#include "chisimnet/net/demography.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/net/temporal.hpp"
#include "chisimnet/pop/io.hpp"
#include "chisimnet/pop/population.hpp"
#include "chisimnet/pop/schedule.hpp"
#include "chisimnet/pop/types.hpp"
#include "chisimnet/runtime/cluster.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/partition.hpp"
#include "chisimnet/runtime/thread_pool.hpp"
#include "chisimnet/sparse/adjacency.hpp"
#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/pair_count_map.hpp"
#include "chisimnet/stats/fit.hpp"
#include "chisimnet/stats/histogram.hpp"
#include "chisimnet/stats/plot.hpp"
#include "chisimnet/table/event.hpp"
#include "chisimnet/table/event_table.hpp"
#include "chisimnet/table/io.hpp"
#include "chisimnet/util/env.hpp"
#include "chisimnet/util/rng.hpp"
#include "chisimnet/util/timer.hpp"
