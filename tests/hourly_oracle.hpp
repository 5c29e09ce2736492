#pragma once

#include "chisimnet/abm/disease.hpp"
#include "chisimnet/abm/model.hpp"
#include "chisimnet/pop/population.hpp"

/// The hourly reference ABM: a plain single-threaded hour loop over R
/// virtual ranks, kept as the oracle the event-driven core is checked
/// against (tests/abm_test.cpp) and timed against (bench_abm_step).
///
/// Every hour, each rank walks its agenda of stint end hours (movement and
/// logging), then every rank adopts its inbound migrants in ascending
/// source-rank order, then every rank runs a full-scan SEIR step: all
/// residents for progression, every occupied place for transmission. A
/// person lives on one rank at a time, so running the ranks one after
/// another is equivalent to running them on threads.
///
/// Shares only inputs and formats with the library — the place partition,
/// the schedule generator, seedInfections, the log writers and
/// abm::diseaseUniform — and none of the event core's machinery, so it
/// stays an independent check.
/// Writes the same per-rank CLG5/CLX5 files as runModel; has no checkpoint,
/// resume, shutdown or fault-site code (config.checkpointDir and
/// config.resume must be unset).

namespace chisimnet::abm {

ModelStats runHourlyOracle(const pop::SyntheticPopulation& population,
                           const ModelConfig& config);

ModelStats runHourlyOracle(const pop::SyntheticPopulation& population,
                           const ModelConfig& config,
                           const DiseaseConfig& disease,
                           DiseaseStats& diseaseStats);

}  // namespace chisimnet::abm
