#include "chisimnet/abm/model.hpp"

#include <algorithm>
#include <fstream>
#include <optional>

#include "chisimnet/abm/event_core.hpp"
#include "chisimnet/abm/sim_checkpoint.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::abm {

namespace {

using pop::kHoursPerWeek;
using table::Hour;

/// Rejects unusable configurations up front, before any rank starts: a bad
/// week count, rank count, or an unusable log directory should fail as
/// std::invalid_argument at the API boundary rather than as a confusing
/// mid-run I/O error on some rank.
void validateModelConfig(const ModelConfig& config) {
  CHISIM_REQUIRE(config.rankCount >= 1, "need at least one rank");
  CHISIM_REQUIRE(config.weeks >= 1, "need at least one week");
  CHISIM_REQUIRE(!config.logDirectory.empty(), "logDirectory must be set");
  std::error_code ec;
  std::filesystem::create_directories(config.logDirectory, ec);
  CHISIM_REQUIRE(!ec && std::filesystem::is_directory(config.logDirectory),
                 "logDirectory is not a creatable directory: " +
                     config.logDirectory.string());
  // Probe writability directly: permissions are only half the story (ACLs,
  // read-only mounts), so try to create a file.
  const auto probe = config.logDirectory / ".chisim_write_probe";
  {
    std::ofstream out(probe, std::ios::binary | std::ios::trunc);
    CHISIM_REQUIRE(out.good(), "logDirectory is not writable: " +
                                   config.logDirectory.string());
  }
  std::filesystem::remove(probe, ec);
  CHISIM_REQUIRE(config.checkpointEveryHours == 0 ||
                     !config.checkpointDir.empty(),
                 "checkpointEveryHours requires checkpointDir");
  CHISIM_REQUIRE(!config.resume || !config.checkpointDir.empty(),
                 "resume requires checkpointDir");
}

ModelStats runModelImpl(const pop::SyntheticPopulation& population,
                        const ModelConfig& config, DiseaseShared& disease,
                        DiseaseStats* diseaseStats) {
  validateModelConfig(config);

  const std::vector<int> placeRank =
      assignPlacesToRanks(population, config.rankCount, config.strategy);
  const pop::ScheduleGenerator generator(population, config.scheduleSeed);
  const Hour totalHours = config.weeks * kHoursPerWeek;

  std::uint64_t seeded = 0;
  if (disease.enabled()) {
    const std::size_t personCount = population.persons().size();
    disease.state.assign(personCount,
                         static_cast<std::uint8_t>(SeirState::kSusceptible));
    disease.since.assign(personCount, 0);
    disease.hourlyInfectious.assign(
        static_cast<std::size_t>(config.rankCount),
        std::vector<std::uint32_t>(totalHours + 1, 0));
    seeded = seedInfections(disease, personCount);
  }

  const std::uint32_t configHash =
      simConfigHash(population.persons().size(), population.places().size(),
                    config, disease.config);

  // Resume: a committed checkpoint in checkpointDir restarts the run at the
  // manifest hour; no manifest means a fresh start (first launch with
  // --resume already set, or a run killed before its first checkpoint).
  std::optional<SimResume> resume;
  if (config.resume) {
    resume = loadSimResume(config.checkpointDir, config.rankCount, configHash,
                           population.persons().size(), totalHours);
  }
  if (resume.has_value() && disease.enabled()) {
    // Seeding already ran (deterministically); overwrite with the
    // checkpointed epidemic. The rank records partition the population —
    // every person resides on exactly one rank — so together they cover
    // every (state, since) entry; each rank also restores its own
    // prevalence rows below the checkpoint hour.
    for (std::size_t rankIndex = 0; rankIndex < resume->ranks.size();
         ++rankIndex) {
      const RankCheckpoint& ckpt = resume->ranks[rankIndex];
      CHISIM_CHECK(ckpt.diseaseEnabled,
                   "checkpoint was written without the disease layer");
      for (const AgentSnapshot& agent : ckpt.residents) {
        disease.state[agent.person] = static_cast<std::uint8_t>(agent.state);
        disease.since[agent.person] = agent.since;
      }
      std::vector<std::uint32_t>& rows = disease.hourlyInfectious[rankIndex];
      CHISIM_CHECK(ckpt.hourlyInfectious.size() <= rows.size(),
                   "checkpoint prevalence rows exceed the horizon");
      std::copy(ckpt.hourlyInfectious.begin(), ckpt.hourlyInfectious.end(),
                rows.begin());
    }
  }
  if (resume.has_value()) {
    for (const RankCheckpoint& ckpt : resume->ranks) {
      CHISIM_CHECK(ckpt.diseaseEnabled == disease.enabled(),
                   "checkpoint disease layer does not match this run");
    }
  }

  EventCoreContext context;
  context.population = &population;
  context.config = &config;
  context.placeRank = &placeRank;
  context.generator = &generator;
  context.disease = &disease;
  context.totalHours = totalHours;
  context.resume = resume.has_value() ? &*resume : nullptr;
  context.configHash = configHash;
  context.checkpointsBase =
      resume.has_value() ? resume->manifest.checkpointsWritten : 0;

  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(config.rankCount));
  util::WallTimer wall;

  runtime::Communicator::run(config.rankCount, [&](runtime::RankHandle& rank) {
    runEventCoreRank(rank, context,
                     outcomes[static_cast<std::size_t>(rank.rank())]);
  });

  ModelStats stats;
  stats.simulatedHours = totalHours;
  stats.wallSeconds = wall.seconds();
  stats.resumed = resume.has_value();
  stats.hoursReplayed = resume.has_value() ? resume->manifest.hour : 0;
  // Every rank writes each checkpoint (the commit barriers keep them in
  // lockstep), so rank 0's count is THE count; the base carries totals
  // from before the resume.
  stats.checkpointsWritten =
      context.checkpointsBase + outcomes[0].checkpointsWritten;
  stats.agentHours =
      static_cast<std::uint64_t>(population.persons().size()) * totalHours;
  stats.perRankEvents.reserve(outcomes.size());
  stats.perRankMigrationsOut.reserve(outcomes.size());
  stats.perRankInitialAgents.reserve(outcomes.size());
  for (const RankOutcome& outcome : outcomes) {
    stats.eventsLogged += outcome.events;
    stats.migrations += outcome.migrationsOut;
    stats.localMoves += outcome.localMoves;
    stats.logBytes += outcome.logBytes;
    stats.interrupted = stats.interrupted || outcome.interrupted;
    stats.hoursActive = std::max(stats.hoursActive, outcome.hoursProcessed);
    stats.peakQueueDepth = std::max(stats.peakQueueDepth, outcome.peakQueueDepth);
    stats.perRankEvents.push_back(outcome.events);
    stats.perRankMigrationsOut.push_back(outcome.migrationsOut);
    stats.perRankInitialAgents.push_back(outcome.initialAgents);
  }

  if (disease.enabled() && diseaseStats != nullptr) {
    DiseaseStats& out = *diseaseStats;
    out = DiseaseStats{};
    out.seeded = seeded;
    for (const RankOutcome& outcome : outcomes) {
      out.infections += outcome.infections;
    }
    out.hourlyInfectious.assign(totalHours + 1, 0);
    for (const auto& perRank : disease.hourlyInfectious) {
      for (Hour h = 0; h <= totalHours; ++h) {
        out.hourlyInfectious[h] += perRank[h];
      }
    }
    for (Hour h = 0; h <= totalHours; ++h) {
      if (out.hourlyInfectious[h] > out.peakInfectious) {
        out.peakInfectious = out.hourlyInfectious[h];
        out.peakHour = h;
      }
    }
    out.finalStates = disease.state;
    for (std::uint8_t state : out.finalStates) {
      out.recovered +=
          state == static_cast<std::uint8_t>(SeirState::kRecovered) ? 1 : 0;
    }
  }
  return stats;
}

}  // namespace

ModelStats runModel(const pop::SyntheticPopulation& population,
                    const ModelConfig& config) {
  DiseaseShared noDisease;
  return runModelImpl(population, config, noDisease, nullptr);
}

ModelStats runModel(const pop::SyntheticPopulation& population,
                    const ModelConfig& config, const DiseaseConfig& disease,
                    DiseaseStats& diseaseStats) {
  DiseaseShared shared;
  shared.config = &disease;
  return runModelImpl(population, config, shared, &diseaseStats);
}

}  // namespace chisimnet::abm
