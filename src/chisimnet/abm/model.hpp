#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "chisimnet/abm/disease.hpp"
#include "chisimnet/abm/place_partition.hpp"
#include "chisimnet/elog/event_logger.hpp"
#include "chisimnet/pop/population.hpp"
#include "chisimnet/pop/schedule.hpp"

/// The distributed social-interaction model (the chiSIM substitute,
/// paper §II).
///
/// Places are partitioned across ranks; an agent resides on the rank that
/// owns its current location. When an agent's activity stint ends it takes
/// its next activity from its schedule and moves to the new location —
/// crossing ranks via a migration message when the new place lives
/// elsewhere. Each rank runs its own event logger (paper §III), so a run
/// with R ranks emits R CLG5 files whose union is the complete activity
/// history of the population.
///
/// The ranks run the event-driven core (abm/event_core.hpp): a rank wakes
/// an agent only when its stint ends and skips globally quiet hours. Its
/// logs are byte-identical to the hourly reference loop the tests keep as
/// an oracle (tests/hourly_oracle.hpp), which steps every hour.

namespace chisimnet::abm {

struct ModelConfig {
  std::filesystem::path logDirectory;  ///< created if missing; must be writable
  int rankCount = 4;
  std::uint32_t weeks = 1;
  std::size_t logCacheEntries = elog::kDefaultCacheEntries;
  /// kRaw preserves the paper's 20 bytes/entry layout; kPacked enables the
  /// column-split varint chunk encoding (2-3x smaller files).
  elog::LogCompression logCompression = elog::LogCompression::kRaw;
  std::uint64_t scheduleSeed = 7;
  PartitionStrategy strategy = PartitionStrategy::kNeighborhood;
  /// Non-empty enables crash-safe checkpointing (abm/sim_checkpoint.hpp):
  /// periodic rank-state snapshots land here, and a SIGTERM/SIGINT (when
  /// the caller installed ScopedShutdownHandler or called requestShutdown)
  /// checkpoints and exits gracefully at the top of the next hour.
  std::filesystem::path checkpointDir;
  /// Checkpoint every N simulated hours (0 = only on shutdown request).
  /// Requires checkpointDir.
  std::uint32_t checkpointEveryHours = 0;
  /// Resume from the manifest in checkpointDir when one exists; falls back
  /// to a fresh start when the directory holds no committed checkpoint.
  /// The resumed run's CLG5/CLX5 logs are byte-identical to an
  /// uninterrupted run (files truncate to the checkpointed offsets).
  bool resume = false;
};

struct ModelStats {
  std::uint64_t simulatedHours = 0;
  std::uint64_t eventsLogged = 0;      ///< total log entries across ranks
  std::uint64_t migrations = 0;        ///< cross-rank agent moves
  std::uint64_t localMoves = 0;        ///< location changes that stayed on-rank
  std::uint64_t agentHours = 0;        ///< persons x hours simulated
  std::uint64_t logBytes = 0;          ///< total CLG5 bytes written
  /// Hours the step loop actually visited: the globally active hours
  /// (quiet hours are skipped entirely).
  std::uint64_t hoursActive = 0;
  /// Max simultaneously pending calendar events (activity changes plus
  /// scheduled disease progressions) on any rank.
  std::uint64_t peakQueueDepth = 0;
  /// Checkpoints committed over the campaign (cumulative across resumes).
  std::uint64_t checkpointsWritten = 0;
  /// True when this run started from a committed checkpoint.
  bool resumed = false;
  /// Hours already on disk at resume (the checkpoint hour); 0 fresh runs.
  std::uint64_t hoursReplayed = 0;
  /// True when the run checkpointed and exited early on a shutdown
  /// request instead of reaching the horizon.
  bool interrupted = false;
  double wallSeconds = 0.0;
  std::vector<std::uint64_t> perRankEvents;
  std::vector<std::uint64_t> perRankMigrationsOut;
  std::vector<std::uint64_t> perRankInitialAgents;

  /// Fraction of location changes that crossed ranks.
  double migrationFraction() const noexcept {
    const std::uint64_t moves = migrations + localMoves;
    return moves == 0 ? 0.0
                      : static_cast<double>(migrations) /
                            static_cast<double>(moves);
  }
};

/// Runs the model over `weeks` simulated weeks and writes one CLG5 log file
/// per rank into config.logDirectory. Deterministic in
/// (population seed, scheduleSeed); the emitted set of log entries is
/// independent of rankCount and partition strategy (only their distribution
/// over files changes).
ModelStats runModel(const pop::SyntheticPopulation& population,
                    const ModelConfig& config);

/// Same, with the SEIR disease layer enabled: transmission happens at
/// collocations each hour and every state transition is written to a
/// per-rank CLX5 extended log (rank_NNNN.clx5, extras = {new state,
/// infector id}) alongside the activity logs. The epidemic realization is
/// deterministic in (population, scheduleSeed, disease.seed) and — like the
/// activity log — independent of rankCount.
ModelStats runModel(const pop::SyntheticPopulation& population,
                    const ModelConfig& config, const DiseaseConfig& disease,
                    DiseaseStats& diseaseStats);

}  // namespace chisimnet::abm
