#pragma once

#include <cstdint>
#include <vector>

#include "chisimnet/abm/disease.hpp"
#include "chisimnet/abm/model.hpp"
#include "chisimnet/pop/population.hpp"
#include "chisimnet/pop/schedule.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/table/event.hpp"

/// The event-driven ABM core, the one runModel runs.
///
/// Instead of ticking every agent every hour, each rank keeps a calendar
/// queue of activity-change events: an agent schedules its next stint end
/// at adoption and lies dormant in between. The ranks walk an identical
/// sequence of *active* hours — hours where some rank has a scheduled
/// event — agreed on through conservative next-event hints piggybacked on
/// the timestamped migration exchange (abm/migration.hpp), so globally
/// quiet hours cost nothing and no per-hour barrier is needed. Per-hour
/// processing order (FIFO calendar buckets, arrival order by source rank)
/// reproduces the order of a plain hourly loop exactly, which is what
/// makes the CLG5/CLX5 output byte-identical to the hourly oracle in
/// tests/hourly_oracle.hpp at any rank count; DESIGN.md §3.7 gives the
/// full argument.

namespace chisimnet::abm {

/// Per-hour FIFO buckets of agent activity-change events over a bounded
/// horizon. Bucket order is push order, mirroring an hourly loop's agenda.
class CalendarQueue {
 public:
  explicit CalendarQueue(table::Hour totalHours)
      : buckets_(static_cast<std::size_t>(totalHours) + 1) {}

  void push(table::Hour due, table::PersonId person);

  std::vector<table::PersonId>& bucket(table::Hour hour) {
    return buckets_.at(hour);
  }

  /// Releases a processed bucket and its accounting.
  void clearBucket(table::Hour hour);

  /// First occupied hour strictly after `after`; the horizon (totalHours)
  /// when nothing is pending.
  table::Hour nextOccupiedHour(table::Hour after) const;

  /// Events currently scheduled.
  std::size_t pending() const noexcept { return pending_; }

 private:
  std::vector<std::vector<table::PersonId>> buckets_;
  std::size_t pending_ = 0;
};

/// Per-rank totals a rank run reports back to runModel.
struct RankOutcome {
  std::uint64_t events = 0;
  std::uint64_t migrationsOut = 0;
  std::uint64_t localMoves = 0;
  std::uint64_t initialAgents = 0;
  std::uint64_t logBytes = 0;
  std::uint64_t infections = 0;
  std::uint64_t hoursProcessed = 0;   ///< hours this core actually visited
  std::uint64_t peakQueueDepth = 0;   ///< max pending events on this rank
  // Not serialized into checkpoints (run-local, not campaign state):
  std::uint64_t checkpointsWritten = 0;  ///< checkpoints THIS run committed
  bool interrupted = false;  ///< exited early on a shutdown request
};

/// Inputs shared (read-only, or rank-sliced as documented on
/// DiseaseShared) by every rank of an event-core run.
struct EventCoreContext {
  const pop::SyntheticPopulation* population = nullptr;
  const ModelConfig* config = nullptr;
  const std::vector<int>* placeRank = nullptr;
  const pop::ScheduleGenerator* generator = nullptr;
  DiseaseShared* disease = nullptr;
  table::Hour totalHours = 0;
  /// Loaded checkpoint set when resuming; nullptr for a fresh run. Declared
  /// opaque here to avoid an include cycle with abm/sim_checkpoint.hpp.
  const struct SimResume* resume = nullptr;
  /// simConfigHash of this run — stamped into manifests it commits.
  std::uint32_t configHash = 0;
  /// manifest.checkpointsWritten at resume (0 fresh): committed manifests
  /// record checkpointsBase + this run's count so the total is cumulative.
  std::uint64_t checkpointsBase = 0;
};

/// Runs one rank of the event-driven core to completion.
void runEventCoreRank(runtime::RankHandle& rank,
                      const EventCoreContext& context, RankOutcome& outcome);

}  // namespace chisimnet::abm
