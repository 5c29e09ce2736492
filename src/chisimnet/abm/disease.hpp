#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chisimnet/elog/extended.hpp"
#include "chisimnet/pop/types.hpp"

/// SEIR disease layer for the distributed model (paper §II: chiSIM "is an
/// extension of an infectious disease transmission model that was
/// generalized to model any kind of social interaction"; §III: the log
/// schema is extended with integer columns such as disease state).
///
/// Transmission happens per (place, hour): each susceptible occupant of a
/// place with I infectious occupants becomes exposed with probability
/// 1 - (1-beta)^I. The random draw is a hash of (seed, person, hour), so an
/// epidemic realization is *identical for any rank count* — like the
/// activity log, only its distribution over rank log files changes. State
/// transitions are recorded to per-rank CLX5 extended logs with two extra
/// columns: the new disease state and the infector person id (or
/// kNoInfector for seeds and E->I->R progressions).

namespace chisimnet::abm {

enum class SeirState : std::uint8_t {
  kSusceptible = 0,
  kExposed = 1,
  kInfectious = 2,
  kRecovered = 3,
};

std::string seirStateName(SeirState state);

inline constexpr std::uint32_t kNoInfector = static_cast<std::uint32_t>(-1);

struct DiseaseConfig {
  double beta = 0.002;               ///< per infectious contact-hour
  table::Hour latentHours = 24;      ///< E -> I
  table::Hour infectiousHours = 96;  ///< I -> R
  std::uint32_t seedCount = 5;       ///< initial infectious persons
  std::uint64_t seed = 99;           ///< transmission randomness
};

struct DiseaseStats {
  std::uint64_t seeded = 0;
  std::uint64_t infections = 0;       ///< transmission events (S -> E)
  std::uint64_t recovered = 0;        ///< completed courses by horizon
  std::uint32_t peakInfectious = 0;   ///< max simultaneous I
  table::Hour peakHour = 0;
  std::vector<std::uint32_t> hourlyInfectious;  ///< prevalence per hour
  std::vector<std::uint8_t> finalStates;        ///< per person (SeirState)

  /// Fraction of the population ever infected (excluding seeds).
  double attackRate() const noexcept {
    return finalStates.empty()
               ? 0.0
               : static_cast<double>(infections + seeded) /
                     static_cast<double>(finalStates.size());
  }
};

// ---------------------------------------------------------------------------
// Runtime machinery driven by the event-driven model core. The DiseaseRank
// engine emits transitions in a canonical order (within each hour:
// progressions sorted by person id, then exposures sorted by person id), so
// the per-rank CLX5 files are byte-identical across rank counts and to the
// hourly full-scan oracle in tests/hourly_oracle.hpp.
// ---------------------------------------------------------------------------

/// Uniform double in [0, 1) from a hash of (seed, a, b) — rank-count
/// invariant randomness for transmission draws.
double diseaseUniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// Shared (cross-rank) epidemic state. Each agent resides on exactly one
/// rank and only that rank reads/writes its entries; the mailbox hand-off
/// at migration provides the required happens-before ordering.
struct DiseaseShared {
  const DiseaseConfig* config = nullptr;
  std::vector<std::uint8_t> state;  ///< SeirState per person
  std::vector<table::Hour> since;   ///< hour the current state was entered
  /// hourlyInfectious[rank][hour]: I residents of that rank at that hour.
  std::vector<std::vector<std::uint32_t>> hourlyInfectious;

  bool enabled() const noexcept { return config != nullptr; }
};

/// Seeds `config->seedCount` distinct infectious persons (deterministic in
/// config->seed); returns the number seeded. Call before any rank starts.
std::uint64_t seedInfections(DiseaseShared& shared, std::size_t personCount);

/// Per-rank SEIR engine. Tracks this rank's residents (current activity and
/// place), per-place occupancy, and the infectious head-count, and writes
/// state transitions to the rank's CLX5 log.
///
/// The event-driven core calls stepEvent() only on *active* hours:
/// progression comes from a calendar of pre-scheduled due hours (stale
/// entries are skipped) and transmission visits only places that currently
/// hold an infectious occupant — interval-based exposure accounting that
/// costs nothing while the epidemic is quiet. It produces the same
/// transitions as a full per-hour scan over residents and occupied places;
/// see stepEvent() for the equivalence argument.
class DiseaseRank {
 public:
  /// The progression calendar covers hours [0, totalHours).
  /// `resumeWriterAtBytes` nonzero reopens the rank's CLX5 file for
  /// appending at that checkpoint offset instead of truncating it.
  DiseaseRank(DiseaseShared& shared, int rank,
              const std::filesystem::path& directory, table::Hour totalHours,
              std::uint64_t resumeWriterAtBytes = 0);

  // ---- residency hooks (called by the model core) ----

  /// Initial adoption or migration arrival. Also schedules the person's
  /// pending progression (if any) on the calendar.
  void arrive(table::PersonId person, table::ActivityId activity,
              table::PlaceId place, table::Hour now);

  /// Local move to a new place on this rank.
  void move(table::PersonId person, table::ActivityId activity,
            table::PlaceId place);

  /// Migration departure (or end-of-simulation removal).
  void depart(table::PersonId person);

  // ---- epidemic steps ----

  /// Logs this rank's seed infections (state I at hour 0), sorted by
  /// person id. Call once before the hour-0 step.
  void logSeeds();

  /// One epidemic hour: progression from the calendar bucket for `now`,
  /// then transmission over infectious places only.
  void stepEvent(table::Hour now, std::uint64_t& infections);

  // ---- event-core scheduling queries ----

  /// Earliest hour > `now` at which this rank's epidemic may act, from
  /// local knowledge available *before* the hour-`now` transmission phase:
  /// the next scheduled progression, plus `now + 1` when anything this
  /// hour could create or sustain infectiousness (an infectious resident
  /// now, or a progression due this hour). Conservative: may name an hour
  /// with no actual work, never misses one. Returns `limit` when idle.
  table::Hour conservativeNextEvent(table::Hour now, table::Hour limit) const;

  /// Contribution of a departing migrant to the sender's lookahead hint:
  /// earliest hour > `now` the migrant could make its destination act.
  table::Hour migrantNextEvent(table::PersonId person, table::Hour now,
                               table::Hour limit) const;

  std::size_t pendingProgressions() const noexcept {
    return pendingProgressions_;
  }
  std::uint32_t infectiousResidents() const noexcept {
    return infectiousResidents_;
  }

  void close();

  // ---- checkpoint/restart hooks (abm/sim_checkpoint) ----

  /// One non-empty progression-calendar bucket, persons in FIFO order.
  struct CalendarBucket {
    table::Hour hour = 0;
    std::vector<table::PersonId> persons;
  };

  /// All non-empty calendar buckets at hours >= `fromHour`, ascending.
  /// Bucket order is serialized verbatim: the FIFO order feeds the
  /// sort+unique in stepEvent, and pendingProgressions_ is exactly the sum
  /// of bucket sizes, so restoreCalendar rebuilds both.
  std::vector<CalendarBucket> calendarSnapshot(table::Hour fromHour) const;

  /// Unflushed CLX5 entries (checkpointing must not flush the buffer —
  /// that would move chunk boundaries vs an uninterrupted run).
  const std::vector<elog::ExtendedEvent>& bufferSnapshot() const noexcept {
    return buffer_;
  }

  std::uint64_t writerBytes() const noexcept { return writer_->bytesWritten(); }
  std::uint64_t writerEntries() const noexcept {
    return writer_->entriesWritten();
  }

  /// Resume-time residency rebuild: occupancy + infectious accounting only.
  /// Unlike arrive(), schedules NOTHING — the progression calendar is
  /// restored verbatim by restoreCalendar, and re-scheduling here would
  /// duplicate (or subtly reorder) entries the checkpoint already carries.
  void restoreResident(table::PersonId person, table::ActivityId activity,
                       table::PlaceId place);

  /// Reinstates one checkpointed calendar bucket.
  void restoreCalendar(const CalendarBucket& bucket);

  /// Reinstates the unflushed CLX5 buffer.
  void restoreBuffer(std::vector<elog::ExtendedEvent> entries);

  /// Flushes the writer's buffered bytes to the OS (called before a
  /// checkpoint records writerBytes()).
  void sync();

  /// Crash-shaped close: drops the buffer, leaves the CLX5 file without a
  /// footer so readers detect the torn file.
  void abandon();

 private:
  struct StintInfo {
    table::ActivityId activity = 0;
    table::PlaceId place = 0;
  };
  struct Transition {
    table::PersonId person = 0;
    SeirState newState = SeirState::kSusceptible;
    std::uint32_t infector = kNoInfector;
  };

  std::uint8_t stateOf(table::PersonId person) const {
    return shared_.state[person];
  }
  void occupy(table::PersonId person, table::PlaceId place);
  void vacate(table::PersonId person, table::PlaceId place);
  void addInfectiousAt(table::PlaceId place);
  void removeInfectiousAt(table::PlaceId place);
  /// First hour this person's current state progresses under full-scan
  /// semantics (threshold floor of one hour for states entered during a
  /// scan; exact threshold for hour-0 seeds).
  table::Hour progressionDue(table::PersonId person) const;
  void scheduleProgression(table::PersonId person, table::Hour due);
  void logTransition(table::Hour now, table::PersonId person,
                     SeirState newState, std::uint32_t infector);
  /// Collects S->E exposures at one place into `out` (no state mutation).
  void collectExposures(table::Hour now,
                        const std::vector<table::PersonId>& persons,
                        std::vector<Transition>& out) const;
  /// Sorts by person id, applies and logs progressions (E->I / I->R).
  void applyProgressions(table::Hour now, std::vector<Transition>& transitions);
  /// Sorts by person id, applies and logs exposures (S->E).
  void applyExposures(table::Hour now, std::vector<Transition>& exposures,
                      std::uint64_t& infections);

  DiseaseShared& shared_;
  int rank_;
  table::Hour totalHours_;
  std::unique_ptr<elog::ExtendedLogWriter> writer_;
  std::vector<elog::ExtendedEvent> buffer_;
  std::unordered_map<table::PersonId, StintInfo> residents_;
  std::unordered_map<table::PlaceId, std::vector<table::PersonId>> occupants_;
  /// occupantSlot_[person]: position within occupants_[place of person] —
  /// makes vacate() an O(1) swap-remove with no hash lookups (flat array,
  /// sized to the population). Occupant order is free to permute: exposure
  /// draws key on (person, hour) and the infector argmin is
  /// order-canonical, so a swap never changes the emitted transitions.
  std::vector<std::uint32_t> occupantSlot_;
  /// Places with at least one infectious occupant -> infectious count.
  std::unordered_map<table::PlaceId, std::uint32_t> infectiousAt_;
  std::uint32_t infectiousResidents_ = 0;
  /// progressionCalendar_[hour] -> persons possibly due then.
  std::vector<std::vector<table::PersonId>> progressionCalendar_;
  std::size_t pendingProgressions_ = 0;
};

}  // namespace chisimnet::abm
