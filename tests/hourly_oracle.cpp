#include "hourly_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chisimnet/abm/place_partition.hpp"
#include "chisimnet/elog/event_logger.hpp"
#include "chisimnet/elog/extended.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/pop/schedule.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::abm {

namespace {

using pop::kHoursPerWeek;
using pop::ScheduleEntry;
using table::ActivityId;
using table::Hour;
using table::PersonId;
using table::PlaceId;

std::uint8_t raw(SeirState state) { return static_cast<std::uint8_t>(state); }

/// A resident agent: its current week's schedule and position within it.
struct AgentCursor {
  PersonId person = 0;
  std::uint32_t week = 0;
  std::vector<ScheduleEntry> schedule;
  std::size_t index = 0;

  const ScheduleEntry& current() const { return schedule[index]; }
};

/// Loads the stint that covers hour `now`, regenerating the weekly
/// schedule from (person, week).
AgentCursor makeCursor(PersonId person, Hour now,
                       const pop::ScheduleGenerator& generator) {
  AgentCursor cursor;
  cursor.person = person;
  cursor.week = now / kHoursPerWeek;
  cursor.schedule = generator.weeklySchedule(person, cursor.week);
  cursor.index = pop::coveringStintIndex(cursor.schedule, now);
  return cursor;
}

/// Advances past the stint ending at `now`, rolling into the next week when
/// the week is exhausted. Returns the new current stint.
const ScheduleEntry& advanceCursor(AgentCursor& cursor, Hour now,
                                   const pop::ScheduleGenerator& generator) {
  CHISIM_CHECK(cursor.current().end == now, "advance called off-boundary");
  ++cursor.index;
  if (cursor.index >= cursor.schedule.size()) {
    ++cursor.week;
    cursor.schedule = generator.weeklySchedule(cursor.person, cursor.week);
    cursor.index = 0;
  }
  CHISIM_CHECK(cursor.current().start == now, "schedule has a gap");
  return cursor.current();
}

/// One rank's SEIR bookkeeping: residents' current stints, per-place
/// occupancy, the infectious head-count, and the rank's CLX5 writer. The
/// population-wide state lives in DiseaseShared; each virtual rank touches
/// only its own residents' entries and its own prevalence row.
class RankEpidemic {
 public:
  RankEpidemic(DiseaseShared& epidemic, int rank,
               const std::filesystem::path& directory)
      : epidemic_(epidemic),
        hourlyInfectious_(
            epidemic.hourlyInfectious[static_cast<std::size_t>(rank)]) {
    char name[32];
    std::snprintf(name, sizeof(name), "rank_%04d.clx5", rank);
    writer_ = std::make_unique<elog::ExtendedLogWriter>(directory / name, 2);
    occupantSlot_.resize(epidemic_.state.size());
  }

  void arrive(PersonId person, ActivityId activity, PlaceId place) {
    residents_[person] = Stint{activity, place};
    occupy(person, place);
    if (epidemic_.state[person] == raw(SeirState::kInfectious)) {
      ++infectious_;
    }
  }

  void move(PersonId person, ActivityId activity, PlaceId place) {
    Stint& stint = residents_.at(person);
    vacate(person, stint.place);
    stint = Stint{activity, place};
    occupy(person, place);
  }

  void depart(PersonId person) {
    const auto it = residents_.find(person);
    CHISIM_CHECK(it != residents_.end(), "depart: person is not a resident");
    vacate(person, it->second.place);
    if (epidemic_.state[person] == raw(SeirState::kInfectious)) {
      --infectious_;
    }
    residents_.erase(it);
  }

  /// Logs this rank's seed infections at hour 0, sorted by person id.
  void logSeeds() {
    std::vector<PersonId> seeds;
    for (const auto& [person, stint] : residents_) {
      if (epidemic_.state[person] == raw(SeirState::kInfectious)) {
        seeds.push_back(person);
      }
    }
    std::sort(seeds.begin(), seeds.end());
    for (PersonId person : seeds) {
      log(0, person, SeirState::kInfectious, kNoInfector);
    }
  }

  /// One epidemic hour: progression over every resident, then
  /// transmission at every occupied place. Within the hour, progressions
  /// are logged by person id, then exposures by person id.
  void step(Hour now, std::uint64_t& infections) {
    const DiseaseConfig& config = *epidemic_.config;
    std::vector<Transition> progressions;
    for (const auto& [person, stint] : residents_) {
      const std::uint8_t state = epidemic_.state[person];
      const Hour elapsed = now - epidemic_.since[person];
      if (state == raw(SeirState::kExposed) && elapsed >= config.latentHours) {
        progressions.push_back({person, SeirState::kInfectious, kNoInfector});
      } else if (state == raw(SeirState::kInfectious) &&
                 elapsed >= config.infectiousHours) {
        progressions.push_back({person, SeirState::kRecovered, kNoInfector});
      }
    }
    sortByPerson(progressions);
    for (const Transition& t : progressions) {
      epidemic_.state[t.person] = raw(t.newState);
      epidemic_.since[t.person] = now;
      if (t.newState == SeirState::kInfectious) {
        ++infectious_;
      } else {
        --infectious_;
      }
      log(now, t.person, t.newState, kNoInfector);
    }
    hourlyInfectious_[now] = infectious_;

    // Exposures only flip S -> E, so collecting across every place before
    // applying cannot change any draw or infector set.
    std::vector<Transition> exposures;
    for (const auto& [place, persons] : occupants_) {
      collectExposures(now, persons, exposures);
    }
    sortByPerson(exposures);
    for (const Transition& t : exposures) {
      epidemic_.state[t.person] = raw(SeirState::kExposed);
      epidemic_.since[t.person] = now;
      log(now, t.person, SeirState::kExposed, t.infector);
      ++infections;
    }
  }

  void close() {
    if (!buffer_.empty()) {
      writer_->writeChunk(buffer_);
      buffer_.clear();
    }
    writer_->close();
  }

 private:
  struct Stint {
    ActivityId activity = 0;
    PlaceId place = 0;
  };
  struct Transition {
    PersonId person = 0;
    SeirState newState = SeirState::kSusceptible;
    std::uint32_t infector = kNoInfector;
  };

  static void sortByPerson(std::vector<Transition>& transitions) {
    std::sort(transitions.begin(), transitions.end(),
              [](const Transition& a, const Transition& b) {
                return a.person < b.person;
              });
  }

  void occupy(PersonId person, PlaceId place) {
    auto& list = occupants_[place];
    occupantSlot_[person] = static_cast<std::uint32_t>(list.size());
    list.push_back(person);
  }

  void vacate(PersonId person, PlaceId place) {
    auto& list = occupants_[place];
    const std::uint32_t slot = occupantSlot_[person];
    CHISIM_CHECK(slot < list.size() && list[slot] == person,
                 "vacate: occupant slot out of sync");
    list[slot] = list.back();
    list.pop_back();
    if (slot < list.size()) {
      occupantSlot_[list[slot]] = slot;
    }
  }

  /// S -> E draws at one place: each susceptible is exposed with
  /// probability 1 - (1 - beta)^I; the infector is the infectious occupant
  /// minimizing a pair hash, ties to the lower id.
  void collectExposures(Hour now, const std::vector<PersonId>& persons,
                        std::vector<Transition>& out) const {
    if (persons.size() < 2) {
      return;
    }
    std::uint32_t infectious = 0;
    for (PersonId person : persons) {
      infectious +=
          epidemic_.state[person] == raw(SeirState::kInfectious) ? 1 : 0;
    }
    if (infectious == 0) {
      return;
    }
    const DiseaseConfig& config = *epidemic_.config;
    const double probability =
        1.0 - std::pow(1.0 - config.beta, static_cast<double>(infectious));
    for (PersonId person : persons) {
      if (epidemic_.state[person] != raw(SeirState::kSusceptible) ||
          diseaseUniform(config.seed, person, now) >= probability) {
        continue;
      }
      std::uint32_t infector = kNoInfector;
      double best = 2.0;
      for (PersonId candidate : persons) {
        if (epidemic_.state[candidate] != raw(SeirState::kInfectious)) {
          continue;
        }
        const double score = diseaseUniform(
            config.seed ^ 0xD15EA5Eull,
            static_cast<std::uint64_t>(person) * 2654435761ull + now,
            candidate);
        if (score < best || (score == best && candidate < infector)) {
          best = score;
          infector = candidate;
        }
      }
      out.push_back({person, SeirState::kExposed, infector});
    }
  }

  void log(Hour now, PersonId person, SeirState newState,
           std::uint32_t infector) {
    const Stint& stint = residents_.at(person);
    buffer_.push_back(elog::ExtendedEvent{
        table::Event{now, now + 1, person, stint.activity, stint.place},
        {static_cast<std::uint32_t>(newState), infector}});
    if (buffer_.size() >= 4096) {
      writer_->writeChunk(buffer_);
      buffer_.clear();
    }
  }

  DiseaseShared& epidemic_;
  std::vector<std::uint32_t>& hourlyInfectious_;
  std::unique_ptr<elog::ExtendedLogWriter> writer_;
  std::vector<elog::ExtendedEvent> buffer_;
  std::unordered_map<PersonId, Stint> residents_;
  std::unordered_map<PlaceId, std::vector<PersonId>> occupants_;
  std::vector<std::uint32_t> occupantSlot_;  ///< person -> index in its place
  std::uint32_t infectious_ = 0;
};

/// One virtual rank: its residents, an agenda of stint end hours, its
/// outbound migrants for the current hour, and its loggers.
struct Rank {
  std::unique_ptr<elog::EventLogger> logger;
  std::unique_ptr<RankEpidemic> epidemic;
  std::unordered_map<PersonId, AgentCursor> residents;
  std::vector<std::vector<PersonId>> agenda;
  std::vector<std::vector<PersonId>> outbound;  ///< by destination rank
  std::uint64_t events = 0;
  std::uint64_t migrationsOut = 0;
  std::uint64_t localMoves = 0;
  std::uint64_t initialAgents = 0;
  std::uint64_t infections = 0;
};

ModelStats runOracle(const pop::SyntheticPopulation& population,
                     const ModelConfig& config, const DiseaseConfig* disease,
                     DiseaseStats* diseaseStats) {
  CHISIM_REQUIRE(config.rankCount >= 1, "need at least one rank");
  CHISIM_REQUIRE(config.weeks >= 1, "need at least one week");
  CHISIM_REQUIRE(config.checkpointDir.empty() && !config.resume,
                 "the hourly oracle does not checkpoint or resume");
  std::filesystem::create_directories(config.logDirectory);

  const std::vector<int> placeRank =
      assignPlacesToRanks(population, config.rankCount, config.strategy);
  const pop::ScheduleGenerator generator(population, config.scheduleSeed);
  const Hour totalHours = config.weeks * kHoursPerWeek;
  const std::size_t personCount = population.persons().size();
  const auto rankCount = static_cast<std::size_t>(config.rankCount);

  DiseaseShared epidemic;
  std::uint64_t seeded = 0;
  if (disease != nullptr) {
    epidemic.config = disease;
    epidemic.state.assign(personCount, raw(SeirState::kSusceptible));
    epidemic.since.assign(personCount, 0);
    epidemic.hourlyInfectious.assign(
        rankCount, std::vector<std::uint32_t>(totalHours + 1, 0));
    seeded = seedInfections(epidemic, personCount);
  }

  util::WallTimer wall;
  std::vector<Rank> ranks(rankCount);
  for (std::size_t r = 0; r < rankCount; ++r) {
    const int self = static_cast<int>(r);
    ranks[r].logger = std::make_unique<elog::EventLogger>(
        std::make_unique<elog::ChunkedLogWriter>(
            elog::logFilePath(config.logDirectory, self),
            config.logCompression),
        config.logCacheEntries);
    if (disease != nullptr) {
      ranks[r].epidemic =
          std::make_unique<RankEpidemic>(epidemic, self, config.logDirectory);
    }
    ranks[r].agenda.resize(totalHours + 1);
    ranks[r].outbound.resize(rankCount);
  }

  const auto adopt = [&](Rank& rank, AgentCursor cursor) {
    const ScheduleEntry& stint = cursor.current();
    rank.agenda[std::min<Hour>(stint.end, totalHours)].push_back(cursor.person);
    if (rank.epidemic) {
      rank.epidemic->arrive(cursor.person, stint.activity, stint.place);
    }
    const PersonId person = cursor.person;
    rank.residents.emplace(person, std::move(cursor));
  };

  // Initial residency in population order, then the hour-0 epidemic step.
  for (const pop::Person& person : population.persons()) {
    AgentCursor cursor = makeCursor(person.id, 0, generator);
    Rank& owner =
        ranks[static_cast<std::size_t>(placeRank[cursor.current().place])];
    adopt(owner, std::move(cursor));
  }
  for (Rank& rank : ranks) {
    rank.initialAgents = rank.residents.size();
    if (rank.epidemic) {
      rank.epidemic->logSeeds();
      rank.epidemic->step(0, rank.infections);
    }
  }

  for (Hour now = 1; now <= totalHours; ++now) {
    // Movement and logging: the stint ending now is logged, and the agent
    // moves on to its next stint, here or on another rank.
    for (std::size_t r = 0; r < rankCount; ++r) {
      Rank& rank = ranks[r];
      for (PersonId person : rank.agenda[now]) {
        const auto it = rank.residents.find(person);
        CHISIM_CHECK(it != rank.residents.end(),
                     "agenda references missing agent");
        AgentCursor& cursor = it->second;
        const ScheduleEntry ending = cursor.current();
        rank.logger->log(table::Event{ending.start,
                                      std::min<Hour>(ending.end, totalHours),
                                      person, ending.activity, ending.place});
        ++rank.events;
        if (now == totalHours) {
          rank.residents.erase(it);
          continue;
        }
        const ScheduleEntry& next = advanceCursor(cursor, now, generator);
        const auto dest = static_cast<std::size_t>(placeRank[next.place]);
        if (dest == r) {
          ++rank.localMoves;
          if (rank.epidemic) {
            rank.epidemic->move(person, next.activity, next.place);
          }
          rank.agenda[std::min<Hour>(next.end, totalHours)].push_back(person);
        } else {
          ++rank.migrationsOut;
          if (rank.epidemic) {
            rank.epidemic->depart(person);
          }
          rank.outbound[dest].push_back(person);
          rank.residents.erase(it);
        }
      }
    }
    if (now == totalHours) {
      break;
    }

    // Exchange: each rank adopts its migrants in ascending source order.
    for (std::size_t r = 0; r < rankCount; ++r) {
      for (std::size_t source = 0; source < rankCount; ++source) {
        for (PersonId person : ranks[source].outbound[r]) {
          adopt(ranks[r], makeCursor(person, now, generator));
        }
      }
    }
    for (Rank& rank : ranks) {
      for (auto& batch : rank.outbound) {
        batch.clear();
      }
      if (rank.epidemic) {
        rank.epidemic->step(now, rank.infections);
      }
    }
  }

  ModelStats stats;
  stats.simulatedHours = totalHours;
  stats.hoursActive = totalHours;
  stats.agentHours = static_cast<std::uint64_t>(personCount) * totalHours;
  for (Rank& rank : ranks) {
    CHISIM_CHECK(rank.residents.empty(), "agents left after the final hour");
    rank.logger->close();
    if (rank.epidemic) {
      rank.epidemic->close();
    }
    stats.eventsLogged += rank.events;
    stats.migrations += rank.migrationsOut;
    stats.localMoves += rank.localMoves;
    stats.logBytes += rank.logger->writer().bytesWritten();
    stats.perRankEvents.push_back(rank.events);
    stats.perRankMigrationsOut.push_back(rank.migrationsOut);
    stats.perRankInitialAgents.push_back(rank.initialAgents);
  }
  stats.wallSeconds = wall.seconds();

  if (diseaseStats != nullptr) {
    DiseaseStats& out = *diseaseStats;
    out = DiseaseStats{};
    out.seeded = seeded;
    out.hourlyInfectious.assign(totalHours + 1, 0);
    for (std::size_t r = 0; r < rankCount; ++r) {
      out.infections += ranks[r].infections;
      for (Hour h = 0; h <= totalHours; ++h) {
        out.hourlyInfectious[h] += epidemic.hourlyInfectious[r][h];
      }
    }
    for (Hour h = 0; h <= totalHours; ++h) {
      if (out.hourlyInfectious[h] > out.peakInfectious) {
        out.peakInfectious = out.hourlyInfectious[h];
        out.peakHour = h;
      }
    }
    out.finalStates = epidemic.state;
    for (std::uint8_t state : out.finalStates) {
      out.recovered += state == raw(SeirState::kRecovered) ? 1 : 0;
    }
  }
  return stats;
}

}  // namespace

ModelStats runHourlyOracle(const pop::SyntheticPopulation& population,
                           const ModelConfig& config) {
  return runOracle(population, config, nullptr, nullptr);
}

ModelStats runHourlyOracle(const pop::SyntheticPopulation& population,
                           const ModelConfig& config,
                           const DiseaseConfig& disease,
                           DiseaseStats& diseaseStats) {
  return runOracle(population, config, &disease, &diseaseStats);
}

}  // namespace chisimnet::abm
