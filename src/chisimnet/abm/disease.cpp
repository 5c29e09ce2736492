#include "chisimnet/abm/disease.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "chisimnet/util/error.hpp"
#include "chisimnet/util/rng.hpp"

namespace chisimnet::abm {

namespace {

using table::ActivityId;
using table::Hour;
using table::PersonId;
using table::PlaceId;

std::uint8_t raw(SeirState state) { return static_cast<std::uint8_t>(state); }

}  // namespace

std::string seirStateName(SeirState state) {
  switch (state) {
    case SeirState::kSusceptible:
      return "susceptible";
    case SeirState::kExposed:
      return "exposed";
    case SeirState::kInfectious:
      return "infectious";
    case SeirState::kRecovered:
      return "recovered";
  }
  return "unknown";
}

double diseaseUniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state =
      seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xbf58476d1ce4e5b9ULL);
  return static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
}

std::uint64_t seedInfections(DiseaseShared& shared, std::size_t personCount) {
  std::uint64_t seeded = 0;
  util::Rng seedRng(shared.config->seed);
  while (seeded < shared.config->seedCount && seeded < personCount) {
    const auto person = static_cast<PersonId>(seedRng.uniformBelow(personCount));
    if (shared.state[person] == raw(SeirState::kSusceptible)) {
      shared.state[person] = raw(SeirState::kInfectious);
      ++seeded;
    }
  }
  return seeded;
}

DiseaseRank::DiseaseRank(DiseaseShared& shared, int rank,
                         const std::filesystem::path& directory,
                         Hour totalHours, std::uint64_t resumeWriterAtBytes)
    : shared_(shared), rank_(rank), totalHours_(totalHours) {
  char name[32];
  std::snprintf(name, sizeof(name), "rank_%04d.clx5", rank);
  if (resumeWriterAtBytes != 0) {
    writer_ = std::make_unique<elog::ExtendedLogWriter>(
        directory / name, 2,
        elog::ExtendedLogWriter::ResumeAt{resumeWriterAtBytes});
  } else {
    writer_ = std::make_unique<elog::ExtendedLogWriter>(directory / name, 2);
  }
  occupantSlot_.resize(shared_.state.size());
  progressionCalendar_.resize(totalHours_);
}

void DiseaseRank::occupy(PersonId person, PlaceId place) {
  auto& list = occupants_[place];
  occupantSlot_[person] = static_cast<std::uint32_t>(list.size());
  list.push_back(person);
}

void DiseaseRank::vacate(PersonId person, PlaceId place) {
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

void DiseaseRank::addInfectiousAt(PlaceId place) { ++infectiousAt_[place]; }

void DiseaseRank::removeInfectiousAt(PlaceId place) {
  auto it = infectiousAt_.find(place);
  CHISIM_CHECK(it != infectiousAt_.end() && it->second > 0,
               "infectious count underflow at place");
  if (--it->second == 0) {
    infectiousAt_.erase(it);
  }
}

Hour DiseaseRank::progressionDue(PersonId person) const {
  const DiseaseConfig& config = *shared_.config;
  const Hour since = shared_.since[person];
  const std::uint8_t state = stateOf(person);
  if (state == raw(SeirState::kExposed)) {
    // Exposure happens during an hour's transmission phase, so the first
    // scan that can progress it is the next hour even when latentHours == 0.
    return since + std::max<Hour>(config.latentHours, 1);
  }
  CHISIM_CHECK(state == raw(SeirState::kInfectious),
               "progression due asked for a non-progressing state");
  // since == 0 identifies a seed: its state was set before the hour-0 scan,
  // so the exact threshold applies (it can even recover at hour 0).
  return since == 0 ? config.infectiousHours
                    : since + std::max<Hour>(config.infectiousHours, 1);
}

void DiseaseRank::scheduleProgression(PersonId person, Hour due) {
  if (due >= totalHours_) {
    return;  // the last epidemic step runs at totalHours - 1
  }
  progressionCalendar_[due].push_back(person);
  ++pendingProgressions_;
}

void DiseaseRank::arrive(PersonId person, ActivityId activity, PlaceId place,
                         Hour now) {
  residents_[person] = StintInfo{activity, place};
  occupy(person, place);
  const std::uint8_t state = stateOf(person);
  if (state == raw(SeirState::kInfectious)) {
    ++infectiousResidents_;
    addInfectiousAt(place);
  }
  if (state == raw(SeirState::kExposed) ||
      state == raw(SeirState::kInfectious)) {
    scheduleProgression(person, std::max(progressionDue(person), now));
  }
}

void DiseaseRank::move(PersonId person, ActivityId activity, PlaceId place) {
  StintInfo& info = residents_.at(person);
  const PlaceId from = info.place;
  vacate(person, from);
  info.activity = activity;
  info.place = place;
  occupy(person, place);  // refreshes info.slot
  if (stateOf(person) == raw(SeirState::kInfectious)) {
    removeInfectiousAt(from);
    addInfectiousAt(place);
  }
}

void DiseaseRank::depart(PersonId person) {
  auto it = residents_.find(person);
  CHISIM_CHECK(it != residents_.end(), "depart: person is not a resident");
  vacate(person, it->second.place);
  if (stateOf(person) == raw(SeirState::kInfectious)) {
    CHISIM_CHECK(infectiousResidents_ > 0, "infectious resident underflow");
    --infectiousResidents_;
    removeInfectiousAt(it->second.place);
  }
  residents_.erase(it);
}

void DiseaseRank::logTransition(Hour now, PersonId person, SeirState newState,
                                std::uint32_t infector) {
  const StintInfo& info = residents_.at(person);
  elog::ExtendedEvent entry;
  entry.base = table::Event{now, now + 1, person, info.activity, info.place};
  entry.extras = {static_cast<std::uint32_t>(newState), infector};
  buffer_.push_back(std::move(entry));
  if (buffer_.size() >= 4096) {
    writer_->writeChunk(buffer_);
    buffer_.clear();
  }
}

void DiseaseRank::logSeeds() {
  std::vector<PersonId> seeds;
  for (const auto& [person, info] : residents_) {
    if (stateOf(person) == raw(SeirState::kInfectious)) {
      seeds.push_back(person);
    }
  }
  std::sort(seeds.begin(), seeds.end());
  for (PersonId person : seeds) {
    logTransition(0, person, SeirState::kInfectious, kNoInfector);
  }
}

void DiseaseRank::collectExposures(Hour now,
                                   const std::vector<PersonId>& persons,
                                   std::vector<Transition>& out) const {
  if (persons.size() < 2) {
    return;
  }
  std::uint32_t infectious = 0;
  for (PersonId person : persons) {
    if (stateOf(person) == raw(SeirState::kInfectious)) {
      ++infectious;
    }
  }
  if (infectious == 0) {
    return;
  }
  const DiseaseConfig& config = *shared_.config;
  const double escape =
      std::pow(1.0 - config.beta, static_cast<double>(infectious));
  const double infectionProbability = 1.0 - escape;
  for (PersonId person : persons) {
    if (stateOf(person) != raw(SeirState::kSusceptible)) {
      continue;
    }
    if (diseaseUniform(config.seed, person, now) >= infectionProbability) {
      continue;
    }
    // Deterministic, rank- and order-invariant infector choice: the
    // infectious occupant minimizing a pair hash, ties to the lower id.
    std::uint32_t infector = kNoInfector;
    double best = 2.0;
    for (PersonId candidate : persons) {
      if (stateOf(candidate) != raw(SeirState::kInfectious)) {
        continue;
      }
      const double score = diseaseUniform(
          config.seed ^ 0xD15EA5Eull,
          static_cast<std::uint64_t>(person) * 2654435761ull + now, candidate);
      if (score < best || (score == best && candidate < infector)) {
        best = score;
        infector = candidate;
      }
    }
    out.push_back(Transition{person, SeirState::kExposed, infector});
  }
}

void DiseaseRank::applyProgressions(Hour now,
                                    std::vector<Transition>& transitions) {
  std::sort(transitions.begin(), transitions.end(),
            [](const Transition& a, const Transition& b) {
              return a.person < b.person;
            });
  const DiseaseConfig& config = *shared_.config;
  for (const Transition& transition : transitions) {
    const PersonId person = transition.person;
    shared_.state[person] = raw(transition.newState);
    shared_.since[person] = now;
    const PlaceId place = residents_.at(person).place;
    if (transition.newState == SeirState::kInfectious) {
      ++infectiousResidents_;
      addInfectiousAt(place);
      scheduleProgression(person,
                          now + std::max<Hour>(config.infectiousHours, 1));
    } else {
      CHISIM_CHECK(infectiousResidents_ > 0, "infectious resident underflow");
      --infectiousResidents_;
      removeInfectiousAt(place);
    }
    logTransition(now, person, transition.newState, kNoInfector);
  }
}

void DiseaseRank::applyExposures(Hour now, std::vector<Transition>& exposures,
                                 std::uint64_t& infections) {
  std::sort(exposures.begin(), exposures.end(),
            [](const Transition& a, const Transition& b) {
              return a.person < b.person;
            });
  const DiseaseConfig& config = *shared_.config;
  for (const Transition& exposure : exposures) {
    const PersonId person = exposure.person;
    shared_.state[person] = raw(SeirState::kExposed);
    shared_.since[person] = now;
    scheduleProgression(person, now + std::max<Hour>(config.latentHours, 1));
    logTransition(now, person, SeirState::kExposed, exposure.infector);
    if (exposure.infector != kNoInfector) {
      ++infections;
    }
  }
}

void DiseaseRank::stepEvent(Hour now, std::uint64_t& infections) {
  const DiseaseConfig& config = *shared_.config;

  // Progression from the calendar. Entries are scheduled at the exact first
  // hour a full per-hour scan would fire them, so validating the same scan
  // condition here yields the same transition set: stale entries (the
  // person migrated away, or a leave-and-return left duplicates) simply
  // fail the residency/state check and are skipped.
  std::vector<Transition> transitions;
  if (now < totalHours_) {
    auto& bucket = progressionCalendar_[now];
    CHISIM_CHECK(pendingProgressions_ >= bucket.size(),
                 "progression calendar count out of sync");
    pendingProgressions_ -= bucket.size();
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
    for (PersonId person : bucket) {
      if (!residents_.contains(person)) {
        continue;
      }
      const std::uint8_t state = stateOf(person);
      if (state == raw(SeirState::kExposed) &&
          now - shared_.since[person] >= config.latentHours) {
        transitions.push_back(
            Transition{person, SeirState::kInfectious, kNoInfector});
      } else if (state == raw(SeirState::kInfectious) &&
                 now - shared_.since[person] >= config.infectiousHours) {
        transitions.push_back(
            Transition{person, SeirState::kRecovered, kNoInfector});
      }
    }
    bucket.clear();
    bucket.shrink_to_fit();
  }
  applyProgressions(now, transitions);
  shared_.hourlyInfectious[static_cast<std::size_t>(rank_)][now] =
      infectiousResidents_;

  // Transmission only where an infectious occupant actually is. A full
  // hourly scan visits every occupied place and skips those with zero
  // infectious; the infectiousAt_ index names exactly the non-skipped ones.
  std::vector<Transition> exposures;
  for (const auto& [place, count] : infectiousAt_) {
    collectExposures(now, occupants_.at(place), exposures);
  }
  applyExposures(now, exposures, infections);
}

Hour DiseaseRank::conservativeNextEvent(Hour now, Hour limit) const {
  if (infectiousResidents_ > 0 ||
      (now < totalHours_ && !progressionCalendar_[now].empty())) {
    return std::min<Hour>(now + 1, limit);
  }
  if (pendingProgressions_ == 0) {
    return limit;
  }
  for (Hour h = now + 1; h < totalHours_ && h < limit; ++h) {
    if (!progressionCalendar_[h].empty()) {
      return h;
    }
  }
  return limit;
}

Hour DiseaseRank::migrantNextEvent(PersonId person, Hour now,
                                   Hour limit) const {
  const std::uint8_t state = stateOf(person);
  if (state == raw(SeirState::kInfectious)) {
    return std::min<Hour>(now + 1, limit);
  }
  if (state == raw(SeirState::kExposed)) {
    return std::min(std::max<Hour>(progressionDue(person), now + 1), limit);
  }
  return limit;
}

void DiseaseRank::close() {
  if (!buffer_.empty()) {
    writer_->writeChunk(buffer_);
    buffer_.clear();
  }
  writer_->close();
}

std::vector<DiseaseRank::CalendarBucket> DiseaseRank::calendarSnapshot(
    Hour fromHour) const {
  std::vector<CalendarBucket> buckets;
  for (Hour h = fromHour; h < totalHours_; ++h) {
    if (!progressionCalendar_[h].empty()) {
      buckets.push_back(CalendarBucket{h, progressionCalendar_[h]});
    }
  }
  return buckets;
}

void DiseaseRank::restoreResident(PersonId person, ActivityId activity,
                                  PlaceId place) {
  residents_[person] = StintInfo{activity, place};
  occupy(person, place);
  if (stateOf(person) == raw(SeirState::kInfectious)) {
    ++infectiousResidents_;
    addInfectiousAt(place);
  }
}

void DiseaseRank::restoreCalendar(const CalendarBucket& bucket) {
  CHISIM_CHECK(bucket.hour < totalHours_,
               "checkpointed calendar bucket past the horizon");
  auto& target = progressionCalendar_[bucket.hour];
  CHISIM_CHECK(target.empty(), "calendar bucket restored twice");
  target = bucket.persons;
  pendingProgressions_ += bucket.persons.size();
}

void DiseaseRank::restoreBuffer(std::vector<elog::ExtendedEvent> entries) {
  CHISIM_CHECK(buffer_.empty(), "CLX5 buffer restored twice");
  buffer_ = std::move(entries);
}

void DiseaseRank::sync() { writer_->sync(); }

void DiseaseRank::abandon() {
  buffer_.clear();
  writer_->abandon();
}

}  // namespace chisimnet::abm
