#include "chisimnet/abm/event_core.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "chisimnet/abm/migration.hpp"
#include "chisimnet/abm/sim_checkpoint.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::abm {

namespace {

using pop::kHoursPerWeek;
using table::Hour;
using table::PersonId;

/// Per-hour migration tags (below the reserved collective tags), plus a
/// one-shot tag for the initial residency scatter.
constexpr int kEventMigrationTagBase = (1 << 20) + (1 << 19);
constexpr int kInitScatterTag = (1 << 20) + (1 << 19) + (1 << 19);

std::vector<pop::PackedStint> copyStints(const pop::PackedWeek& week) {
  return {week.stints().begin(), week.stints().end()};
}

}  // namespace

void CalendarQueue::push(Hour due, PersonId person) {
  buckets_.at(due).push_back(person);
  ++pending_;
}

void CalendarQueue::clearBucket(Hour hour) {
  auto& bucket = buckets_.at(hour);
  CHISIM_CHECK(pending_ >= bucket.size(), "calendar accounting out of sync");
  pending_ -= bucket.size();
  bucket.clear();
  bucket.shrink_to_fit();
}

Hour CalendarQueue::nextOccupiedHour(Hour after) const {
  for (std::size_t h = after + 1; h < buckets_.size(); ++h) {
    if (!buckets_[h].empty()) {
      return static_cast<Hour>(h);
    }
  }
  return static_cast<Hour>(buckets_.size() - 1);
}

void runEventCoreRank(runtime::RankHandle& rank,
                      const EventCoreContext& context, RankOutcome& outcome) {
  const int self = rank.rank();
  const int rankCount = rank.size();
  const ModelConfig& config = *context.config;
  const pop::ScheduleGenerator& generator = *context.generator;
  const std::vector<int>& placeRank = *context.placeRank;
  const Hour totalHours = context.totalHours;

  const RankCheckpoint* resumePoint =
      context.resume != nullptr
          ? &context.resume->ranks.at(static_cast<std::size_t>(self))
          : nullptr;

  auto writer =
      resumePoint != nullptr
          ? std::make_unique<elog::ChunkedLogWriter>(
                elog::logFilePath(config.logDirectory, self),
                config.logCompression,
                elog::ChunkedLogWriter::ResumeAt{resumePoint->logBytes})
          : std::make_unique<elog::ChunkedLogWriter>(
                elog::logFilePath(config.logDirectory, self),
                config.logCompression);
  elog::EventLogger logger(std::move(writer), config.logCacheEntries);
  logger.setFaultRank(self);

  std::unique_ptr<DiseaseRank> epidemic;
  if (context.disease->enabled()) {
    epidemic = std::make_unique<DiseaseRank>(
        *context.disease, self, config.logDirectory, totalHours,
        resumePoint != nullptr ? resumePoint->clxBytes : 0);
  }

  // A rank failing (fault injection, I/O error, a peer's abort waking our
  // recv) must leave crash-shaped logs — no footer — so readers and the
  // synthesis quarantine treat them exactly like a SIGKILL's torn files.
  try {
  std::unordered_map<PersonId, pop::StintCursor> residents;
  CalendarQueue calendar(totalHours);

  const auto adopt = [&](pop::StintCursor cursor, Hour now) {
    const pop::ScheduleEntry entry = cursor.current();
    calendar.push(std::min<Hour>(entry.end, totalHours), cursor.person());
    if (epidemic) {
      epidemic->arrive(cursor.person(), entry.activity, entry.place, now);
    }
    residents.emplace(cursor.person(), std::move(cursor));
  };

  Hour globalNext = 0;
  if (resumePoint == nullptr) {
    // ---- initial residency -----------------------------------------------
    // Each rank generates only its 1/R slice of persons and scatters the
    // packed cursors to the owning ranks; owners adopt the merged batches
    // in ascending person id, which IS population order, so initial
    // calendar and occupancy order match an hourly loop that adopts the
    // population in order.
    const auto personCount =
        static_cast<PersonId>(context.population->persons().size());
    if (rankCount == 1) {
      for (PersonId person = 0; person < personCount; ++person) {
        adopt(pop::StintCursor(generator, person, 0), 0);
      }
    } else {
      std::vector<std::vector<MigrantRecord>> slices(
          static_cast<std::size_t>(rankCount));
      for (PersonId person = static_cast<PersonId>(self); person < personCount;
           person += static_cast<PersonId>(rankCount)) {
        pop::PackedWeek week = generator.packedWeek(person, 0);
        const auto dest =
            static_cast<std::size_t>(placeRank[week.entry(0).place]);
        slices[dest].push_back(MigrantRecord{person, 0, 0, copyStints(week)});
      }
      for (int dest = 0; dest < rankCount; ++dest) {
        if (dest != self) {
          rank.send(dest, kInitScatterTag,
                    encodeMigrationBatch(MigrationBatch{
                        0, 0, 0, slices[static_cast<std::size_t>(dest)]}));
        }
      }
      std::vector<MigrantRecord> owned =
          std::move(slices[static_cast<std::size_t>(self)]);
      for (int source = 0; source < rankCount; ++source) {
        if (source == self) {
          continue;
        }
        MigrationBatch batch = decodeMigrationBatch(
            rank.recv(source, kInitScatterTag).payload, 0);
        for (MigrantRecord& record : batch.migrants) {
          owned.push_back(std::move(record));
        }
      }
      std::sort(owned.begin(), owned.end(),
                [](const MigrantRecord& a, const MigrantRecord& b) {
                  return a.person < b.person;
                });
      for (MigrantRecord& record : owned) {
        adopt(pop::StintCursor(
                  record.person,
                  pop::PackedWeek(record.weekIndex, std::move(record.stints)),
                  record.stintIndex),
              0);
      }
    }
    outcome.initialAgents = residents.size();

    if (epidemic) {
      epidemic->logSeeds();
      epidemic->stepEvent(0, outcome.infections);
    }

    // First globally active hour: every rank knows its exact local next
    // event only after adopting its residents and running the hour-0
    // epidemic step, so this one agreement is an explicit min-reduction;
    // every later hour is agreed through hints carried on the migration
    // exchange itself.
    Hour localNext = calendar.nextOccupiedHour(0);
    if (epidemic) {
      localNext =
          std::min(localNext, epidemic->conservativeNextEvent(0, totalHours));
    }
    globalNext = rankCount == 1
                     ? localNext
                     : static_cast<Hour>(rank.allReduceMinU64(localNext));
  } else {
    // ---- resume ----------------------------------------------------------
    // Counters, cursor coordinates, calendar buckets and the unflushed log
    // caches come from the checkpoint; schedules regenerate exactly from
    // (person, weekIndex). restoreResident rebuilds occupancy and
    // infectious accounting WITHOUT rescheduling progressions — the
    // progression calendar is restored verbatim below. No scatter, no
    // hour-0 step, no min-reduction: every rank resumes at the manifest
    // hour, which all ranks had agreed on when the checkpoint was written.
    outcome = resumePoint->outcome;
    logger.restoreCache(resumePoint->logCache, resumePoint->logEntries,
                        resumePoint->logFlushCount);
    for (const AgentSnapshot& agent : resumePoint->residents) {
      pop::StintCursor cursor(
          agent.person, generator.packedWeek(agent.person, agent.weekIndex),
          agent.stintIndex);
      if (epidemic) {
        const pop::ScheduleEntry entry = cursor.current();
        epidemic->restoreResident(agent.person, entry.activity, entry.place);
      }
      residents.emplace(agent.person, std::move(cursor));
    }
    for (const HourBucket& bucket : resumePoint->calendar) {
      for (PersonId person : bucket.persons) {
        calendar.push(bucket.hour, person);
      }
    }
    if (epidemic) {
      for (const HourBucket& bucket : resumePoint->progressions) {
        DiseaseRank::CalendarBucket restored;
        restored.hour = bucket.hour;
        restored.persons = bucket.persons;
        epidemic->restoreCalendar(restored);
      }
      epidemic->restoreBuffer(resumePoint->clxBuffer);
      CHISIM_CHECK(epidemic->writerEntries() == resumePoint->clxEntries,
                   "resumed CLX5 entry count does not match the checkpoint");
    }
    globalNext = resumePoint->hour;
  }

  const bool checkpointing = !config.checkpointDir.empty();
  Hour nextCheckpointDue = static_cast<Hour>(
      (resumePoint != nullptr ? resumePoint->hour : 0) +
      config.checkpointEveryHours);
  bool shutdownAgreed = false;

  const auto writeCheckpoint = [&](Hour now) {
    // Push buffered file bytes to the OS so everything below the recorded
    // offsets survives a kill right after the manifest commit. The
    // unflushed caches travel INSIDE the checkpoint instead of being
    // flushed — a flush here would move chunk boundaries relative to an
    // uninterrupted run and break byte-identity.
    logger.sync();
    if (epidemic) {
      epidemic->sync();
    }
    RankCheckpoint ckpt;
    ckpt.hour = now;
    ckpt.diseaseEnabled = epidemic != nullptr;
    ckpt.outcome = outcome;
    ckpt.residents.reserve(residents.size());
    for (const auto& [person, cursor] : residents) {
      AgentSnapshot agent;
      agent.person = person;
      agent.weekIndex = cursor.weekIndex();
      agent.stintIndex = cursor.index();
      if (epidemic) {
        agent.state = context.disease->state[person];
        agent.since = context.disease->since[person];
      }
      ckpt.residents.push_back(agent);
    }
    std::sort(ckpt.residents.begin(), ckpt.residents.end(),
              [](const AgentSnapshot& a, const AgentSnapshot& b) {
                return a.person < b.person;
              });
    for (Hour h = now; h <= totalHours; ++h) {
      const auto& bucket = calendar.bucket(h);
      if (!bucket.empty()) {
        ckpt.calendar.push_back(HourBucket{h, bucket});
      }
    }
    ckpt.logBytes = logger.writer().bytesWritten();
    ckpt.logEntries = logger.entriesLogged();
    ckpt.logFlushCount = logger.flushCount();
    ckpt.logCache = logger.cacheSnapshot();
    if (epidemic) {
      ckpt.clxBytes = epidemic->writerBytes();
      ckpt.clxEntries = epidemic->writerEntries();
      ckpt.clxBuffer = epidemic->bufferSnapshot();
      for (const DiseaseRank::CalendarBucket& bucket :
           epidemic->calendarSnapshot(now)) {
        ckpt.progressions.push_back(HourBucket{bucket.hour, bucket.persons});
      }
      const std::vector<std::uint32_t>& rows =
          context.disease->hourlyInfectious[static_cast<std::size_t>(self)];
      ckpt.hourlyInfectious.assign(rows.begin(), rows.begin() + now);
    }
    saveRankCheckpoint(config.checkpointDir, self, ckpt);
    ++outcome.checkpointsWritten;
    rank.barrier();
    if (self == 0) {
      commitSimManifest(config.checkpointDir,
                        SimManifest{now, rankCount, context.configHash,
                                    context.checkpointsBase +
                                        outcome.checkpointsWritten});
    }
    rank.barrier();
  };

  std::vector<std::vector<MigrantRecord>> outbound(
      static_cast<std::size_t>(rankCount));

  while (true) {
    const Hour now = globalNext;
    if (runtime::fault::armed()) {
      runtime::FaultSite site;
      site.rank = self;
      site.ordinal = now;
      runtime::fault::hit("abm.step", site);
    }
    // Quiet-hour barrier: `now` is the same on every rank (the agreed
    // active-hour sequence), so "first active hour >= the due hour" and
    // "shutdown agreed last hour" evaluate identically everywhere — the
    // checkpoint needs no extra collective beyond its commit barriers.
    if (checkpointing && now < totalHours) {
      const bool stopNow =
          shutdownAgreed || (rankCount == 1 && shutdownRequested());
      if (stopNow ||
          (config.checkpointEveryHours > 0 && now >= nextCheckpointDue)) {
        writeCheckpoint(now);
        if (stopNow) {
          // Graceful shutdown: an ordinary close. The footer (and any
          // chunk the close flushes) sits ABOVE the checkpointed offsets,
          // so the resume truncation discards it and the final bytes still
          // match an uninterrupted run.
          outcome.interrupted = true;
          logger.close();
          if (epidemic) {
            epidemic->close();
          }
          outcome.logBytes = logger.writer().bytesWritten();
          return;
        }
        nextCheckpointDue =
            static_cast<Hour>(now + config.checkpointEveryHours);
      }
    }
    ++outcome.hoursProcessed;
    const std::size_t depth =
        calendar.pending() + (epidemic ? epidemic->pendingProgressions() : 0);
    outcome.peakQueueDepth = std::max<std::uint64_t>(outcome.peakQueueDepth, depth);
    for (auto& batch : outbound) {
      batch.clear();
    }

    // Movement phase: identical traversal to an hourly loop's agenda.
    auto& bucket = calendar.bucket(now);
    for (PersonId person : bucket) {
      auto it = residents.find(person);
      CHISIM_CHECK(it != residents.end(), "calendar references missing agent");
      pop::StintCursor& cursor = it->second;
      const pop::ScheduleEntry ending = cursor.current();
      CHISIM_CHECK(ending.end == now || now == totalHours,
                   "calendar hour mismatch");

      logger.log(table::Event{ending.start,
                              std::min<Hour>(ending.end, totalHours), person,
                              ending.activity, ending.place});
      ++outcome.events;

      if (now == totalHours) {
        residents.erase(it);
        continue;  // simulation over; no further movement
      }

      const pop::ScheduleEntry next = cursor.advance(generator, now);
      const int dest = placeRank[next.place];
      if (dest == self) {
        ++outcome.localMoves;
        if (epidemic) {
          epidemic->move(person, next.activity, next.place);
        }
        calendar.push(std::min<Hour>(next.end, totalHours), person);
      } else {
        ++outcome.migrationsOut;
        if (epidemic) {
          epidemic->depart(person);
        }
        outbound[static_cast<std::size_t>(dest)].push_back(
            MigrantRecord{person, cursor.weekIndex(), cursor.index(),
                          copyStints(cursor.week())});
        residents.erase(it);
      }
    }
    calendar.clearBucket(now);

    if (now == totalHours) {
      break;  // horizon reached: no exchange, no epidemic step
    }

    if (rankCount > 1) {
      // Conservative lookahead hint from what this rank knows BEFORE the
      // exchange: its remaining calendar, its scheduled progressions (plus
      // "next hour" whenever this hour could create or sustain
      // infectiousness), and — crucially — the next event of every migrant
      // it is sending away, so the union of all hints bounds every rank's
      // true next event from below. All ranks then take the same min over
      // the same hint multiset, which keeps them in lockstep without a
      // barrier or a second collective.
      Hour hint = calendar.nextOccupiedHour(now);
      if (epidemic) {
        hint = std::min(hint, epidemic->conservativeNextEvent(now, totalHours));
      }
      for (const auto& batch : outbound) {
        for (const MigrantRecord& record : batch) {
          const pop::PackedStint& stint = record.stints[record.stintIndex];
          hint = std::min(
              hint, std::min<Hour>(
                        record.weekIndex * kHoursPerWeek + stint.endHour,
                        totalHours));
          if (epidemic) {
            hint = std::min(hint, epidemic->migrantNextEvent(record.person,
                                                             now, totalHours));
          }
        }
      }

      // Shutdown agreement rides on the same exchange: each rank samples
      // its signal flag once per hour, the flags OR together across ranks,
      // and a set bit makes EVERY rank checkpoint-and-exit at the top of
      // the next agreed hour.
      const std::uint32_t flags = checkpointing && shutdownRequested()
                                      ? kBatchFlagShutdown
                                      : 0;
      const int tag =
          kEventMigrationTagBase + static_cast<int>(now % (1 << 19));
      for (int dest = 0; dest < rankCount; ++dest) {
        if (dest != self) {
          if (runtime::fault::armed()) {
            runtime::FaultSite site;
            site.rank = self;
            site.ordinal = now;
            runtime::fault::hit("abm.migrate.send", site);
          }
          rank.send(dest, tag,
                    encodeMigrationBatch(MigrationBatch{
                        now, hint, flags,
                        outbound[static_cast<std::size_t>(dest)]}));
        }
      }
      Hour candidate = hint;
      std::uint32_t combinedFlags = flags;
      for (int source = 0; source < rankCount; ++source) {
        if (source == self) {
          continue;
        }
        MigrationBatch batch =
            decodeMigrationBatch(rank.recv(source, tag).payload, now);
        CHISIM_CHECK(batch.nextEventHint > now &&
                         batch.nextEventHint <= totalHours,
                     "migration hint outside the open horizon");
        combinedFlags |= batch.flags;
        for (MigrantRecord& record : batch.migrants) {
          adopt(pop::StintCursor(record.person,
                                 pop::PackedWeek(record.weekIndex,
                                                 std::move(record.stints)),
                                 record.stintIndex),
                now);
        }
        candidate = std::min(candidate, static_cast<Hour>(batch.nextEventHint));
      }
      globalNext = candidate;
      if ((combinedFlags & kBatchFlagShutdown) != 0) {
        shutdownAgreed = true;
      }
    }

    if (epidemic) {
      epidemic->stepEvent(now, outcome.infections);
    }

    if (rankCount == 1) {
      globalNext = calendar.nextOccupiedHour(now);
      if (epidemic) {
        globalNext =
            std::min(globalNext, epidemic->conservativeNextEvent(now, totalHours));
      }
    } else {
      // The agreed hour must never land past this rank's next real event —
      // that would silently drop scheduled work.
      Hour exact = calendar.nextOccupiedHour(now);
      if (epidemic) {
        exact = std::min(exact, epidemic->conservativeNextEvent(now, totalHours));
      }
      CHISIM_CHECK(globalNext > now && globalNext <= exact,
                   "event-core lookahead would skip a scheduled event");
    }
  }

  CHISIM_CHECK(residents.empty(), "agents left after the final hour");
  logger.close();
  if (epidemic) {
    epidemic->close();
  }
  outcome.logBytes = logger.writer().bytesWritten();
  } catch (...) {
    logger.abandon();
    if (epidemic) {
      epidemic->abandon();
    }
    throw;
  }
}

}  // namespace chisimnet::abm
