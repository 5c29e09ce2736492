#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "chisimnet/pop/schedule.hpp"
#include "chisimnet/table/event.hpp"

/// Timestamped migration messages for the event-driven ABM core.
///
/// When an agent's new place lives on another rank, the sender ships the
/// agent's full cursor state — the current packed week plus the stint index
/// within it — so the destination resumes the schedule without regenerating
/// it. Each batch is stamped with the simulation hour it belongs to
/// (validated on receipt against the receiver's clock) and carries the
/// sender's conservative next-event hint, which is how the ranks agree on
/// the next globally active hour without a separate reduction (see
/// DESIGN.md §3.7).

namespace chisimnet::abm {

/// One migrating agent: cursor state sufficient to resume its schedule.
struct MigrantRecord {
  table::PersonId person = 0;
  std::uint32_t weekIndex = 0;
  std::uint32_t stintIndex = 0;
  std::vector<pop::PackedStint> stints;  ///< the full current packed week
};

/// Control flags OR-combined across ranks via the per-hour exchange (every
/// rank receives every other rank's flags, so the OR is a free all-reduce).
inline constexpr std::uint32_t kBatchFlagShutdown = 1u << 0;

/// Everything one rank sends another for one simulation hour.
struct MigrationBatch {
  table::Hour hour = 0;               ///< the hour the moves happened
  std::uint64_t nextEventHint = 0;    ///< sender's earliest possible next
                                      ///< active hour (> hour)
  std::uint32_t flags = 0;            ///< kBatchFlag* bits (shutdown request)
  std::vector<MigrantRecord> migrants;
};

std::vector<std::byte> encodeMigrationBatch(const MigrationBatch& batch);

/// Decodes and validates a batch; throws unless the embedded hour stamp
/// equals `expectedHour` and every record is structurally sound.
MigrationBatch decodeMigrationBatch(std::span<const std::byte> payload,
                                    table::Hour expectedHour);

}  // namespace chisimnet::abm
