#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "chisimnet/abm/disease.hpp"
#include "chisimnet/abm/event_core.hpp"
#include "chisimnet/abm/model.hpp"
#include "chisimnet/elog/extended.hpp"
#include "chisimnet/table/event.hpp"

/// Crash-safe simulation: ABM checkpoint/restart with bit-identical resume.
///
/// Every config.checkpointEveryHours simulated hours — or at the top of the
/// first hour after a SIGTERM/SIGINT — each rank serializes its full state
/// into a CRC-framed binary file (rank_NNNN.<hour>.abmc, written via
/// tmp+rename), and rank 0 commits the set by atomically renaming a text
/// manifest over sim_manifest.chkp. A kill at ANY point leaves either the
/// previous consistent checkpoint or the new one, and `--resume` replays
/// from the manifest's hour with byte-identical CLG5/CLX5 output.
///
/// The quiet-hour barrier: the ranks agree on the sequence of active hours
/// in lockstep (through the hint-piggybacked exchange of DESIGN.md §3.7),
/// so "checkpoint at the first agreed hour >= N" evaluates identically on
/// every rank with ZERO extra communication — and at the top of an hour
/// every in-flight CMB2 migration batch has already been adopted, so no
/// wire state needs serializing. What a rank checkpoints:
///
///   - its residents as (person, weekIndex, stintIndex[, state, since]):
///     schedules are deterministic in (person, week), so the packed week
///     regenerates exactly on resume — cursors travel as coordinates
///   - its calendar buckets >= the checkpoint hour, FIFO order preserved
///     verbatim (bucket order IS log order)
///   - the CLG5 write offset, unflushed logger cache and flush counters —
///     the cache is checkpointed instead of flushed, so chunk boundaries
///     after a resume match the uninterrupted run byte for byte
///   - with disease: the CLX5 offset + unflushed transition buffer, the
///     progression-calendar buckets >= the hour (restored verbatim, never
///     re-derived), and this rank's hourlyInfectious prefix
///
/// On resume the log files are truncated to the recorded offsets (torn
/// tails, post-checkpoint chunks and any graceful-close footer all
/// discarded), which is what makes the final bytes match a run that was
/// never killed. Config/seed changes are rejected through simConfigHash, and
/// rank files whose person ids or hours fall outside the run are rejected
/// before any rank starts.

namespace chisimnet::abm {

inline constexpr const char* kSimManifestName = "sim_manifest.chkp";

/// One FIFO calendar bucket (activity changes or progressions).
struct HourBucket {
  table::Hour hour = 0;
  std::vector<table::PersonId> persons;
};

/// One resident agent's cursor (and disease state) at the checkpoint hour.
/// The schedule itself is NOT stored: ScheduleGenerator::packedWeek(person,
/// weekIndex) regenerates it exactly on resume.
struct AgentSnapshot {
  table::PersonId person = 0;
  std::uint32_t weekIndex = 0;
  std::uint32_t stintIndex = 0;
  std::uint32_t state = 0;   ///< SeirState raw; 0 when disease is off
  table::Hour since = 0;     ///< hour the state was entered; 0 when off
};

/// Everything one rank needs to resume at `hour`.
struct RankCheckpoint {
  table::Hour hour = 0;
  bool diseaseEnabled = false;
  /// Counters as of the TOP of `hour` (before that hour's increments), so
  /// the resumed loop re-processes the hour exactly like a clean run.
  RankOutcome outcome;
  std::vector<AgentSnapshot> residents;  ///< sorted by person id
  std::vector<HourBucket> calendar;      ///< activity buckets >= hour
  // CLG5 logger state.
  std::uint64_t logBytes = 0;
  std::uint64_t logEntries = 0;
  std::uint64_t logFlushCount = 0;
  std::vector<table::Event> logCache;    ///< unflushed cache, oldest first
  // Disease extras (valid only when diseaseEnabled).
  std::uint64_t clxBytes = 0;
  std::uint64_t clxEntries = 0;
  std::vector<elog::ExtendedEvent> clxBuffer;  ///< unflushed transitions
  std::vector<HourBucket> progressions;        ///< calendar buckets >= hour
  std::vector<std::uint32_t> hourlyInfectious; ///< this rank's rows [0, hour)
};

/// The committed-checkpoint descriptor rank 0 renames into place.
struct SimManifest {
  table::Hour hour = 0;
  int rankCount = 0;
  std::uint32_t configHash = 0;
  /// Cumulative across resumes, so a twice-resumed run still reports the
  /// total number of checkpoints the campaign wrote.
  std::uint64_t checkpointsWritten = 0;
};

/// A loaded, validated checkpoint set handed to the ranks.
struct SimResume {
  SimManifest manifest;
  std::vector<RankCheckpoint> ranks;  ///< indexed by rank
};

/// Hash of everything that determines the log bytes (and the checkpoint
/// layout): population shape, schedule seed, horizon, rank count, log
/// format knobs, and the full disease parameterization when enabled.
std::uint32_t simConfigHash(std::size_t personCount, std::size_t placeCount,
                            const ModelConfig& config,
                            const DiseaseConfig* disease);

/// CRC-framed binary round trip for one rank's state (exposed for the
/// property tests; save/load wrap these with tmp+rename files).
std::vector<std::byte> encodeRankCheckpoint(const RankCheckpoint& checkpoint);
RankCheckpoint decodeRankCheckpoint(std::span<const std::byte> bytes);

/// Writes rank_NNNN.<hour>.abmc via tmp+rename. Fires the abm.ckpt.write
/// fault site (ordinal = hour) before touching the filesystem.
void saveRankCheckpoint(const std::filesystem::path& dir, int rank,
                        const RankCheckpoint& checkpoint);

/// Rank 0 only, after every rank's state file landed (barrier between):
/// renames the manifest into place, then garbage-collects .abmc files from
/// superseded checkpoints.
void commitSimManifest(const std::filesystem::path& dir,
                       const SimManifest& manifest);

/// Reads the manifest; nullopt when none exists (fresh start).
std::optional<SimManifest> loadSimManifest(const std::filesystem::path& dir);

/// Loads one rank's state file for the manifest's hour. Throws on a
/// missing file or CRC/structure mismatch.
RankCheckpoint loadRankCheckpoint(const std::filesystem::path& dir, int rank,
                                  table::Hour hour);

/// Loads and validates the full checkpoint set: manifest present, rank
/// count and config hash match, manifest hour within `totalHours`, every
/// rank file consistent with the manifest hour, resident person ids below
/// `personCount` (weeks inside the run), and calendar buckets within
/// [hour, totalHours]. nullopt when no manifest exists.
std::optional<SimResume> loadSimResume(const std::filesystem::path& dir,
                                       int rankCount, std::uint32_t configHash,
                                       std::size_t personCount,
                                       table::Hour totalHours);

// ---------------------------------------------------------------------------
// Graceful shutdown. A SIGTERM/SIGINT sets an async-signal-safe flag; the
// rank loops OR the flag across ranks through the per-hour exchange (see
// kBatchFlagShutdown) so every rank agrees to checkpoint-and-exit at the
// top of the same hour.
// ---------------------------------------------------------------------------

/// True once a shutdown signal (or requestShutdown) was seen.
bool shutdownRequested() noexcept;

/// Sets the flag programmatically (tests, embedding applications).
void requestShutdown() noexcept;

/// Clears the flag (start of a fresh run).
void clearShutdownRequest() noexcept;

/// RAII SIGTERM/SIGINT handler installer: handlers set the shutdown flag;
/// previous dispositions are restored on destruction. Install only around
/// checkpoint-enabled runs — without a checkpoint directory the default
/// dispositions (terminate) are the right behavior.
class ScopedShutdownHandler {
 public:
  ScopedShutdownHandler();
  ~ScopedShutdownHandler();

  ScopedShutdownHandler(const ScopedShutdownHandler&) = delete;
  ScopedShutdownHandler& operator=(const ScopedShutdownHandler&) = delete;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace chisimnet::abm
