#include "chisimnet/abm/sim_checkpoint.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::abm {

namespace {

using table::Hour;
using table::PersonId;

/// Rank state file header: magic u32 "ABMC" | version u32 | crc32 u32 over
/// the body | body.
constexpr std::uint32_t kRankMagic = 0x434D4241u;  // "ABMC"
constexpr std::uint32_t kRankVersion = 1;
constexpr const char* kManifestMagic = "SCKP1";

void putBuckets(util::ByteWriter& out, const std::vector<HourBucket>& buckets) {
  out.u32(static_cast<std::uint32_t>(buckets.size()));
  for (const HourBucket& bucket : buckets) {
    out.u32(bucket.hour);
    out.u32(static_cast<std::uint32_t>(bucket.persons.size()));
    out.rows(bucket.persons);
  }
}

std::vector<HourBucket> takeBuckets(util::ByteReader& in) {
  // Each bucket takes at least 8 bytes (hour + person count).
  const std::uint64_t count = in.count(in.u32(), 8, "calendar buckets");
  std::vector<HourBucket> buckets;
  buckets.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    HourBucket bucket;
    bucket.hour = in.u32();
    bucket.persons = in.rows<PersonId>(in.u32(), "bucket entries");
    buckets.push_back(std::move(bucket));
  }
  return buckets;
}

/// Buffered CLX5 disease transitions: per entry the base log entry row and
/// its two extra columns.
void putTransitions(util::ByteWriter& out,
                    const std::vector<elog::ExtendedEvent>& transitions) {
  out.u32(static_cast<std::uint32_t>(transitions.size()));
  for (const elog::ExtendedEvent& entry : transitions) {
    CHISIM_CHECK(entry.extras.size() == 2,
                 "disease buffer entry must carry two extras");
    out.row(entry.base);
    out.rows(entry.extras);
  }
}

std::vector<elog::ExtendedEvent> takeTransitions(util::ByteReader& in) {
  const std::uint64_t count = in.count(
      in.u32(), sizeof(table::Event) + 2 * 4, "buffered transitions");
  std::vector<elog::ExtendedEvent> transitions(count);
  for (elog::ExtendedEvent& entry : transitions) {
    entry.base = in.row<table::Event>();
    entry.extras = in.rows<std::uint32_t>(2, "transition extras");
  }
  return transitions;
}

std::string rankFileName(int rank, Hour hour) {
  char name[48];
  std::snprintf(name, sizeof(name), "rank_%04d.%u.abmc", rank,
                static_cast<unsigned>(hour));
  return name;
}

std::filesystem::path manifestPath(const std::filesystem::path& dir) {
  return dir / kSimManifestName;
}

/// A CRC only proves a rank file is the one that was written, not that it
/// belongs to this run: every person id the cores index with and every
/// calendar hour must lie inside the run being resumed.
void checkResumeBounds(const RankCheckpoint& checkpoint, int rank,
                       std::size_t personCount, Hour totalHours) {
  const std::string where = "rank " + std::to_string(rank) + " checkpoint ";
  const Hour weeks = totalHours / pop::kHoursPerWeek;
  for (const AgentSnapshot& agent : checkpoint.residents) {
    CHISIM_CHECK(agent.person < personCount,
                 where + "names person " + std::to_string(agent.person) +
                     " in a population of " + std::to_string(personCount));
    CHISIM_CHECK(agent.weekIndex < weeks,
                 where + "places person " + std::to_string(agent.person) +
                     " in week " + std::to_string(agent.weekIndex) +
                     " of a " + std::to_string(weeks) + "-week run");
  }
  for (const HourBucket& bucket : checkpoint.calendar) {
    CHISIM_CHECK(bucket.hour >= checkpoint.hour && bucket.hour <= totalHours,
                 where + "has an activity bucket at hour " +
                     std::to_string(bucket.hour) + " outside [" +
                     std::to_string(checkpoint.hour) + ", " +
                     std::to_string(totalHours) + "]");
  }
  for (const HourBucket& bucket : checkpoint.progressions) {
    CHISIM_CHECK(bucket.hour >= checkpoint.hour && bucket.hour < totalHours,
                 where + "has a progression bucket at hour " +
                     std::to_string(bucket.hour) + " outside [" +
                     std::to_string(checkpoint.hour) + ", " +
                     std::to_string(totalHours) + ")");
  }
}

}  // namespace

std::uint32_t simConfigHash(std::size_t personCount, std::size_t placeCount,
                            const ModelConfig& config,
                            const DiseaseConfig* disease) {
  // Everything that determines the log bytes and the checkpoint layout; a
  // resume against a run with any of these changed must be rejected.
  std::string text;
  text += std::to_string(personCount) + "|";
  text += std::to_string(placeCount) + "|";
  text += std::to_string(config.scheduleSeed) + "|";
  text += std::to_string(config.weeks) + "|";
  text += std::to_string(config.rankCount) + "|";
  text += std::to_string(static_cast<int>(config.strategy)) + "|";
  text += std::to_string(static_cast<int>(config.logCompression)) + "|";
  text += std::to_string(config.logCacheEntries) + "|";
  if (disease != nullptr) {
    char beta[32];
    std::snprintf(beta, sizeof(beta), "%.17g", disease->beta);
    text += std::string(beta) + "|";
    text += std::to_string(disease->latentHours) + "|";
    text += std::to_string(disease->infectiousHours) + "|";
    text += std::to_string(disease->seedCount) + "|";
    text += std::to_string(disease->seed) + "|";
  }
  return util::crc32(
      std::as_bytes(std::span<const char>(text.data(), text.size())));
}

std::vector<std::byte> encodeRankCheckpoint(const RankCheckpoint& checkpoint) {
  util::ByteWriter body(64 + checkpoint.residents.size() * 20);
  body.u32(checkpoint.hour);
  body.u32(checkpoint.diseaseEnabled ? 1 : 0);
  body.u64(checkpoint.outcome.events);
  body.u64(checkpoint.outcome.migrationsOut);
  body.u64(checkpoint.outcome.localMoves);
  body.u64(checkpoint.outcome.initialAgents);
  body.u64(checkpoint.outcome.logBytes);
  body.u64(checkpoint.outcome.infections);
  body.u64(checkpoint.outcome.hoursProcessed);
  body.u64(checkpoint.outcome.peakQueueDepth);
  body.u32(static_cast<std::uint32_t>(checkpoint.residents.size()));
  for (const AgentSnapshot& agent : checkpoint.residents) {
    body.u32(agent.person);
    body.u32(agent.weekIndex);
    body.u32(agent.stintIndex);
    if (checkpoint.diseaseEnabled) {
      body.u32(agent.state);
      body.u32(agent.since);
    }
  }
  putBuckets(body, checkpoint.calendar);
  body.u64(checkpoint.logBytes);
  body.u64(checkpoint.logEntries);
  body.u64(checkpoint.logFlushCount);
  body.u32(static_cast<std::uint32_t>(checkpoint.logCache.size()));
  body.rows(checkpoint.logCache);
  if (checkpoint.diseaseEnabled) {
    body.u64(checkpoint.clxBytes);
    body.u64(checkpoint.clxEntries);
    putTransitions(body, checkpoint.clxBuffer);
    putBuckets(body, checkpoint.progressions);
    body.u32(static_cast<std::uint32_t>(checkpoint.hourlyInfectious.size()));
    body.rows(checkpoint.hourlyInfectious);
  }
  return body.take();
}

RankCheckpoint decodeRankCheckpoint(std::span<const std::byte> bytes) {
  util::ByteReader in(bytes, "rank checkpoint");
  RankCheckpoint checkpoint;
  checkpoint.hour = in.u32();
  checkpoint.diseaseEnabled = in.u32() != 0;
  checkpoint.outcome.events = in.u64();
  checkpoint.outcome.migrationsOut = in.u64();
  checkpoint.outcome.localMoves = in.u64();
  checkpoint.outcome.initialAgents = in.u64();
  checkpoint.outcome.logBytes = in.u64();
  checkpoint.outcome.infections = in.u64();
  checkpoint.outcome.hoursProcessed = in.u64();
  checkpoint.outcome.peakQueueDepth = in.u64();
  const std::uint64_t residents =
      in.count(in.u32(), checkpoint.diseaseEnabled ? 20 : 12, "residents");
  checkpoint.residents.reserve(residents);
  for (std::uint64_t i = 0; i < residents; ++i) {
    AgentSnapshot agent;
    agent.person = in.u32();
    agent.weekIndex = in.u32();
    agent.stintIndex = in.u32();
    if (checkpoint.diseaseEnabled) {
      agent.state = in.u32();
      agent.since = in.u32();
    }
    checkpoint.residents.push_back(agent);
  }
  checkpoint.calendar = takeBuckets(in);
  checkpoint.logBytes = in.u64();
  checkpoint.logEntries = in.u64();
  checkpoint.logFlushCount = in.u64();
  checkpoint.logCache = in.rows<table::Event>(in.u32(), "cached events");
  if (checkpoint.diseaseEnabled) {
    checkpoint.clxBytes = in.u64();
    checkpoint.clxEntries = in.u64();
    checkpoint.clxBuffer = takeTransitions(in);
    checkpoint.progressions = takeBuckets(in);
    checkpoint.hourlyInfectious =
        in.rows<std::uint32_t>(in.u32(), "prevalence rows");
  }
  in.expectEnd();
  return checkpoint;
}

void saveRankCheckpoint(const std::filesystem::path& dir, int rank,
                        const RankCheckpoint& checkpoint) {
  if (runtime::fault::armed()) {
    runtime::FaultSite site;
    site.rank = rank;
    site.ordinal = checkpoint.hour;
    runtime::fault::hit("abm.ckpt.write", site);
  }
  std::filesystem::create_directories(dir);
  const std::vector<std::byte> body = encodeRankCheckpoint(checkpoint);
  const std::filesystem::path final =
      dir / rankFileName(rank, checkpoint.hour);
  const std::filesystem::path tmp = final.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    CHISIM_CHECK(out.good(),
                 "cannot write rank checkpoint: " + tmp.string());
    util::writeU32(out, kRankMagic);
    util::writeU32(out, kRankVersion);
    util::writeU32(out, util::crc32(body));
    util::writeBytes(out, body);
    out.flush();
    CHISIM_CHECK(out.good(), "rank checkpoint write failed: " + tmp.string());
  }
  std::filesystem::rename(tmp, final);
}

void commitSimManifest(const std::filesystem::path& dir,
                       const SimManifest& manifest) {
  const std::filesystem::path tmp = dir / "sim_manifest.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    CHISIM_CHECK(out.good(),
                 "cannot write simulation manifest: " + tmp.string());
    out << kManifestMagic << "\n";
    out << "hour " << manifest.hour << "\n";
    out << "rank_count " << manifest.rankCount << "\n";
    out << "config_hash " << manifest.configHash << "\n";
    out << "checkpoints_written " << manifest.checkpointsWritten << "\n";
    out.flush();
    CHISIM_CHECK(out.good(),
                 "simulation manifest write failed: " + tmp.string());
  }
  std::filesystem::rename(tmp, manifestPath(dir));

  // Garbage-collect rank files from superseded checkpoints (and .tmp
  // orphans of crashed saves). The new manifest's hour names the live set.
  const std::string liveSuffix =
      "." + std::to_string(static_cast<unsigned>(manifest.hour)) + ".abmc";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const bool rankFile = name.starts_with("rank_") &&
                          (name.ends_with(".abmc") || name.ends_with(".tmp"));
    if (rankFile && !name.ends_with(liveSuffix)) {
      std::error_code ignored;
      std::filesystem::remove(entry.path(), ignored);
    }
  }
}

std::optional<SimManifest> loadSimManifest(const std::filesystem::path& dir) {
  std::ifstream in(manifestPath(dir));
  if (!in.good()) {
    return std::nullopt;
  }
  std::string magic;
  CHISIM_CHECK(std::getline(in, magic) && magic == kManifestMagic,
               "unrecognized simulation manifest: " +
                   manifestPath(dir).string());
  SimManifest manifest;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "hour") {
      fields >> manifest.hour;
    } else if (key == "rank_count") {
      fields >> manifest.rankCount;
    } else if (key == "config_hash") {
      fields >> manifest.configHash;
    } else if (key == "checkpoints_written") {
      fields >> manifest.checkpointsWritten;
    }
    CHISIM_CHECK(!fields.fail(), "malformed simulation manifest line: " + line);
  }
  return manifest;
}

RankCheckpoint loadRankCheckpoint(const std::filesystem::path& dir, int rank,
                                  Hour hour) {
  const std::filesystem::path path = dir / rankFileName(rank, hour);
  std::ifstream in(path, std::ios::binary);
  CHISIM_CHECK(in.good(), "cannot open rank checkpoint: " + path.string());
  CHISIM_CHECK(util::readU32(in) == kRankMagic,
               "not a rank checkpoint file: " + path.string());
  CHISIM_CHECK(util::readU32(in) == kRankVersion,
               "unsupported rank checkpoint version: " + path.string());
  const std::uint32_t storedCrc = util::readU32(in);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto body =
      std::as_bytes(std::span<const char>(raw.data(), raw.size()));
  CHISIM_CHECK(storedCrc == util::crc32(body),
               "rank checkpoint CRC mismatch: " + path.string());
  RankCheckpoint checkpoint = decodeRankCheckpoint(body);
  CHISIM_CHECK(checkpoint.hour == hour,
               "rank checkpoint hour does not match the manifest: " +
                   path.string());
  return checkpoint;
}

std::optional<SimResume> loadSimResume(const std::filesystem::path& dir,
                                       int rankCount, std::uint32_t configHash,
                                       std::size_t personCount,
                                       Hour totalHours) {
  std::optional<SimManifest> manifest = loadSimManifest(dir);
  if (!manifest.has_value()) {
    return std::nullopt;
  }
  CHISIM_CHECK(manifest->hour <= totalHours,
               "checkpoint hour " + std::to_string(manifest->hour) +
                   " is past this run's horizon of " +
                   std::to_string(totalHours) + " hours");
  CHISIM_CHECK(manifest->rankCount == rankCount,
               "checkpoint was written with " +
                   std::to_string(manifest->rankCount) +
                   " ranks; resume requested " + std::to_string(rankCount));
  CHISIM_CHECK(manifest->configHash == configHash,
               "checkpoint does not match this run's configuration "
               "(population/seed/horizon/log settings changed)");
  SimResume resume;
  resume.manifest = *manifest;
  resume.ranks.reserve(static_cast<std::size_t>(rankCount));
  for (int rank = 0; rank < rankCount; ++rank) {
    resume.ranks.push_back(loadRankCheckpoint(dir, rank, manifest->hour));
    checkResumeBounds(resume.ranks.back(), rank, personCount, totalHours);
  }
  return resume;
}

namespace {

std::atomic<bool> g_shutdownRequested{false};

extern "C" void chisimShutdownSignalHandler(int) {
  // Only an async-signal-safe atomic store; the rank loops poll the flag
  // at the top of each hour.
  g_shutdownRequested.store(true, std::memory_order_relaxed);
}

}  // namespace

bool shutdownRequested() noexcept {
  return g_shutdownRequested.load(std::memory_order_relaxed);
}

void requestShutdown() noexcept {
  g_shutdownRequested.store(true, std::memory_order_relaxed);
}

void clearShutdownRequest() noexcept {
  g_shutdownRequested.store(false, std::memory_order_relaxed);
}

struct ScopedShutdownHandler::State {
  struct sigaction previousTerm;
  struct sigaction previousInt;
};

ScopedShutdownHandler::ScopedShutdownHandler()
    : state_(std::make_unique<State>()) {
  struct sigaction action = {};
  action.sa_handler = chisimShutdownSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGTERM, &action, &state_->previousTerm);
  ::sigaction(SIGINT, &action, &state_->previousInt);
}

ScopedShutdownHandler::~ScopedShutdownHandler() {
  ::sigaction(SIGTERM, &state_->previousTerm, nullptr);
  ::sigaction(SIGINT, &state_->previousInt, nullptr);
}

}  // namespace chisimnet::abm
