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

void put32(std::vector<std::byte>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::byte>(value >> shift));
  }
}

void put64(std::vector<std::byte>& out, std::uint64_t value) {
  put32(out, static_cast<std::uint32_t>(value));
  put32(out, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t take32(std::span<const std::byte> bytes, std::size_t& cursor) {
  CHISIM_CHECK(cursor + 4 <= bytes.size(), "truncated rank checkpoint");
  const std::uint32_t value =
      static_cast<std::uint32_t>(bytes[cursor]) |
      (static_cast<std::uint32_t>(bytes[cursor + 1]) << 8) |
      (static_cast<std::uint32_t>(bytes[cursor + 2]) << 16) |
      (static_cast<std::uint32_t>(bytes[cursor + 3]) << 24);
  cursor += 4;
  return value;
}

std::uint64_t take64(std::span<const std::byte> bytes, std::size_t& cursor) {
  const std::uint64_t low = take32(bytes, cursor);
  const std::uint64_t high = take32(bytes, cursor);
  return low | (high << 32);
}

void putBuckets(std::vector<std::byte>& out,
                const std::vector<HourBucket>& buckets) {
  put32(out, static_cast<std::uint32_t>(buckets.size()));
  for (const HourBucket& bucket : buckets) {
    put32(out, bucket.hour);
    put32(out, static_cast<std::uint32_t>(bucket.persons.size()));
    for (PersonId person : bucket.persons) {
      put32(out, person);
    }
  }
}

std::vector<HourBucket> takeBuckets(std::span<const std::byte> bytes,
                                    std::size_t& cursor) {
  const std::uint32_t count = take32(bytes, cursor);
  // Each bucket takes at least 8 bytes (hour + person count).
  CHISIM_CHECK(count <= (bytes.size() - cursor) / 8,
               "rank checkpoint declares more calendar buckets than its "
               "bytes can hold");
  std::vector<HourBucket> buckets;
  buckets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    HourBucket bucket;
    bucket.hour = take32(bytes, cursor);
    const std::uint32_t persons = take32(bytes, cursor);
    CHISIM_CHECK(persons <= (bytes.size() - cursor) / 4,
                 "rank checkpoint declares more bucket entries than its "
                 "bytes can hold");
    bucket.persons.reserve(persons);
    for (std::uint32_t p = 0; p < persons; ++p) {
      bucket.persons.push_back(take32(bytes, cursor));
    }
    buckets.push_back(std::move(bucket));
  }
  return buckets;
}

void putEvents(std::vector<std::byte>& out,
               const std::vector<table::Event>& events) {
  put32(out, static_cast<std::uint32_t>(events.size()));
  for (const table::Event& event : events) {
    put32(out, event.start);
    put32(out, event.end);
    put32(out, event.person);
    put32(out, event.activity);
    put32(out, event.place);
  }
}

std::vector<table::Event> takeEvents(std::span<const std::byte> bytes,
                                     std::size_t& cursor) {
  const std::uint32_t count = take32(bytes, cursor);
  CHISIM_CHECK(count <= (bytes.size() - cursor) / 20,
               "rank checkpoint declares more cached events than its bytes "
               "can hold");
  std::vector<table::Event> events(count);
  for (table::Event& event : events) {
    event.start = take32(bytes, cursor);
    event.end = take32(bytes, cursor);
    event.person = take32(bytes, cursor);
    event.activity = take32(bytes, cursor);
    event.place = take32(bytes, cursor);
  }
  return events;
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
  std::vector<std::byte> body;
  body.reserve(64 + checkpoint.residents.size() * 20);
  put32(body, checkpoint.hour);
  put32(body, checkpoint.diseaseEnabled ? 1 : 0);
  put64(body, checkpoint.outcome.events);
  put64(body, checkpoint.outcome.migrationsOut);
  put64(body, checkpoint.outcome.localMoves);
  put64(body, checkpoint.outcome.initialAgents);
  put64(body, checkpoint.outcome.logBytes);
  put64(body, checkpoint.outcome.infections);
  put64(body, checkpoint.outcome.hoursProcessed);
  put64(body, checkpoint.outcome.peakQueueDepth);
  put32(body, static_cast<std::uint32_t>(checkpoint.residents.size()));
  for (const AgentSnapshot& agent : checkpoint.residents) {
    put32(body, agent.person);
    put32(body, agent.weekIndex);
    put32(body, agent.stintIndex);
    if (checkpoint.diseaseEnabled) {
      put32(body, agent.state);
      put32(body, agent.since);
    }
  }
  putBuckets(body, checkpoint.calendar);
  put64(body, checkpoint.logBytes);
  put64(body, checkpoint.logEntries);
  put64(body, checkpoint.logFlushCount);
  putEvents(body, checkpoint.logCache);
  if (checkpoint.diseaseEnabled) {
    put64(body, checkpoint.clxBytes);
    put64(body, checkpoint.clxEntries);
    put32(body, static_cast<std::uint32_t>(checkpoint.clxBuffer.size()));
    for (const elog::ExtendedEvent& entry : checkpoint.clxBuffer) {
      CHISIM_CHECK(entry.extras.size() == 2,
                   "disease buffer entry must carry two extras");
      put32(body, entry.base.start);
      put32(body, entry.base.end);
      put32(body, entry.base.person);
      put32(body, entry.base.activity);
      put32(body, entry.base.place);
      put32(body, entry.extras[0]);
      put32(body, entry.extras[1]);
    }
    putBuckets(body, checkpoint.progressions);
    put32(body, static_cast<std::uint32_t>(checkpoint.hourlyInfectious.size()));
    for (std::uint32_t value : checkpoint.hourlyInfectious) {
      put32(body, value);
    }
  }
  return body;
}

RankCheckpoint decodeRankCheckpoint(std::span<const std::byte> bytes) {
  std::size_t cursor = 0;
  RankCheckpoint checkpoint;
  checkpoint.hour = take32(bytes, cursor);
  checkpoint.diseaseEnabled = take32(bytes, cursor) != 0;
  checkpoint.outcome.events = take64(bytes, cursor);
  checkpoint.outcome.migrationsOut = take64(bytes, cursor);
  checkpoint.outcome.localMoves = take64(bytes, cursor);
  checkpoint.outcome.initialAgents = take64(bytes, cursor);
  checkpoint.outcome.logBytes = take64(bytes, cursor);
  checkpoint.outcome.infections = take64(bytes, cursor);
  checkpoint.outcome.hoursProcessed = take64(bytes, cursor);
  checkpoint.outcome.peakQueueDepth = take64(bytes, cursor);
  const std::uint32_t residents = take32(bytes, cursor);
  const std::size_t residentBytes = checkpoint.diseaseEnabled ? 20 : 12;
  CHISIM_CHECK(residents <= (bytes.size() - cursor) / residentBytes,
               "rank checkpoint declares more residents than its bytes can "
               "hold");
  checkpoint.residents.reserve(residents);
  for (std::uint32_t i = 0; i < residents; ++i) {
    AgentSnapshot agent;
    agent.person = take32(bytes, cursor);
    agent.weekIndex = take32(bytes, cursor);
    agent.stintIndex = take32(bytes, cursor);
    if (checkpoint.diseaseEnabled) {
      agent.state = take32(bytes, cursor);
      agent.since = take32(bytes, cursor);
    }
    checkpoint.residents.push_back(agent);
  }
  checkpoint.calendar = takeBuckets(bytes, cursor);
  checkpoint.logBytes = take64(bytes, cursor);
  checkpoint.logEntries = take64(bytes, cursor);
  checkpoint.logFlushCount = take64(bytes, cursor);
  checkpoint.logCache = takeEvents(bytes, cursor);
  if (checkpoint.diseaseEnabled) {
    checkpoint.clxBytes = take64(bytes, cursor);
    checkpoint.clxEntries = take64(bytes, cursor);
    const std::uint32_t buffered = take32(bytes, cursor);
    CHISIM_CHECK(buffered <= (bytes.size() - cursor) / 28,
                 "rank checkpoint declares more buffered transitions than "
                 "its bytes can hold");
    checkpoint.clxBuffer.reserve(buffered);
    for (std::uint32_t i = 0; i < buffered; ++i) {
      elog::ExtendedEvent entry;
      entry.base.start = take32(bytes, cursor);
      entry.base.end = take32(bytes, cursor);
      entry.base.person = take32(bytes, cursor);
      entry.base.activity = take32(bytes, cursor);
      entry.base.place = take32(bytes, cursor);
      entry.extras = {take32(bytes, cursor), take32(bytes, cursor)};
      checkpoint.clxBuffer.push_back(std::move(entry));
    }
    checkpoint.progressions = takeBuckets(bytes, cursor);
    const std::uint32_t hours = take32(bytes, cursor);
    CHISIM_CHECK(hours <= (bytes.size() - cursor) / 4,
                 "rank checkpoint declares more prevalence rows than its "
                 "bytes can hold");
    checkpoint.hourlyInfectious.reserve(hours);
    for (std::uint32_t h = 0; h < hours; ++h) {
      checkpoint.hourlyInfectious.push_back(take32(bytes, cursor));
    }
  }
  CHISIM_CHECK(cursor == bytes.size(), "rank checkpoint has trailing bytes");
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
