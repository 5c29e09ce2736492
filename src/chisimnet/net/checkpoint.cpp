#include "chisimnet/net/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "chisimnet/sparse/adjacency_io.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::net {

namespace {

constexpr const char* kManifestMagic = "CHKP1";
/// In-flight snapshot header: magic u32 "CINF" | version u32 | crc32 u32
/// over the body | body.
constexpr std::uint32_t kInflightMagic = 0x464E4943u;  // "CINF"
constexpr std::uint32_t kInflightVersion = 1;

std::filesystem::path manifestPath(const std::filesystem::path& dir) {
  return dir / kCheckpointManifestName;
}

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
  CHISIM_CHECK(cursor + 4 <= bytes.size(),
               "truncated in-flight batch snapshot");
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

void putString(std::vector<std::byte>& out, const std::string& text) {
  put32(out, static_cast<std::uint32_t>(text.size()));
  const auto bytes =
      std::as_bytes(std::span<const char>(text.data(), text.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::string takeString(std::span<const std::byte> bytes, std::size_t& cursor) {
  const std::uint32_t length = take32(bytes, cursor);
  CHISIM_CHECK(cursor + length <= bytes.size(),
               "truncated in-flight batch snapshot");
  std::string text(reinterpret_cast<const char*>(bytes.data() + cursor),
                   length);
  cursor += length;
  return text;
}

/// Body: [filesInBatch u64][sorted u32][eventCount u64][events raw]
///       [quarantineCount u32][per entry: chunkIndex u64 (two's
///       complement), byteOffset u64, path string, reason string].
std::vector<std::byte> encodeInflight(const InflightBatch& inflight) {
  std::vector<std::byte> body;
  const std::uint64_t rows = inflight.events.size();
  body.reserve(32 + rows * sizeof(table::Event));
  put64(body, inflight.filesInBatch);
  put32(body, inflight.events.isSortedByStart() ? 1 : 0);
  put64(body, rows);
  for (table::RowIndex row = 0; row < rows; ++row) {
    const table::Event event = inflight.events.row(row);
    const auto bytes = std::as_bytes(std::span<const table::Event>(&event, 1));
    body.insert(body.end(), bytes.begin(), bytes.end());
  }
  put32(body, static_cast<std::uint32_t>(inflight.quarantined.size()));
  for (const elog::QuarantinedFile& entry : inflight.quarantined) {
    put64(body, static_cast<std::uint64_t>(entry.chunkIndex));
    put64(body, entry.byteOffset);
    putString(body, entry.file.string());
    putString(body, entry.reason);
  }
  return body;
}

InflightBatch decodeInflight(std::span<const std::byte> body) {
  std::size_t cursor = 0;
  InflightBatch inflight;
  inflight.filesInBatch = take64(body, cursor);
  const bool sorted = take32(body, cursor) != 0;
  const std::uint64_t rows = take64(body, cursor);
  CHISIM_CHECK(rows <= (body.size() - cursor) / sizeof(table::Event),
               "in-flight batch snapshot declares more events than its "
               "bytes can hold");
  std::vector<table::Event> events(static_cast<std::size_t>(rows));
  if (rows > 0) {
    std::memcpy(events.data(), body.data() + cursor,
                rows * sizeof(table::Event));
    cursor += rows * sizeof(table::Event);
  }
  inflight.events = table::EventTable(events);
  if (sorted) {
    // The snapshot preserved row order, so the stable re-sort reproduces
    // the exact pre-crash table.
    inflight.events.sortByStart();
  }
  const std::uint32_t quarantineCount = take32(body, cursor);
  for (std::uint32_t i = 0; i < quarantineCount; ++i) {
    elog::QuarantinedFile entry;
    entry.chunkIndex = static_cast<std::int64_t>(take64(body, cursor));
    entry.byteOffset = take64(body, cursor);
    entry.file = takeString(body, cursor);
    entry.reason = takeString(body, cursor);
    inflight.quarantined.push_back(std::move(entry));
  }
  CHISIM_CHECK(cursor == body.size(),
               "in-flight batch snapshot has trailing bytes");
  return inflight;
}

}  // namespace

std::uint32_t checkpointConfigHash(
    const SynthesisConfig& config,
    const std::vector<std::filesystem::path>& files) {
  // Only fields that determine the output for a given file list; perf
  // knobs (workers, backend, memory budget) are free to change across a
  // resume — the summed adjacency does not depend on them.
  std::string text;
  text += std::to_string(config.windowStart) + "|";
  text += std::to_string(config.windowEnd) + "|";
  text += std::to_string(config.filesPerBatch) + "|";
  for (const std::filesystem::path& file : files) {
    text += file.filename().string() + "|";
  }
  return util::crc32(
      std::as_bytes(std::span<const char>(text.data(), text.size())));
}

namespace {

std::string writeInflightSnapshot(const std::filesystem::path& dir,
                                  std::uint64_t filesConsumed,
                                  const InflightBatch& inflight) {
  const std::string inflightName =
      "inflight." + std::to_string(filesConsumed) + ".evt";
  const std::vector<std::byte> body = encodeInflight(inflight);
  const std::filesystem::path path = dir / inflightName;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out.good(),
               "cannot write in-flight batch snapshot: " + path.string());
  util::writeU32(out, kInflightMagic);
  util::writeU32(out, kInflightVersion);
  util::writeU32(out, util::crc32(body));
  util::writeBytes(out, body);
  out.flush();
  CHISIM_CHECK(out.good(),
               "in-flight batch snapshot write failed: " + path.string());
  return inflightName;
}

/// Writes the manifest via temp file + rename (atomic on POSIX).
void writeManifestFile(const std::filesystem::path& dir,
                       const CheckpointManifest& manifest,
                       const std::string& adjacencyName,
                       const std::string& inflightName) {
  const std::filesystem::path tmp = dir / "manifest.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    CHISIM_CHECK(out.good(),
                 "cannot write checkpoint manifest: " + tmp.string());
    out << kManifestMagic << "\n";
    out << "files_consumed " << manifest.filesConsumed << "\n";
    out << "batches_done " << manifest.batchesDone << "\n";
    out << "config_hash " << manifest.configHash << "\n";
    if (manifest.spillMode) {
      out << "spill_mode 1\n";
      for (const SpillRunEntry& run : manifest.spillRuns) {
        // Tab-separated like quarantine lines; run names carry no tabs.
        // An inverted key range (1 > 0) encodes "range unknown" — a real
        // range always has firstKey <= lastKey.
        out << "spill\t" << run.file << "\t" << run.triplets << "\t"
            << run.bytes << "\t" << (run.hasKeyRange ? run.firstKey : 1)
            << "\t" << (run.hasKeyRange ? run.lastKey : 0) << "\n";
      }
      for (const MergeSegmentEntry& segment : manifest.mergeSegments) {
        out << "mergeseg\t" << segment.shard << "\t" << segment.file << "\t"
            << segment.triplets << "\t" << segment.bytes << "\t"
            << segment.crc << "\n";
      }
    } else {
      out << "adjacency " << adjacencyName << "\n";
    }
    if (!inflightName.empty()) {
      out << "inflight " << inflightName << "\n";
    }
    for (const elog::QuarantinedFile& entry : manifest.quarantined) {
      // Tab-separated; the free-text reason goes last.
      out << "quarantine\t" << entry.chunkIndex << "\t" << entry.byteOffset
          << "\t" << entry.file.string() << "\t" << entry.reason << "\n";
    }
    out.flush();
    CHISIM_CHECK(out.good(),
                 "checkpoint manifest write failed: " + tmp.string());
  }
  std::filesystem::rename(tmp, manifestPath(dir));
}

/// Garbage-collects superseded adjacency and in-flight files after the
/// manifest rename. An empty `adjacencyName` (spill mode) removes every
/// .cadj — a spill manifest references none.
void collectStaleSnapshots(const std::filesystem::path& dir,
                           const std::string& adjacencyName,
                           const std::string& inflightName) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const bool staleAdjacency = name.starts_with("adjacency.") &&
                                name.ends_with(".cadj") &&
                                name != adjacencyName;
    const bool staleInflight = name.starts_with("inflight.") &&
                               name.ends_with(".evt") && name != inflightName;
    if (staleAdjacency || staleInflight) {
      std::error_code ignored;
      std::filesystem::remove(entry.path(), ignored);
    }
  }
}

}  // namespace

void saveCheckpoint(const std::filesystem::path& dir,
                    const CheckpointManifest& manifest,
                    const sparse::SymmetricAdjacency& adjacency,
                    const InflightBatch* inflight) {
  CHISIM_REQUIRE(!manifest.spillMode,
                 "spill-mode manifests go through saveSpillCheckpoint");
  std::filesystem::create_directories(dir);

  // 1. The adjacency (and in-flight snapshot), under cursor-stamped names
  //    the manifest will point at. A crash mid-write leaves the old
  //    manifest pointing at the old (complete) files.
  const std::string adjacencyName =
      "adjacency." + std::to_string(manifest.filesConsumed) + ".cadj";
  sparse::saveAdjacency(adjacency, dir / adjacencyName);

  std::string inflightName;
  if (inflight != nullptr) {
    inflightName =
        writeInflightSnapshot(dir, manifest.filesConsumed, *inflight);
  }

  // 2. The manifest, via temp file + rename (atomic on POSIX).
  writeManifestFile(dir, manifest, adjacencyName, inflightName);

  // 3. Garbage-collect superseded adjacency and in-flight files.
  collectStaleSnapshots(dir, adjacencyName, inflightName);
}

void saveSpillCheckpoint(const std::filesystem::path& dir,
                         const CheckpointManifest& manifest,
                         const std::filesystem::path& spillDir,
                         const InflightBatch* inflight, bool gcSpillDir) {
  CHISIM_REQUIRE(manifest.spillMode,
                 "saveSpillCheckpoint needs a spill-mode manifest");
  std::filesystem::create_directories(dir);

  // The accumulated state needs no snapshot step: every run the manifest
  // names already landed on disk via tmp+rename when it was spilled. Only
  // the in-flight batch (if any) and the manifest itself get written here.
  std::string inflightName;
  if (inflight != nullptr) {
    inflightName =
        writeInflightSnapshot(dir, manifest.filesConsumed, *inflight);
  }
  writeManifestFile(dir, manifest, /*adjacencyName=*/"", inflightName);

  // GC: snapshots the spill manifest supersedes (all .cadj, stale .evt),
  // then spill files the new manifest does not reference — compaction
  // inputs whose output run took their place, worker-run orphans of a
  // crashed batch, and .tmp husks of interrupted spills. Safe only here,
  // after the rename: until then the previous manifest may name them.
  collectStaleSnapshots(dir, /*adjacencyName=*/"", inflightName);
  if (!gcSpillDir) {
    return;
  }
  std::set<std::string> referenced;
  for (const SpillRunEntry& run : manifest.spillRuns) {
    referenced.insert(run.file);
  }
  for (const MergeSegmentEntry& segment : manifest.mergeSegments) {
    referenced.insert(segment.file);
  }
  if (std::filesystem::exists(spillDir)) {
    for (const auto& entry : std::filesystem::directory_iterator(spillDir)) {
      const std::string name = entry.path().filename().string();
      const bool spillFile =
          name.ends_with(".spl") || name.ends_with(".spl.tmp") ||
          name.ends_with(".cseg") || name.ends_with(".cseg.tmp");
      if (spillFile && !referenced.contains(name)) {
        std::error_code ignored;
        std::filesystem::remove(entry.path(), ignored);
      }
    }
  }
}

std::optional<CheckpointManifest> loadCheckpointManifest(
    const std::filesystem::path& dir) {
  const std::filesystem::path path = manifestPath(dir);
  std::ifstream in(path);
  if (!in.good()) {
    return std::nullopt;
  }
  std::string magic;
  std::getline(in, magic);
  CHISIM_CHECK(magic == kManifestMagic,
               "not a checkpoint manifest: " + path.string());
  CheckpointManifest manifest;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (line.starts_with("spill\t")) {
      // spill\t<file>\t<triplets>\t<bytes>[\t<firstKey>\t<lastKey>]
      // The key-range tail is absent in manifests from older builds; an
      // inverted range (first > last) means "unknown".
      std::vector<std::string> fields;
      std::size_t begin = 0;
      while (begin <= line.size()) {
        const std::size_t tab = line.find('\t', begin);
        if (tab == std::string::npos) {
          fields.push_back(line.substr(begin));
          break;
        }
        fields.push_back(line.substr(begin, tab - begin));
        begin = tab + 1;
      }
      CHISIM_CHECK(fields.size() == 4 || fields.size() == 6,
                   "malformed spill line in " + path.string());
      SpillRunEntry run;
      run.file = fields[1];
      run.triplets = std::stoull(fields[2]);
      run.bytes = std::stoull(fields[3]);
      if (fields.size() == 6) {
        const std::uint64_t first = std::stoull(fields[4]);
        const std::uint64_t last = std::stoull(fields[5]);
        if (first <= last) {
          run.hasKeyRange = true;
          run.firstKey = first;
          run.lastKey = last;
        }
      }
      CHISIM_CHECK(!run.file.empty(),
                   "spill line names no file in " + path.string());
      manifest.spillRuns.push_back(std::move(run));
      continue;
    }
    if (line.starts_with("mergeseg\t")) {
      // mergeseg\t<shard>\t<file>\t<triplets>\t<bytes>\t<crc>
      std::vector<std::string> fields;
      std::size_t begin = 0;
      while (begin <= line.size()) {
        const std::size_t tab = line.find('\t', begin);
        if (tab == std::string::npos) {
          fields.push_back(line.substr(begin));
          break;
        }
        fields.push_back(line.substr(begin, tab - begin));
        begin = tab + 1;
      }
      CHISIM_CHECK(fields.size() == 6,
                   "malformed mergeseg line in " + path.string());
      MergeSegmentEntry segment;
      segment.shard = static_cast<std::uint32_t>(std::stoul(fields[1]));
      segment.file = fields[2];
      segment.triplets = std::stoull(fields[3]);
      segment.bytes = std::stoull(fields[4]);
      segment.crc = static_cast<std::uint32_t>(std::stoul(fields[5]));
      CHISIM_CHECK(!segment.file.empty(),
                   "mergeseg line names no file in " + path.string());
      manifest.mergeSegments.push_back(std::move(segment));
      continue;
    }
    if (line.starts_with("quarantine\t")) {
      // quarantine\t<chunkIndex>\t<byteOffset>\t<path>\t<reason>
      std::vector<std::string> fields;
      std::size_t begin = 0;
      while (fields.size() < 4) {
        const std::size_t tab = line.find('\t', begin);
        CHISIM_CHECK(tab != std::string::npos,
                     "malformed quarantine line in " + path.string());
        fields.push_back(line.substr(begin, tab - begin));
        begin = tab + 1;
      }
      elog::QuarantinedFile entry;
      entry.chunkIndex = std::stoll(fields[1]);
      entry.byteOffset = std::stoull(fields[2]);
      entry.file = fields[3];
      entry.reason = line.substr(begin);
      manifest.quarantined.push_back(std::move(entry));
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "files_consumed") {
      fields >> manifest.filesConsumed;
    } else if (key == "batches_done") {
      fields >> manifest.batchesDone;
    } else if (key == "config_hash") {
      fields >> manifest.configHash;
    } else if (key == "adjacency") {
      fields >> manifest.adjacencyFile;
    } else if (key == "spill_mode") {
      int value = 0;
      fields >> value;
      manifest.spillMode = value != 0;
    } else if (key == "inflight") {
      fields >> manifest.inflightFile;
    } else {
      CHISIM_CHECK(false, "unknown manifest key '" + key +
                              "' in " + path.string());
    }
    CHISIM_CHECK(!fields.fail(),
                 "malformed manifest line in " + path.string());
  }
  // A spill-mode manifest carries its state as run files (possibly zero of
  // them: an all-empty prefix of batches is legal); anything else must
  // name a dense snapshot.
  CHISIM_CHECK(manifest.spillMode || !manifest.adjacencyFile.empty(),
               "manifest names no adjacency file: " + path.string());
  CHISIM_CHECK(manifest.spillMode || manifest.spillRuns.empty(),
               "manifest lists spill runs without spill_mode: " +
                   path.string());
  CHISIM_CHECK(manifest.spillMode || manifest.mergeSegments.empty(),
               "manifest lists merge segments without spill_mode: " +
                   path.string());
  return manifest;
}

sparse::SymmetricAdjacency loadCheckpointAdjacency(
    const std::filesystem::path& dir, const CheckpointManifest& manifest) {
  CHISIM_REQUIRE(!manifest.spillMode,
                 "spill-mode checkpoints restore from run files, not a "
                 ".cadj snapshot");
  return sparse::loadAdjacency(dir / manifest.adjacencyFile);
}

std::optional<InflightBatch> loadCheckpointInflight(
    const std::filesystem::path& dir, const CheckpointManifest& manifest) {
  if (manifest.inflightFile.empty()) {
    return std::nullopt;
  }
  const std::filesystem::path path = dir / manifest.inflightFile;
  std::ifstream in(path, std::ios::binary);
  CHISIM_CHECK(in.good(), "manifest names a missing in-flight batch "
                          "snapshot: " + path.string());
  CHISIM_CHECK(util::readU32(in) == kInflightMagic,
               "not an in-flight batch snapshot: " + path.string());
  CHISIM_CHECK(util::readU32(in) == kInflightVersion,
               "unsupported in-flight batch snapshot version: " +
                   path.string());
  const std::uint32_t crc = util::readU32(in);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> body(raw.size());
  if (!raw.empty()) {
    std::memcpy(body.data(), raw.data(), raw.size());
  }
  CHISIM_CHECK(util::crc32(body) == crc,
               "in-flight batch snapshot is corrupt (CRC mismatch): " +
                   path.string());
  return decodeInflight(body);
}

}  // namespace chisimnet::net
