#include "chisimnet/net/checkpoint.hpp"

#include <charconv>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <system_error>

#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::net {

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

constexpr const char* kManifestMagic = "CHKP3";

std::filesystem::path manifestPath(const std::filesystem::path& dir) {
  return dir / kCheckpointManifestName;
}

/// Writes the manifest via temp file + rename (atomic on POSIX). Every
/// line is tab-separated with its record kind first; names carry no tabs,
/// and the free-text quarantine reason goes last.
void writeManifestFile(const std::filesystem::path& dir,
                       const CheckpointManifest& manifest) {
  const std::filesystem::path tmp = dir / "manifest.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    CHISIM_CHECK(out.good(),
                 "cannot write checkpoint manifest: " + tmp.string());
    out << kManifestMagic << "\n";
    out << "files_consumed\t" << manifest.filesConsumed << "\n";
    out << "batches_done\t" << manifest.batchesDone << "\n";
    out << "config_hash\t" << manifest.configHash << "\n";
    for (const sparse::SpillRunInfo& run : manifest.spillRuns) {
      out << "spill\t" << run.file.filename().string() << "\t"
          << run.offset << "\t" << run.triplets << "\t" << run.bytes << "\t" << run.firstKey
          << "\t" << run.lastKey << "\n";
    }
    for (const sparse::ShardSegment& segment : manifest.mergeSegments) {
      out << "mergeseg\t" << segment.shard << "\t"
          << segment.file.filename().string() << "\t"
          << segment.triplets << "\t" << segment.bytes << "\t"
          << segment.crc << "\n";
    }
    for (const elog::QuarantinedFile& entry : manifest.quarantined) {
      out << "quarantine\t" << entry.chunkIndex << "\t" << entry.byteOffset
          << "\t" << entry.file.string() << "\t" << entry.reason << "\n";
    }
    out.flush();
    CHISIM_CHECK(out.good(),
                 "checkpoint manifest write failed: " + tmp.string());
  }
  std::filesystem::rename(tmp, manifestPath(dir));
}

/// One manifest line split at tabs (into at most `maxFields` fields; the
/// last takes the rest of the line), with field parsers that name the
/// manifest and the line in every failure.
class ManifestLine {
 public:
  ManifestLine(const std::filesystem::path& path, std::size_t number,
               std::string_view text, std::size_t maxFields)
      : path_(path), number_(number) {
    std::size_t begin = 0;
    for (;;) {
      const std::size_t tab = fields_.size() + 1 < maxFields
                                  ? text.find('\t', begin)
                                  : std::string_view::npos;
      fields_.push_back(text.substr(begin, tab - begin));
      if (tab == std::string_view::npos) {
        break;
      }
      begin = tab + 1;
    }
  }

  std::string_view kind() const { return fields_[0]; }

  void expectFields(std::size_t count) const {
    if (fields_.size() != count) {
      fail("a " + std::string(kind()) + " line needs " +
           std::to_string(count) + " tab-separated fields, got " +
           std::to_string(fields_.size()));
    }
  }

  /// Field `at` as a T: the whole field must parse and fit in T.
  template <typename T>
  T number(std::size_t at) const {
    const std::string_view field = fields_[at];
    T value{};
    const auto [end, ec] =
        std::from_chars(field.data(), field.data() + field.size(), value);
    if (ec != std::errc{} || end != field.data() + field.size()) {
      fail("field " + std::to_string(at + 1) + " '" + std::string(field) +
           "' is not a number in range");
    }
    return value;
  }

  /// Field `at` as a plain file name: non-empty, no '/', not . or ..
  std::string fileName(std::size_t at) const {
    const std::string_view field = fields_[at];
    if (field.empty() || field == "." || field == ".." ||
        field.find('/') != std::string_view::npos) {
      fail("field " + std::to_string(at + 1) + " '" + std::string(field) +
           "' is not a plain file name");
    }
    return std::string(field);
  }

  std::string text(std::size_t at) const { return std::string(fields_[at]); }

  [[noreturn]] void fail(const std::string& what) const {
    CHISIM_CHECK(false, "checkpoint manifest " + path_.string() + " line " +
                            std::to_string(number_) + ": " + what);
  }

 private:
  const std::filesystem::path& path_;
  std::size_t number_;
  std::vector<std::string_view> fields_;
};

}  // namespace

void saveCheckpoint(const std::filesystem::path& dir,
                    const CheckpointManifest& manifest,
                    const std::filesystem::path& spillDir, bool gcSpillDir) {
  std::filesystem::create_directories(dir);

  // The accumulated state needs no snapshot step: every run the manifest
  // names already landed on disk via tmp+rename when it was written. Only
  // the manifest itself gets written here.
  writeManifestFile(dir, manifest);

  // GC, safe only after the rename (until then the previous manifest may
  // name these files): spill files the new manifest does not reference —
  // superseded runs and compaction inputs, worker-run orphans of a crashed
  // batch, and .tmp husks of interrupted spills.
  if (!gcSpillDir) {
    return;
  }
  std::set<std::string> referenced;
  for (const sparse::SpillRunInfo& run : manifest.spillRuns) {
    referenced.insert(run.file.filename().string());
  }
  for (const sparse::ShardSegment& segment : manifest.mergeSegments) {
    referenced.insert(segment.file.filename().string());
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
  CHISIM_CHECK(magic == kManifestMagic || !magic.starts_with("CHKP"),
               "checkpoint manifest " + path.string() + " has format " +
                   magic + ", but this build reads only " + kManifestMagic +
                   "; checkpoints of older builds cannot be resumed");
  CHISIM_CHECK(magic == kManifestMagic,
               "not a checkpoint manifest: " + path.string());
  CheckpointManifest manifest;
  std::string text;
  std::size_t number = 1;
  while (std::getline(in, text)) {
    ++number;
    if (text.empty()) {
      continue;
    }
    const bool quarantine = text.starts_with("quarantine\t");
    const ManifestLine line(path, number, text,
                            quarantine ? 5 : std::string_view::npos);
    if (line.kind() == "spill") {
      line.expectFields(7);
      sparse::SpillRunInfo run;
      run.file = line.fileName(1);
      run.offset = line.number<std::uint64_t>(2);
      run.triplets = line.number<std::uint64_t>(3);
      run.bytes = line.number<std::uint64_t>(4);
      run.firstKey = line.number<std::uint64_t>(5);
      run.lastKey = line.number<std::uint64_t>(6);
      if (run.triplets > 0 && run.firstKey > run.lastKey) {
        line.fail("spill run key range is inverted");
      }
      manifest.spillRuns.push_back(std::move(run));
    } else if (line.kind() == "mergeseg") {
      line.expectFields(6);
      sparse::ShardSegment segment;
      segment.shard = line.number<std::uint32_t>(1);
      segment.file = line.fileName(2);
      segment.triplets = line.number<std::uint64_t>(3);
      segment.bytes = line.number<std::uint64_t>(4);
      segment.crc = line.number<std::uint32_t>(5);
      manifest.mergeSegments.push_back(std::move(segment));
    } else if (quarantine) {
      line.expectFields(5);
      elog::QuarantinedFile entry;
      entry.chunkIndex = line.number<std::int64_t>(1);
      entry.byteOffset = line.number<std::uint64_t>(2);
      entry.file = line.text(3);
      entry.reason = line.text(4);
      manifest.quarantined.push_back(std::move(entry));
    } else if (line.kind() == "files_consumed") {
      line.expectFields(2);
      manifest.filesConsumed = line.number<std::uint64_t>(1);
    } else if (line.kind() == "batches_done") {
      line.expectFields(2);
      manifest.batchesDone = line.number<std::uint64_t>(1);
    } else if (line.kind() == "config_hash") {
      line.expectFields(2);
      manifest.configHash = line.number<std::uint32_t>(1);
    } else {
      line.fail("unknown record '" + std::string(line.kind()) + "'");
    }
  }
  return manifest;
}

}  // namespace chisimnet::net
