#include "chisimnet/abm/migration.hpp"

#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::abm {

namespace {

// v2 ("CMB2") added the flags word for the shutdown agreement; the magic
// doubles as the version so a mixed-build mismatch fails loudly.
constexpr std::uint32_t kBatchMagic = 0x32424D43;  // "CMB2"

}  // namespace

std::vector<std::byte> encodeMigrationBatch(const MigrationBatch& batch) {
  std::size_t bytes = 5 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
  for (const MigrantRecord& record : batch.migrants) {
    bytes += 4 * sizeof(std::uint32_t) +
             record.stints.size() * sizeof(pop::PackedStint);
  }
  util::ByteWriter out(bytes);
  out.u32(kBatchMagic);
  out.u32(batch.hour);
  out.u64(batch.nextEventHint);
  out.u32(batch.flags);
  out.u32(static_cast<std::uint32_t>(batch.migrants.size()));
  for (const MigrantRecord& record : batch.migrants) {
    out.u32(record.person);
    out.u32(record.weekIndex);
    out.u32(record.stintIndex);
    out.u32(static_cast<std::uint32_t>(record.stints.size()));
    out.rows(record.stints);
  }
  return out.take();
}

MigrationBatch decodeMigrationBatch(std::span<const std::byte> payload,
                                    table::Hour expectedHour) {
  util::ByteReader in(payload, "migration batch");
  CHISIM_CHECK(in.u32() == kBatchMagic, "migration batch has a bad magic");
  MigrationBatch batch;
  batch.hour = in.u32();
  CHISIM_CHECK(batch.hour == expectedHour,
               "migration batch timestamp does not match the current hour");
  batch.nextEventHint = in.u64();
  batch.flags = in.u32();
  // Each record is at least 16 bytes of header plus one 8-byte stint.
  const std::uint64_t count = in.count(in.u32(), 16 + 8, "migrants");
  batch.migrants.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    MigrantRecord record;
    record.person = in.u32();
    record.weekIndex = in.u32();
    record.stintIndex = in.u32();
    const std::uint32_t stintCount = in.u32();
    CHISIM_CHECK(stintCount >= 1 && stintCount <= pop::kHoursPerWeek,
                 "migrant stint count out of range");
    CHISIM_CHECK(record.stintIndex < stintCount,
                 "migrant stint index out of range");
    record.stints = in.rows<pop::PackedStint>(stintCount, "stints");
    batch.migrants.push_back(std::move(record));
  }
  in.expectEnd();
  return batch;
}

}  // namespace chisimnet::abm
