#include "chisimnet/net/mp_protocol.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/sparse/collocation.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::net::mp {

namespace {

/// Headroom kept under runtime::maxPayloadBytes() when deciding whether a
/// run still fits inline in a reply (frame headers, stats, refs).
constexpr std::uint64_t kReplySlackBytes = 4096;

/// Under run shipping, converts the refs of one local run file into
/// shipped refs: the file's bytes stream to the root on kShipTag once, the
/// refs carry its bare name, and the local file is deleted (a retried
/// command re-executes the pure body and re-ships). A no-op without runs
/// or without a shipper.
void maybeShip(const StageParams& params, RunShipper* shipper,
               std::vector<RunRef>& refs) {
  if (!params.shipRuns || shipper == nullptr || refs.empty()) {
    return;
  }
  const std::filesystem::path local = refs.front().run.file;
  std::uint64_t fileBytes = 0;
  for (const RunRef& ref : refs) {
    CHISIM_REQUIRE(ref.run.file == local, "shipped runs share one file");
    fileBytes = std::max(fileBytes, ref.run.offset + ref.run.bytes);
  }
  const std::string name = shipper->ship(local, fileBytes);
  for (RunRef& ref : refs) {
    ref.run.file = name;
    ref.shipped = true;
  }
  std::error_code ignored;
  std::filesystem::remove(local, ignored);
}

}  // namespace

void putRunRef(util::ByteWriter& out, const RunRef& ref) {
  if (ref.isFile()) {
    out.u32(ref.shipped ? 2 : 1);
    out.string(ref.run.file.string());
    out.u64(ref.run.offset);
    out.u64(ref.run.triplets);
    out.u64(ref.run.bytes);
    out.u64(ref.run.firstKey);
    out.u64(ref.run.lastKey);
  } else {
    out.u32(0);
    out.u64(ref.inlineRun.size());
    out.rows(ref.inlineRun);
  }
}

RunRef takeRunRef(util::ByteReader& in) {
  RunRef ref;
  const std::uint32_t mode = in.u32();
  if (mode == 1 || mode == 2) {
    ref.shipped = mode == 2;
    ref.run.file = in.string();
    CHISIM_CHECK(!ref.run.file.empty(),
                 ref.shipped ? "shipped run ref with an empty name"
                             : "file run ref with an empty path");
    ref.run.offset = in.u64();
    ref.run.triplets = in.u64();
    ref.run.bytes = in.u64();
    ref.run.firstKey = in.u64();
    ref.run.lastKey = in.u64();
  } else {
    CHISIM_CHECK(mode == 0,
                 "unknown run ref mode " + std::to_string(mode));
    ref.inlineRun =
        in.rows<sparse::AdjacencyTriplet>(in.u64(), "inline run triplets");
  }
  return ref;
}

void putShardSegment(util::ByteWriter& out,
                     const sparse::ShardSegment& segment) {
  out.u32(segment.shard);
  out.f64(segment.mergeSeconds);
  out.string(segment.file.string());
  out.u64(segment.triplets);
  out.u64(segment.bytes);
  out.u32(segment.crc);
  out.u64(segment.mergePasses);
  out.u64(segment.mergePassBytes);
}

sparse::ShardSegment takeShardSegment(util::ByteReader& in) {
  sparse::ShardSegment segment;
  segment.shard = in.u32();
  segment.mergeSeconds = in.f64();
  segment.file = in.string();
  segment.triplets = in.u64();
  segment.bytes = in.u64();
  segment.crc = in.u32();
  segment.mergePasses = in.u64();
  segment.mergePassBytes = in.u64();
  return segment;
}

std::vector<std::byte> encodeShipChunk(const std::string& name,
                                       std::uint64_t offset,
                                       std::uint64_t total,
                                       std::span<const std::byte> data) {
  util::ByteWriter chunk(4 + name.size() + 16 + data.size());
  chunk.string(name);
  chunk.u64(offset);
  chunk.u64(total);
  chunk.bytes(data);
  return chunk.take();
}

ShipChunkView decodeShipChunk(std::span<const std::byte> bytes) {
  util::ByteReader in(bytes, "ship chunk");
  ShipChunkView view;
  view.name = in.string();
  CHISIM_CHECK(!view.name.empty(), "ship chunk with an empty run name");
  view.offset = in.u64();
  view.total = in.u64();
  view.data = in.rest();
  CHISIM_CHECK(view.offset + view.data.size() <= view.total,
               "ship chunk overruns its declared total");
  return view;
}

std::vector<std::byte> frameCommand(std::uint32_t command, std::uint64_t epoch,
                                    std::span<const std::byte> body) {
  util::ByteWriter frame(kCommandHeaderBytes + body.size());
  frame.u32(command);
  frame.u64(epoch);
  frame.bytes(body);
  return frame.take();
}

std::vector<std::byte> frameReply(std::uint32_t command, std::uint32_t status,
                                  std::uint64_t epoch,
                                  std::span<const std::byte> body) {
  util::ByteWriter frame(kReplyHeaderBytes + body.size());
  frame.u32(command);
  frame.u32(status);
  frame.u64(epoch);
  frame.bytes(body);
  return frame.take();
}

std::vector<std::byte> encodeStageParams(const StageParams& params) {
  util::ByteWriter bytes(28 + params.spillDir.size());
  bytes.u32(params.windowStart);
  bytes.u32(params.windowEnd);
  bytes.u64(params.spillThresholdBytes);
  bytes.string(params.spillDir);
  bytes.u32(params.splitRows);
  bytes.u32(params.shipRuns ? 1 : 0);
  return bytes.take();
}

StageParams decodeStageParams(std::span<const std::byte> bytes) {
  util::ByteReader in(bytes, "stage parameter payload");
  StageParams params;
  params.windowStart = in.u32();
  params.windowEnd = in.u32();
  params.spillThresholdBytes = in.u64();
  params.spillDir = in.string();
  params.splitRows = in.u32();
  params.shipRuns = in.u32() != 0;
  in.expectEnd();
  return params;
}

std::vector<std::byte> executeSynthesisCommand(
    const StageParams& params, std::uint32_t command,
    std::span<const std::byte> body, RunShipper* shipper, int rank) {
  switch (command) {
    case kCmdAdjacency: {
      // Body: [runToken u64][groupCount u32][groupCount × eventCount u32]
      // [event rows, group order]. The token makes this rank's spill-file
      // name unique per command body, so retries rewrite the same file
      // (deterministic content, tmp+rename) while a reassigned body —
      // which gets a fresh token — never collides with a half-dead rank
      // still executing the old one. Every flush of the command goes to
      // that one file.
      // Reply: [busySeconds f64][places u64][nnz u64][kernel stats 4×u64]
      //        [peakLocalBytes u64][runCount u32][RunRef × runCount].
      util::ByteReader in(body, "adjacency command");
      const std::uint64_t token = in.u64();
      const std::vector<std::uint32_t> groupSizes =
          in.rows<std::uint32_t>(in.u32(), "place groups");
      std::uint64_t totalEvents = 0;
      for (const std::uint32_t size : groupSizes) {
        totalEvents += size;
      }
      const std::vector<table::Event> events =
          in.rows<table::Event>(totalEvents, "events");
      in.expectEnd();
      util::WallTimer busy;
      sparse::SpillingSum sum(params.spillDir,
                              "t" + std::to_string(token) + ".",
                              params.spillThresholdBytes, params.splitRows);
      // Each matrix is multiplied as soon as it is built; none is kept.
      std::uint64_t places = 0;
      std::uint64_t nnz = 0;
      std::size_t eventCursor = 0;
      for (const std::uint32_t groupSize : groupSizes) {
        const std::span<const table::Event> groupEvents(
            events.data() + eventCursor, groupSize);
        eventCursor += groupSize;
        CHISIM_CHECK(!groupEvents.empty(), "empty place group scattered");
        const sparse::CollocationMatrix matrix(
            groupEvents.front().place, groupEvents, params.windowStart,
            params.windowEnd);
        ++places;
        nnz += matrix.nnz();
        if (sum.addCollocation(matrix)) {
          // Between two flushes: a kill here leaves the command's run file
          // as a multi-run .tmp husk.
          runtime::FaultSite site{rank, nullptr};
          runtime::fault::hit("spill.flush", site);
        }
      }
      // A remainder that would overflow the transport frame is flushed to
      // run files like any budgeted flush and returned as paths — the
      // scale-ceiling fix.
      if (sum.residentTriplets() * sizeof(sparse::AdjacencyTriplet) +
              kReplySlackBytes >
          runtime::maxPayloadBytes()) {
        CHISIM_CHECK(!params.spillDir.empty(),
                     "adjacency reply exceeds the payload limit and no "
                     "spill directory is configured");
        sum.flush();
      }
      std::vector<sparse::AdjacencyTriplet> remainder = sum.drainInMemory();
      const double busySeconds = busy.seconds();
      const sparse::AdjacencyKernelStats& stats = sum.kernelStats();

      std::vector<RunRef> refs;
      for (sparse::SpillRunInfo& info : sum.takeRuns()) {
        RunRef ref;
        ref.run = std::move(info);
        refs.push_back(std::move(ref));
      }
      maybeShip(params, shipper, refs);
      if (!remainder.empty()) {
        RunRef ref;
        ref.inlineRun = std::move(remainder);
        refs.push_back(std::move(ref));
      }

      util::ByteWriter reply;
      reply.f64(busySeconds);
      reply.u64(places);
      reply.u64(nnz);
      reply.u64(stats.densePlaces);
      reply.u64(stats.hashPlaces);
      reply.u64(stats.pairHourUpdates);
      reply.u64(stats.globalEmits);
      reply.u64(sum.peakBytes());
      reply.u32(static_cast<std::uint32_t>(refs.size()));
      for (const RunRef& ref : refs) {
        putRunRef(reply, ref);
      }
      return reply.take();
    }
    case kCmdMergeShard: {
      // Body: [runToken u64][shardCount u32][per shard:
      // shard u32, runCount u32, RunRef × runCount (file runs, shard-pure)].
      // Reply: [busySeconds f64][shardCount u32][shardCount ×
      // putShardSegment]. Segment names carry the token, and so do the
      // merge-pass files named after them, so a retried body rewrites its
      // own files (deterministic content, tmp+rename) while a reassigned
      // body — fresh token — never collides with a half-dead rank still
      // merging the old one.
      util::ByteReader in(body, "merge-shard command");
      const std::uint64_t token = in.u64();
      // Each shard costs at least its shard and run-count words.
      const std::uint64_t shardCount = in.count(in.u32(), 8, "shards");
      CHISIM_CHECK(!params.spillDir.empty(),
                   "shard merge needs a spill directory");
      util::ThreadCpuTimer busy;
      util::ByteWriter segments;
      for (std::uint64_t s = 0; s < shardCount; ++s) {
        const std::uint32_t shard = in.u32();
        // Each run ref costs at least its mode word.
        const std::uint64_t runCount = in.count(in.u32(), 4, "run refs");
        std::vector<sparse::SpillRunInfo> runs;
        runs.reserve(runCount);
        for (std::uint64_t r = 0; r < runCount; ++r) {
          RunRef ref = takeRunRef(in);
          CHISIM_CHECK(ref.isFile(), "shard merge inputs must be run files");
          runs.push_back(std::move(ref.run));
        }
        const std::filesystem::path segmentFile =
            std::filesystem::path(params.spillDir) /
            ("seg." + std::to_string(shard) + ".t" + std::to_string(token) +
             ".cseg");
        putShardSegment(segments,
                        sparse::mergeShardRuns(shard, runs, segmentFile));
      }
      in.expectEnd();
      util::ByteWriter reply(8 + 4 + segments.size());
      reply.f64(busy.seconds());
      reply.u32(static_cast<std::uint32_t>(shardCount));
      reply.bytes(segments.take());
      return reply.take();
    }
    default:
      CHISIM_CHECK(false, "unknown synthesis executor command " +
                              std::to_string(command));
  }
  return {};
}

ServiceOutcome serviceSynthesisCommand(const StageParams& params, int rank,
                                       std::span<const std::byte> frame,
                                       std::vector<std::byte>& reply,
                                       RunShipper* shipper) {
  std::uint32_t command = 0;
  std::uint64_t epoch = 0;
  bool headerOk = false;
  try {
    util::ByteReader in(frame, "command frame");
    command = in.u32();
    epoch = in.u64();
    headerOk = true;
  } catch (const std::exception&) {
    // Truncated below even the header: reply failed with epoch 0, which
    // the root treats as matching whatever command is outstanding.
  }
  if (headerOk && command == kCmdStop) {
    return ServiceOutcome::kStop;
  }
  try {
    CHISIM_CHECK(headerOk, "truncated command frame");
    runtime::FaultSite site{rank, nullptr};
    if (runtime::fault::hit("mp.service.command", site) ==
        runtime::FaultAction::kKillRank) {
      return ServiceOutcome::kDie;  // simulate a rank dying silently mid-run
    }
    const std::vector<std::byte> body = executeSynthesisCommand(
        params, command, frame.subspan(kCommandHeaderBytes), shipper, rank);
    reply = frameReply(command, kStatusOk, epoch, body);
  } catch (const std::exception& error) {
    // Recoverable worker failure: report it and stay in the loop so the
    // root can retry.
    const std::string what = error.what();
    reply = frameReply(command, kStatusFailed, epoch,
                       std::as_bytes(std::span<const char>(what)));
  }
  return ServiceOutcome::kReply;
}

}  // namespace chisimnet::net::mp
