#include "core/stream_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

#include "fault/fault.hpp"
#include "telemetry/metrics.hpp"

namespace bsrng::core {

using Clock = std::chrono::steady_clock;

namespace {

struct EngineFaults {
  fault::FaultPoint& alloc_fail;

  static EngineFaults& get() {
    static EngineFaults f{fault::faults().point("engine.alloc_fail")};
    return f;
  }
};

// Resolved once; per-job/per-task updates are relaxed atomics behind the
// registry's enabled flag (one predictable branch when telemetry is off).
struct EngineMetrics {
  telemetry::Counter& jobs;
  telemetry::Counter& bytes;
  telemetry::Counter& tasks;
  telemetry::Counter& checkpoints;
  telemetry::Counter& resumes;
  telemetry::Histogram& task_seconds;
  telemetry::Histogram& job_seconds;
  telemetry::Gauge& last_gbps;

  static EngineMetrics& get() {
    static EngineMetrics m{
        telemetry::metrics().counter("stream_engine.jobs"),
        telemetry::metrics().counter("stream_engine.bytes"),
        telemetry::metrics().counter("stream_engine.tasks"),
        telemetry::metrics().counter("stream_engine.checkpoints"),
        telemetry::metrics().counter("stream_engine.resumes"),
        telemetry::metrics().histogram("stream_engine.task_seconds"),
        telemetry::metrics().histogram("stream_engine.job_seconds"),
        telemetry::metrics().gauge("stream_engine.last_gbps"),
    };
    return m;
  }
};

}  // namespace

StreamEngine::StreamEngine(StreamEngineConfig config) : config_(config) {
  if (config_.workers == 0) config_.workers = ThreadPool::default_workers();
  if (config_.parallel)
    pool_ = std::make_unique<ThreadPool>(
        config_.workers, config_.numa_nodes > 0
                             ? NumaTopology::emulated(config_.numa_nodes)
                             : NumaTopology::detect());
}

StreamEngine::~StreamEngine() = default;

ThroughputReport StreamEngine::generate(const StreamRequest& req,
                                        std::span<std::uint8_t> out) {
  return generate(
      partition_spec(req.algorithm, req.derived_seed(), config_.workers),
      req.offset, out);
}

stream::StreamCheckpoint StreamEngine::checkpoint(
    const StreamRequest& req) const {
  if (!algorithm_exists(req.algorithm))
    throw std::invalid_argument("StreamEngine: cannot checkpoint unknown "
                                "algorithm '" +
                                req.algorithm + "'");
  EngineMetrics::get().checkpoints.add();
  return stream::StreamCheckpoint{req.algorithm, req.seed, req.ref,
                                  req.offset};
}

ThroughputReport StreamEngine::resume(const stream::StreamCheckpoint& ck,
                                      std::span<std::uint8_t> out) {
  EngineMetrics::get().resumes.add();
  return generate(StreamRequest{ck.algorithm, ck.seed, ck.ref, ck.offset},
                  out);
}

ThroughputReport StreamEngine::generate(const PartitionSpec& spec,
                                        std::uint64_t offset,
                                        std::span<std::uint8_t> out) {
  // The span must fit the 2^64-byte stream address space: a wrapping end
  // offset would corrupt the seek and row arithmetic below.
  if (out.size() > std::numeric_limits<std::uint64_t>::max() - offset)
    throw std::invalid_argument(
        "StreamEngine: offset + span length overflows the stream address");
  switch (spec.kind) {
    case PartitionKind::kCounter: {
      if (offset == 0) return run_counter(spec, out);
      if (spec.block_bytes == 0 || !spec.make_at_block)
        throw std::invalid_argument("StreamEngine: malformed kCounter spec");
      const std::uint64_t bb = spec.block_bytes;
      const std::uint64_t first_block = offset / bb;
      const std::size_t lead = static_cast<std::size_t>(offset % bb);
      // Unaligned head: one block generated into scratch, tail copied out.
      std::size_t head = 0;
      if (lead != 0 && !out.empty()) {
        head = std::min<std::size_t>(spec.block_bytes - lead, out.size());
        std::vector<std::uint8_t> scratch(lead + head);
        auto gen = spec.make_at_block(first_block);
        gen->fill(scratch);
        std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(lead),
                  scratch.end(), out.begin());
      }
      // The rest is block-aligned: shift the spec's block origin and reuse
      // the parallel counter path (O(1) seek — the §5.4 counter partition).
      const std::uint64_t base = first_block + (lead != 0 ? 1 : 0);
      PartitionSpec shifted = spec;
      shifted.make_at_block = [&spec, base](std::uint64_t b) {
        return spec.make_at_block(base + b);
      };
      ThroughputReport rep = run_counter(shifted, out.subspan(head));
      rep.bytes = out.size();
      return rep;
    }
    case PartitionKind::kLaneSlice:
      return run_lane_slice(spec, offset, out);
    case PartitionKind::kSequential:
      if (!spec.make)
        throw std::invalid_argument("StreamEngine: malformed kSequential spec");
      return run_sequential(spec.make, offset, out);
  }
  throw std::logic_error("StreamEngine: unhandled partition kind");
}

ThroughputReport StreamEngine::dispatch(
    std::size_t ntasks,
    const std::function<TaskOutput(std::size_t, std::size_t)>& task) {
  // Every generation job funnels through here, so one injection point
  // models "the allocation/setup for this job failed".  It fires before any
  // output byte is written: a caller that catches and re-issues the span
  // gets byte-identical results (positional generate is idempotent).
  if (EngineFaults::get().alloc_fail.fire()) throw std::bad_alloc();
  ThroughputReport rep;
  rep.per_worker.resize(config_.workers);
  EngineMetrics& em = EngineMetrics::get();
  const auto timed = [&](std::size_t worker, std::size_t t) {
    const auto t0 = Clock::now();
    const TaskOutput done = task(worker, t);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    WorkerStat& s = rep.per_worker[worker];
    s.seconds += secs;
    s.bytes += done.bytes;
    s.lanes = done.lanes;
    ++s.tasks;
    em.tasks.add();
    em.task_seconds.observe(secs);
  };
  const auto w0 = Clock::now();
  if (config_.parallel) {
    pool_->run_indexed(ntasks, timed);
  } else {
    for (std::size_t t = 0; t < ntasks; ++t) timed(t % config_.workers, t);
  }
  rep.wall_seconds = std::chrono::duration<double>(Clock::now() - w0).count();
  finalize_report(rep);
  em.jobs.add();
  em.bytes.add(rep.bytes);
  em.job_seconds.observe(rep.wall_seconds);
  em.last_gbps.set(rep.gbps());
  return rep;
}

ThroughputReport StreamEngine::run_counter(const PartitionSpec& spec,
                                           std::span<std::uint8_t> out) {
  if (spec.block_bytes == 0 || !spec.make_at_block)
    throw std::invalid_argument("StreamEngine: malformed kCounter spec");
  const std::size_t bb = spec.block_bytes;
  const std::size_t blocks_total = (out.size() + bb - 1) / bb;
  // Chunks are block-aligned so every shard's counter range is
  // self-contained (the paper's "different counter values ... passed to
  // GPUs", §5.4).  chunk_bytes == 0: one contiguous chunk per worker.
  std::size_t blocks_per_chunk;
  if (config_.chunk_bytes == 0) {
    blocks_per_chunk =
        std::max<std::size_t>(1, (blocks_total + config_.workers - 1) /
                                     config_.workers);
  } else {
    blocks_per_chunk = std::max<std::size_t>(1, config_.chunk_bytes / bb);
  }
  const std::size_t nchunks =
      blocks_total == 0 ? 0
                        : (blocks_total + blocks_per_chunk - 1) /
                              blocks_per_chunk;
  return dispatch(nchunks, [&](std::size_t, std::size_t c) -> TaskOutput {
    const std::size_t first_block = c * blocks_per_chunk;
    const std::size_t first_byte = first_block * bb;
    const std::size_t last_byte =
        std::min(out.size(), (first_block + blocks_per_chunk) * bb);
    auto gen = spec.make_at_block(first_block);
    gen->fill(out.subspan(first_byte, last_byte - first_byte));
    return {last_byte - first_byte, gen->lanes()};
  });
}

ThroughputReport StreamEngine::run_lane_slice(const PartitionSpec& spec,
                                              std::uint64_t offset,
                                              std::span<std::uint8_t> out) {
  if (spec.lane_blocks == 0 || spec.lane_block_bytes == 0 ||
      !spec.make_lane_block)
    throw std::invalid_argument("StreamEngine: malformed kLaneSlice spec");
  // A one-block grid's shard is the whole stream.
  if (spec.lane_blocks == 1)
    return run_sequential([&spec] { return spec.make_lane_block(0); }, offset,
                          out);
  const std::size_t nb = spec.lane_blocks;        // column sub-streams
  const std::size_t cb = spec.lane_block_bytes;   // bytes per row per block
  const std::size_t row = nb * cb;                // serialized row stride
  // Every shard discards the `skip` whole rows before the span; row r of
  // what the shards then produce lands at out[r*row - lead, (r+1)*row -
  // lead), clipped to the span.
  const std::uint64_t skip = offset / row;
  const std::size_t lead = static_cast<std::size_t>(offset % row);
  const std::size_t end = lead + out.size();
  const std::size_t rows = (end + row - 1) / row;
  // One task per lane block; the worker streams its column generator into
  // alternating scratch buffers (double-buffered: the scatter of buffer A
  // runs while buffer B is still warm from the previous round) and scatters
  // its column of row r to out[r*row + b*cb - lead, ...).
  // With a pool the buffers are the worker's persistent node-local pair
  // (first-touched on that worker's thread, reused across batches); the
  // inline path keeps task-local ones.
  const std::size_t rows_per_chunk = std::max<std::size_t>(
      1, (config_.chunk_bytes == 0 ? (1u << 18) : config_.chunk_bytes) / cb);
  const bool pooled = config_.parallel && pool_ != nullptr;
  return dispatch(out.empty() ? 0 : nb,
                  [&](std::size_t worker, std::size_t b) -> TaskOutput {
    auto gen = spec.make_lane_block(b);
    discard_bytes(*gen, skip * cb);
    std::vector<std::uint8_t> local[2];
    const auto buf = [&](std::size_t which) -> std::vector<std::uint8_t>& {
      return pooled ? pool_->scratch(worker, which) : local[which];
    };
    if (buf(0).size() < rows_per_chunk * cb) buf(0).resize(rows_per_chunk * cb);
    if (buf(1).size() < rows_per_chunk * cb) buf(1).resize(rows_per_chunk * cb);
    std::uint64_t produced = 0;
    std::size_t which = 0;
    for (std::size_t r0 = 0; r0 < rows; r0 += rows_per_chunk, which ^= 1) {
      const std::size_t r1 = std::min(rows, r0 + rows_per_chunk);
      const std::uint8_t* col = buf(which).data();
      gen->fill(std::span(buf(which).data(), (r1 - r0) * cb));
      for (std::size_t r = r0; r < r1; ++r, col += cb) {
        const std::size_t pos = r * row + b * cb;  // column start, row frame
        const std::size_t lo = std::max(pos, lead);
        const std::size_t hi = std::min(pos + cb, end);
        if (lo >= hi) continue;
        std::memcpy(out.data() + (lo - lead), col + (lo - pos), hi - lo);
        produced += hi - lo;
      }
    }
    return {produced, gen->lanes()};
  });
}

ThroughputReport StreamEngine::run_sequential(
    const std::function<std::unique_ptr<Generator>()>& make,
    std::uint64_t offset, std::span<std::uint8_t> out) {
  // No decomposition: one task clocks one generator past the offset and
  // produces the whole span, chunked so the report still reflects
  // steady-state generation.
  return dispatch(out.empty() ? 0 : 1,
                  [&](std::size_t, std::size_t) -> TaskOutput {
    auto gen = make();
    discard_bytes(*gen, offset);
    const std::size_t chunk =
        config_.chunk_bytes == 0 ? out.size() : config_.chunk_bytes;
    for (std::size_t i = 0; i < out.size(); i += chunk)
      gen->fill(out.subspan(i, std::min(chunk, out.size() - i)));
    return {out.size(), gen->lanes()};
  });
}

}  // namespace bsrng::core
