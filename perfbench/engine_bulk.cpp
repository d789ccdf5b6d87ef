// engine_bulk.cpp — in-process StreamEngine::generate over multi-MiB spans
// for the six bitsliced families at bs512, on a pool of nproc workers.  No
// sockets: the paper's Fig. 10 library path.
#include <algorithm>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "core/registry.hpp"
#include "core/stream_engine.hpp"
#include "core/thread_pool.hpp"
#include "net/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace core = bsrng::core;

namespace {

struct BulkRequest {
  std::size_t family = 0;
  core::StreamRequest req;
  std::vector<std::uint8_t> expect;  // oracle, computed before any timing
  std::vector<std::uint8_t> out;
  std::uint64_t tasks = 0;           // engine tasks of this request's call
  bool seen = false;
};

// Per family: `per_family` requests on fresh StreamRefs, each at a small
// unaligned offset (so lane-slice seeks stay cheap and bounded).
std::vector<BulkRequest> make_requests(const Options& opt) {
  Rng rng{opt.seed ^ 0x656e67696e65ull};
  const std::size_t per_family = opt.tiny ? 1 : 3;
  const std::uint64_t lo = opt.tiny ? (64u << 10) : (2u << 20);
  const std::uint64_t hi = 2 * lo;
  std::vector<BulkRequest> reqs;
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    const auto spans = rng.stratified(per_family, lo, hi, false);
    for (std::size_t i = 0; i < per_family; ++i) {
      BulkRequest b;
      b.family = f;
      b.req.algorithm = algo_name(kFamilies[f]);
      b.req.seed = rng.next();
      b.req.ref = {rng.next() >> 1, rng.next() >> 1, rng.below(4)};
      b.req.offset = rng.below(64u << 10);
      b.out.resize(spans[i] / span_divisor(kFamilies[f]));
      reqs.push_back(std::move(b));
    }
  }
  core::ThreadPool pool(core::ThreadPool::default_workers());
  pool.run_indexed(reqs.size(), [&](std::size_t, std::size_t i) {
    BulkRequest& b = reqs[i];
    b.expect = oracle_bytes(b.req.algorithm, b.req.derived_seed(),
                            b.req.offset, b.out.size());
    std::memset(b.out.data(), 0, b.out.size());  // fault the pages in now
  });
  return reqs;
}

// Pool construction plus one warm-up call per algorithm: the first call
// allocates and faults in the workers' scratch, which belongs to set-up.
// The warm-up span is the smallest that gives every task of the partition
// work (one row of lane blocks, or one counter block per worker), so set-up
// time is thread start and allocation, not keystream generation, and does
// not depend on the seed.
std::unique_ptr<core::StreamEngine> setup_engine(std::size_t workers) {
  auto engine = std::make_unique<core::StreamEngine>(
      core::StreamEngineConfig{.workers = workers});
  std::vector<std::uint8_t> scratch;
  for (const std::string_view fam : kFamilies) {
    const std::string algo = algo_name(fam);
    const core::PartitionSpec spec = core::partition_spec(algo, 1);
    scratch.resize(std::max({spec.lane_blocks * spec.lane_block_bytes,
                             workers * spec.block_bytes, std::size_t{1}}));
    engine->generate(core::StreamRequest{algo, 1, {}, 0}, scratch);
  }
  return engine;
}

struct BulkWindow {
  WindowStats w;
  std::array<EngineAgg, kFamilies.size()> agg{};
};

// Closed loop: round-robin over families, each family running calls for
// one time slice per round; the window ends once `seconds` have passed and
// every request ran at least once.
BulkWindow run_window(core::StreamEngine& engine, std::vector<BulkRequest>& reqs,
                      double seconds, bool tiny, bool corrupt_one,
                      Tracer& tracer, std::uint64_t& next_id) {
  BulkWindow bw;
  WindowStats& w = bw.w;
  std::array<std::vector<BulkRequest*>, kFamilies.size()> by_family;
  for (BulkRequest& b : reqs) by_family[b.family].push_back(&b);
  std::array<std::size_t, kFamilies.size()> cursor{};
  const double slice = tiny ? 0.005 : 0.1;
  bool corrupted = false;

  double held = 0.0;
  for (const BulkRequest& b : reqs) held += double(b.expect.size() + b.out.size());
  reset_peak_rss();
  const auto start = Clock::now();
  for (;;) {
    // One round = one sub-window.  Its clock and CPU are those of the
    // generate() calls alone; verification runs outside both.
    SubWindow& sub = w.subs.emplace_back();
    for (std::size_t f = 0; f < kFamilies.size(); ++f) {
      const auto slice_start = Clock::now();
      do {
        BulkRequest& b = *by_family[f][cursor[f]++ % by_family[f].size()];
        const std::uint64_t id = next_id++;
        const long root = tracer.begin("engine_bulk.request", id);
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        const core::ThroughputReport rep = engine.generate(b.req, b.out);
        const auto t1 = Clock::now();
        sub.cpu_s += process_cpu_seconds() - cpu0;
        tracer.record("stream_engine.generate", id, t0, t1, root);
        const double s = seconds_between(t0, t1);
        ++w.attempted;
        w.latency_us.push_back(s * 1e6);
        sub.seconds += s;
        sub.family_seconds[f] += s;
        if (corrupt_one && !corrupted) {
          b.out[b.out.size() / 2] ^= 0x01;
          corrupted = true;
        }
        const long v = tracer.begin("bench.verify", id, root);
        const bool ok = b.out == b.expect;
        tracer.end(v);
        tracer.end(root);
        if (ok) {
          ++sub.completed;
          sub.bytes += b.out.size();
          sub.family_bytes[f] += b.out.size();
          w.bytes += b.out.size();
        } else {
          ++w.failed;
        }
        EngineAgg& a = bw.agg[f];
        a.wall_s += rep.wall_seconds;
        a.busy_s += rep.sum_worker_seconds;
        a.speedup_sum += rep.modeled_speedup();
        ++a.calls;
        if (!b.seen) {
          b.seen = true;
          for (const auto& pw : rep.per_worker) b.tasks += pw.tasks;
        }
      } while (seconds_between(slice_start, Clock::now()) < slice);
    }
    bool all_seen = true;
    for (const BulkRequest& b : reqs) all_seen = all_seen && b.seen;
    if (all_seen && seconds_between(start, Clock::now()) >= seconds) break;
  }
  w.window_s = seconds_between(start, Clock::now());
  w.mem_peak_mib = peak_rss_mib() - held / double(1u << 20);
  return bw;
}

}  // namespace

Result run_engine_bulk(const Options& opt) {
  const std::size_t workers = core::ThreadPool::default_workers();
  std::vector<BulkRequest> reqs = make_requests(opt);
  settle_allocator(kSettleBytes);

  std::vector<double> setups;
  std::unique_ptr<core::StreamEngine> engine;
  for (int i = 0; i < setup_repeats(opt.tiny); ++i) {
    engine.reset();
    const auto t0 = Clock::now();
    engine = setup_engine(workers);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  Result r;
  std::uint64_t next_id = 0;
  Tracer off(false);
  // One untimed round before any window: the first calls on each request's
  // buffers run cold, and a window opens on a warm engine.
  run_window(*engine, reqs, 0.0, opt.tiny, false, off, next_id);
  if (!opt.trace) {
    const BulkWindow bw = run_window(*engine, reqs, opt.seconds, opt.tiny,
                                     opt.corrupt_one, off, next_id);
    add_end_to_end(r, bw.w, setups);
    for (std::size_t f = 0; f < kFamilies.size(); ++f)
      r.notes.push_back("row " + algo_name(kFamilies[f]) +
                        ": nominal width 512, workers " +
                        std::to_string(workers) + ", " +
                        std::to_string(bw.agg[f].calls) + " calls");
    return r;
  }

  // Traced run: an untraced half-window, then a traced one with telemetry
  // on; their rate ratio is the tracing overhead.
  const BulkWindow plain = run_window(*engine, reqs, opt.seconds / 2, opt.tiny,
                                      opt.corrupt_one, off, next_id);
  Tracer tracer(true);
  bsrng::telemetry::metrics().set_enabled(true);
  const PoolCounters before = PoolCounters::read();
  BulkWindow traced = run_window(*engine, reqs, opt.seconds / 2, opt.tiny,
                                 false, tracer, next_id);
  const PoolCounters after = PoolCounters::read();
  r.attempted = plain.w.attempted + traced.w.attempted;
  r.failed = plain.w.failed + traced.w.failed;

  const ProbeConfig probe{opt.seed, workers, opt.tiny};
  add_kernel_layer_metrics(r, probe, tracer);
  for (const BulkRequest& b : reqs) traced.agg[b.family].tasks += b.tasks;
  add_engine_agg_metrics(r, traced.agg, workers);
  add_pool_metrics(r, before, after);

  std::vector<ReplayItem> items;
  for (const BulkRequest& b : reqs) {
    ReplayItem it;
    it.type = bsrng::net::kGenerate2;
    it.family = b.family;
    it.root_seed = b.req.seed;
    it.tenant = b.req.ref.tenant;
    it.stream = b.req.ref.stream;
    it.shard = b.req.ref.shard;
    it.offset = b.req.offset;
    it.nbytes = static_cast<std::uint32_t>(b.out.size());
    it.expect = b.expect.data();
    items.push_back(std::move(it));
  }
  const double serve_p50 =
      add_replay_layer_metrics(r, items, workers, tracer, nullptr);
  add_stream_layer_metrics(r, probe, tracer);
  // No server or client on this path: their counts are 0, and the derived
  // overhead is the engine call's p50 over the replayed session serve p50.
  for (const char* name : {"server.batched_share", "server.backpressure_stalls",
                           "server.sheds", "server.bad_frames"})
    r.add(name, 0.0, std::string(name).ends_with("share") ? "share" : "count");
  r.add("server.overhead_us_p50",
        quantile(traced.w.latency_us, 0.5) - serve_p50, "us");
  r.add("client.wait_share", 0.0, "share");

  const auto rate = [](const WindowStats& w) {
    return static_cast<double>(w.bytes) / w.window_s;
  };
  r.add("trace.overhead", rate(plain.w) / rate(traced.w), "ratio");
  bsrng::telemetry::metrics().set_enabled(false);
  tracer.write(opt.trace_out);
  r.notes.push_back("trace: " + std::to_string(tracer.size()) + " spans");
  return r;
}

}  // namespace perfbench
