// serve.cpp — the two serving workloads: an in-process net::Server on
// loopback with a small engine pool, driven by one client thread over one
// connection per family.
//
//   serve_stream  pipelined, strictly sequential v1 spans of 64 KiB-1 MiB
//                 (divided by the family's span divisor); time per byte
//                 dominates.
//   serve_small   v2 spans of 64 B-4 KiB at a deep pipeline, spread over
//                 many tenant x stream refs; every K-th request jumps
//                 backward and every M-th is a kCheckpoint/kResume pair;
//                 fixed cost per request dominates.
//
// Every answer is checked against the direct-fill oracle computed before
// the window; a non-OK status, short payload, mismatch, closed connection
// or stall counts as a failed request.
#include <poll.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/thread_pool.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "stream/checkpoint.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace net = bsrng::net;
using bsrng::stream::StreamRef;

namespace {

constexpr std::size_t kSmallRefSlots = 8;    // live refs per connection
constexpr std::size_t kBackwardEvery = 16;   // K
constexpr std::size_t kCheckpointEvery = 64; // M
constexpr double kStallSeconds = 20.0;

struct Req {
  std::uint8_t type = net::kGenerate;
  StreamRef ref{};
  std::uint64_t offset = 0;
  std::uint32_t nbytes = 0;
  std::size_t oracle = 0;  // index into Conn::oracles (stream requests)
  std::size_t blob = 0;    // index into Conn::blobs (checkpoint / resume)
};

struct Inflight {
  std::size_t idx;
  Clock::time_point sent;
  long span;
};

struct Conn {
  std::size_t family = 0;
  std::string algo;
  std::uint64_t root_seed = 0;
  std::vector<Req> seq;  // one cycle; the loop repeats it
  // oracles[k] holds stream bytes [oracle_base[k], ...) of ref k's substream.
  std::vector<std::vector<std::uint8_t>> oracles;
  std::vector<std::uint64_t> oracle_base;
  std::vector<StreamRef> oracle_ref;
  std::vector<std::vector<std::uint8_t>> blobs;

  const std::uint8_t* expect(const Req& q) const {
    return oracles[q.oracle].data() + (q.offset - oracle_base[q.oracle]);
  }
};

// serve_stream: one substream per connection, consecutive spans from o0
// on; the cycle restarts at o0 (a short backward seek).  The sizes go round
// the cycle in a fixed stride order of their strata, so which sizes are in
// flight together, and with it peak memory, does not depend on the seed.
void build_stream_conn(Conn& c, Rng& rng, bool tiny) {
  constexpr std::size_t kStride = 17;  // coprime to both cycle lengths
  const std::size_t div = span_divisor(kFamilies[c.family]);
  const std::uint64_t o0 = rng.below(64u << 10);
  const std::uint64_t lo = (tiny ? (4u << 10) : (64u << 10)) / div;
  const std::uint64_t hi = (tiny ? (64u << 10) : (1u << 20)) / div;
  c.oracle_base = {o0};
  c.oracle_ref = {StreamRef{}};
  std::vector<std::uint64_t> sizes =
      rng.stratified(tiny ? 16 : 48, lo, hi, true);
  std::sort(sizes.begin(), sizes.end());
  std::uint64_t off = o0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::uint64_t n = sizes[i * kStride % sizes.size()];
    Req q;
    q.type = net::kGenerate;
    q.offset = off;
    q.nbytes = static_cast<std::uint32_t>(n);
    off += n;
    c.seq.push_back(q);
  }
}

// serve_small: kSmallRefSlots live refs; a ref is retired for a fresh one
// once its cursor passes the byte bound, which keeps backward lane-slice
// seeks (clocked from offset 0) bounded however long the run is.
void build_small_conn(Conn& c, Rng& rng, bool tiny) {
  const std::size_t div = span_divisor(kFamilies[c.family]);
  const std::uint64_t bound = (tiny ? (32u << 10) : (256u << 10)) / div;
  const std::size_t n = tiny ? 256 : 4096;
  std::array<std::uint64_t, 4> tenants{};
  for (auto& t : tenants) t = rng.next() >> 1;
  std::uint64_t next_stream = rng.next() >> 8;
  struct Slot {
    std::size_t ref;
    std::uint64_t cursor;
  };
  std::vector<std::uint64_t> max_end;
  const auto fresh = [&]() -> Slot {
    c.oracle_ref.push_back({tenants[rng.below(tenants.size())], next_stream++,
                            rng.below(2)});
    c.oracle_base.push_back(0);
    max_end.push_back(0);
    return {c.oracle_ref.size() - 1, 0};
  };
  std::vector<Slot> slots;
  for (std::size_t s = 0; s < kSmallRefSlots; ++s) slots.push_back(fresh());
  for (std::size_t i = 1; c.seq.size() < n; ++i) {
    Slot& s = slots[rng.below(slots.size())];
    Req q;
    q.ref = c.oracle_ref[s.ref];
    q.oracle = s.ref;
    q.nbytes = static_cast<std::uint32_t>(rng.log_uniform(64, 4096));
    if (i % kCheckpointEvery == 0) {
      q.offset = s.cursor;
      q.blob = c.blobs.size();
      c.blobs.push_back(bsrng::stream::serialize_checkpoint(
          {c.algo, c.root_seed, q.ref, q.offset}));
      Req ck = q;
      ck.type = net::kCheckpoint;
      ck.nbytes = 0;
      c.seq.push_back(ck);
      q.type = net::kResume;
    } else if (i % kBackwardEvery == 0 && s.cursor > 0) {
      q.type = net::kGenerate2;
      q.offset = rng.below(s.cursor);
    } else {
      q.type = net::kGenerate2;
      q.offset = s.cursor;
    }
    s.cursor = q.offset + q.nbytes;
    max_end[s.ref] = std::max(max_end[s.ref], s.cursor);
    c.seq.push_back(q);
    if (s.cursor >= bound) s = fresh();
  }
  // Each ref's oracle covers [0, furthest byte the cycle asks of it).
  c.oracles.resize(c.oracle_ref.size());
  for (std::size_t k = 0; k < c.oracles.size(); ++k)
    c.oracles[k].resize(max_end[k]);
}

std::vector<Conn> make_conns(const Options& opt, bool small) {
  Rng rng{opt.seed ^ (small ? 0x736d616c6cull : 0x73747265616dull)};
  std::vector<Conn> conns(kFamilies.size());
  for (std::size_t f = 0; f < conns.size(); ++f) {
    Conn& c = conns[f];
    c.family = f;
    c.algo = algo_name(kFamilies[f]);
    c.root_seed = rng.next();
    if (small) {
      build_small_conn(c, rng, opt.tiny);
    } else {
      build_stream_conn(c, rng, opt.tiny);
      std::uint64_t len = 0;
      for (const Req& q : c.seq) len += q.nbytes;
      c.oracles.emplace_back(len);
    }
  }
  // Oracles: one direct generator per substream, computed before any timing.
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  for (std::size_t f = 0; f < conns.size(); ++f)
    for (std::size_t k = 0; k < conns[f].oracles.size(); ++k)
      jobs.emplace_back(f, k);
  bsrng::core::ThreadPool pool(bsrng::core::ThreadPool::default_workers());
  pool.run_indexed(jobs.size(), [&](std::size_t, std::size_t j) {
    Conn& c = conns[jobs[j].first];
    const std::size_t k = jobs[j].second;
    c.oracles[k] = oracle_bytes(c.algo, c.oracle_ref[k].derive_seed(c.root_seed),
                                c.oracle_base[k], c.oracles[k].size());
  });
  return conns;
}

struct Fleet {
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::Client>> clients;
};

// Server construction and start, connect + hello per connection, and one
// warm-up request per algorithm.
Fleet setup_fleet(std::size_t workers, const std::vector<Conn>& conns,
                  std::uint64_t warm_seed) {
  net::ServerConfig cfg;
  cfg.workers = workers;
  Fleet fl;
  fl.server = std::make_unique<net::Server>(cfg);
  fl.server->start();
  for (const Conn& c : conns) {
    auto client = std::make_unique<net::Client>("127.0.0.1", fl.server->port());
    client->hello();
    const auto warm = client->generate(
        c.algo, warm_seed, 0,
        static_cast<std::uint32_t>((64u << 10) / span_divisor(kFamilies[c.family])));
    if (warm.empty()) throw std::runtime_error("warm-up returned no bytes");
    fl.clients.push_back(std::move(client));
  }
  return fl;
}

void send_request(net::Client& cl, const Conn& c, const Req& q) {
  switch (q.type) {
    case net::kGenerate:
      cl.send_generate(c.algo, c.root_seed, q.offset, q.nbytes);
      break;
    case net::kGenerate2:
      cl.send_generate(c.algo, c.root_seed, q.ref, q.offset, q.nbytes);
      break;
    case net::kCheckpoint:
      cl.send_checkpoint(c.algo, c.root_seed, q.ref, q.offset);
      break;
    case net::kResume:
      cl.send_resume(c.blobs[q.blob], q.nbytes);
      break;
    default:
      throw std::logic_error("unknown request type");
  }
}

// The closed loop: keep `depth` requests in flight per connection until the
// deadline, then drain.  One thread; every request timed from its send to
// the last byte of its answer.  Completions before the deadline also land
// in fixed-length sub-windows (the drain tail is not one).
WindowStats run_window(Fleet& fl, std::vector<Conn>& conns, double seconds,
                       double sub_s, std::size_t depth, bool corrupt_one,
                       Tracer& tracer, std::uint64_t& next_id) {
  WindowStats w;
  const std::size_t nc = conns.size();
  std::vector<std::deque<Inflight>> inflight(nc);
  std::vector<std::size_t> cursor(nc, 0);
  std::vector<bool> dead(nc, false);
  std::vector<pollfd> pfds(nc);
  bool corrupted = false;

  const auto fail_all = [&](std::size_t i) {
    w.failed += inflight[i].size();
    inflight[i].clear();
    dead[i] = true;
  };

  double held = 0.0;
  for (const Conn& c : conns)
    for (const auto& o : c.oracles) held += double(o.size());
  reset_peak_rss();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto last_progress = start;
  Clock::time_point end = start;
  SubWindow sub;
  auto sub_start = start;
  double sub_cpu0 = process_cpu_seconds();
  bool in_window = true;
  const auto close_sub = [&](Clock::time_point now) {
    sub.seconds = seconds_between(sub_start, now);
    sub.cpu_s = process_cpu_seconds() - sub_cpu0;
    for (std::size_t i = 0; i < nc; ++i)
      if (!dead[i]) sub.family_seconds[conns[i].family] = sub.seconds;
    if (sub.seconds >= sub_s / 2) w.subs.push_back(sub);
    sub = SubWindow{};
    sub_start = now;
    sub_cpu0 = process_cpu_seconds();
  };
  for (;;) {
    const auto now = Clock::now();
    const bool sending = now < deadline;
    if (in_window && !sending) {
      close_sub(deadline);
      in_window = false;
    } else if (in_window && seconds_between(sub_start, now) >= sub_s) {
      close_sub(now);
    }
    bool any = false;
    for (std::size_t i = 0; i < nc; ++i) {
      Conn& c = conns[i];
      while (sending && !dead[i] && inflight[i].size() < depth) {
        const std::size_t idx = cursor[i]++ % c.seq.size();
        const std::uint64_t id = next_id++;
        const long root = tracer.begin("client.request", id);
        const auto t0 = Clock::now();
        ++w.attempted;
        try {
          const long s = tracer.begin("client.send", id, root);
          send_request(*fl.clients[i], c, c.seq[idx]);
          tracer.end(s);
        } catch (const std::exception&) {
          ++w.failed;
          fail_all(i);
          break;
        }
        inflight[i].push_back({idx, t0, root});
      }
      any = any || !inflight[i].empty();
      pfds[i] = {fl.clients[i]->fd(),
                 static_cast<short>(inflight[i].empty() ? 0 : POLLIN), 0};
    }
    if (!any) break;

    const auto p0 = Clock::now();
    const int n = ::poll(pfds.data(), pfds.size(), 100);
    const auto p1 = Clock::now();
    tracer.record("client.poll", 0, p0, p1);
    w.wait_s += seconds_between(p0, p1);
    if (n < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (n <= 0) {
      if (seconds_between(last_progress, p1) > kStallSeconds)
        for (std::size_t i = 0; i < nc; ++i) fail_all(i);
      continue;
    }
    for (std::size_t i = 0; i < nc; ++i) {
      if (pfds[i].revents == 0 || inflight[i].empty()) continue;
      Conn& c = conns[i];
      for (;;) {
        net::Response resp;
        const auto r0 = Clock::now();
        const auto rr = fl.clients[i]->read_response(resp, 0);
        if (rr == net::Client::ReadResult::kTimeout) break;
        if (rr == net::Client::ReadResult::kClosed) {
          fail_all(i);
          break;
        }
        const auto t1 = Clock::now();
        last_progress = end = t1;
        const Inflight req = inflight[i].front();
        inflight[i].pop_front();
        tracer.record("client.read", req.idx, r0, t1, req.span);
        const Req& q = c.seq[req.idx];
        w.latency_us.push_back(seconds_between(req.sent, t1) * 1e6);
        bool ok = resp.status == net::Status::kOk;
        const long v = tracer.begin("bench.verify", req.idx, req.span);
        if (q.type == net::kCheckpoint) {
          ok = ok && resp.payload == c.blobs[q.blob];
        } else {
          if (corrupt_one && !corrupted && !resp.payload.empty()) {
            resp.payload[resp.payload.size() / 2] ^= 0x01;
            corrupted = true;
          }
          ok = ok && resp.payload.size() == q.nbytes &&
               std::memcmp(resp.payload.data(), c.expect(q), q.nbytes) == 0;
        }
        tracer.end(v);
        tracer.end(req.span);
        if (!ok) {
          ++w.failed;
          continue;
        }
        w.bytes += q.nbytes;
        if (in_window) {
          ++sub.completed;
          sub.bytes += q.nbytes;
          sub.family_bytes[c.family] += q.nbytes;
        }
        if (inflight[i].empty()) break;
      }
    }
  }
  w.window_s = seconds_between(start, end);
  w.mem_peak_mib = peak_rss_mib() - held / double(1u << 20);
  return w;
}

}  // namespace

Result run_serve(const Options& opt, bool small) {
  const std::size_t workers =
      bsrng::core::ThreadPool::default_workers() >= 4 ? 2 : 1;
  const std::size_t depth = small ? 32 : 4;
  const double sub_s = opt.tiny ? 0.1 : 1.0;
  std::vector<Conn> conns = make_conns(opt, small);
  settle_allocator(kSettleBytes);
  const std::uint64_t warm_seed = ~opt.seed;

  std::vector<double> setups;
  Fleet fleet;
  for (int i = 0; i < setup_repeats(opt.tiny); ++i) {
    fleet = Fleet{};
    const auto t0 = Clock::now();
    fleet = setup_fleet(workers, conns, warm_seed);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  Result r;
  std::uint64_t next_id = 0;
  Tracer off(false);
  if (!opt.trace) {
    const WindowStats w = run_window(fleet, conns, opt.seconds, sub_s, depth,
                                     opt.corrupt_one, off, next_id);
    add_end_to_end(r, w, setups);
    r.notes.push_back("closed loop: 1 client thread, " +
                      std::to_string(conns.size()) + " connections x depth " +
                      std::to_string(depth) + ", server workers " +
                      std::to_string(workers));
    return r;
  }

  const WindowStats plain = run_window(fleet, conns, opt.seconds / 2, sub_s,
                                       depth, opt.corrupt_one, off, next_id);
  Tracer tracer(true);
  bsrng::telemetry::metrics().set_enabled(true);
  const PoolCounters pool0 = PoolCounters::read();
  const net::ServerStats s0 = fleet.server->stats();
  const WindowStats traced = run_window(fleet, conns, opt.seconds / 2, sub_s,
                                        depth, false, tracer, next_id);
  const net::ServerStats s1 = fleet.server->stats();
  const PoolCounters pool1 = PoolCounters::read();
  fleet = Fleet{};
  r.attempted = plain.attempted + traced.attempted;
  r.failed = plain.failed + traced.failed;

  const ProbeConfig probe{opt.seed, workers, opt.tiny};
  add_kernel_layer_metrics(r, probe, tracer);
  add_pool_metrics(r, pool0, pool1);

  std::vector<ReplayItem> items;
  for (const Conn& c : conns) {
    for (const Req& q : c.seq) {
      ReplayItem it;
      it.type = q.type;
      it.family = c.family;
      it.root_seed = c.root_seed;
      it.tenant = q.ref.tenant;
      it.stream = q.ref.stream;
      it.shard = q.ref.shard;
      it.offset = q.offset;
      it.nbytes = q.nbytes;
      if (q.type == net::kCheckpoint || q.type == net::kResume)
        it.blob = c.blobs[q.blob];
      if (q.type != net::kCheckpoint) it.expect = c.expect(q);
      items.push_back(std::move(it));
    }
  }
  std::array<EngineAgg, kFamilies.size()> agg{};
  const double serve_p50 =
      add_replay_layer_metrics(r, items, workers, tracer, &agg);
  add_engine_agg_metrics(r, agg, workers);
  add_stream_layer_metrics(r, probe, tracer);

  const double requests = static_cast<double>(s1.requests - s0.requests);
  r.add("server.batched_share",
        requests > 0 ? static_cast<double>(s1.batched_spans - s0.batched_spans) /
                           requests
                     : 0.0,
        "share");
  r.add("server.backpressure_stalls",
        static_cast<double>(s1.backpressure_stalls - s0.backpressure_stalls),
        "count");
  r.add("server.sheds", static_cast<double>(s1.sheds - s0.sheds), "count");
  r.add("server.bad_frames", static_cast<double>(s1.bad_frames - s0.bad_frames),
        "count");
  r.add("server.overhead_us_p50", quantile(traced.latency_us, 0.5) - serve_p50,
        "us");
  r.add("client.wait_share", traced.wait_s / traced.window_s, "share");

  const auto rate = [](const WindowStats& w) {
    return static_cast<double>(w.bytes) / w.window_s;
  };
  r.add("trace.overhead", rate(plain) / rate(traced), "ratio");
  bsrng::telemetry::metrics().set_enabled(false);
  tracer.write(opt.trace_out);
  r.notes.push_back("trace: " + std::to_string(tracer.size()) + " spans");
  return r;
}

}  // namespace perfbench
