// layers.cpp — per-layer probes of the traced run.  Every probe calls the
// layer's public functions from here; nothing under src/ is instrumented.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "bitslice/slice.hpp"
#include "ciphers/a51_bs.hpp"
#include "ciphers/aes_bs.hpp"
#include "ciphers/chacha_bs.hpp"
#include "ciphers/grain_bs.hpp"
#include "ciphers/mickey_bs.hpp"
#include "ciphers/trivium_bs.hpp"
#include "core/registry.hpp"
#include "core/stream_engine.hpp"
#include "net/protocol.hpp"
#include "net/session.hpp"
#include "stream/checkpoint.hpp"
#include "stream/stream_ref.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace core = bsrng::core;
namespace net = bsrng::net;
namespace bs = bsrng::bitslice;
using W512 = bs::SliceV512;

namespace {

// Repeat prepare(); fn() (one fn call = `bytes` output bytes) until `min_s`
// has passed and at least three calls ran; the median rate of the timed
// fn() calls in Gbit/s.
template <typename Prepare, typename Fn>
double rate_gbps(std::size_t bytes, double min_s, Prepare&& prepare, Fn&& fn) {
  std::vector<double> rates;
  const auto start = Clock::now();
  while (rates.size() < 3 || seconds_between(start, Clock::now()) < min_s) {
    prepare();
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_between(t0, Clock::now());
    rates.push_back(static_cast<double>(bytes) * 8.0 / s / 1e9);
  }
  return median(rates);
}

// The bitsliced kernel alone, without slice -> bytes serialization: `calls`
// repetitions of the family's step loop; returns the keystream bytes one
// repetition produces.
class StepLoop {
 public:
  StepLoop(std::string_view family, std::uint64_t seed, std::size_t bytes)
      : family_(family) {
    if (family == "aes-ctr") {
      std::array<std::uint8_t, 16> key{};
      for (std::size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(seed >> (8 * (i % 8)));
      aes_ = std::make_unique<bsrng::ciphers::AesBs<W512>>(key);
      for (std::size_t i = 0; i < aes_state_.size(); ++i)
        bs::SliceTraits<W512>::set_word64(aes_state_[i], i % 8, seed + i);
      batches_ = std::max<std::size_t>(1, bytes / (512 * 16));
      bytes_ = batches_ * 512 * 16;
    } else if (family == "chacha20") {
      for (std::size_t i = 0; i < chacha_init_.size(); ++i)
        for (std::size_t b = 0; b < 32; ++b)
          for (std::size_t k = 0; k < 8; ++k)
            bs::SliceTraits<W512>::set_word64(chacha_init_[i][b], k,
                                              (seed + i * 32 + b) * (k + 1));
      batches_ = std::max<std::size_t>(1, bytes / (512 * 64));
      bytes_ = batches_ * 512 * 64;
    } else {
      slices_.resize(std::max<std::size_t>(1, bytes / 64));
      bytes_ = slices_.size() * 64;
      if (family == "mickey")
        mickey_ = std::make_unique<bsrng::ciphers::MickeyBs<W512>>(seed);
      else if (family == "grain")
        grain_ = std::make_unique<bsrng::ciphers::GrainBs<W512>>(seed);
      else if (family == "trivium")
        trivium_ = std::make_unique<bsrng::ciphers::TriviumBs<W512>>(seed);
      else if (family == "a51")
        a51_ = std::make_unique<bsrng::ciphers::A51Bs<W512>>(seed);
      else
        throw std::invalid_argument("unknown family");
    }
  }

  std::size_t bytes() const noexcept { return bytes_; }

  void run() {
    if (aes_) {
      for (std::size_t i = 0; i < batches_; ++i) aes_->encrypt_slices(aes_state_);
    } else if (family_ == "chacha20") {
      using C = bsrng::ciphers::ChaCha20Bs<W512>;
      for (std::size_t n = 0; n < batches_; ++n) {
        auto x = chacha_init_;
        for (int r = 0; r < 10; ++r) {
          C::quarter_round(x[0], x[4], x[8], x[12]);
          C::quarter_round(x[1], x[5], x[9], x[13]);
          C::quarter_round(x[2], x[6], x[10], x[14]);
          C::quarter_round(x[3], x[7], x[11], x[15]);
          C::quarter_round(x[0], x[5], x[10], x[15]);
          C::quarter_round(x[1], x[6], x[11], x[12]);
          C::quarter_round(x[2], x[7], x[8], x[13]);
          C::quarter_round(x[3], x[4], x[9], x[14]);
        }
        for (std::size_t i = 0; i < 16; ++i) C::add32(x[i], chacha_init_[i]);
        chacha_init_[12][0] ^= x[0][0];  // chain batches: keeps the work live
      }
    } else if (mickey_) {
      mickey_->generate(slices_);
    } else if (grain_) {
      grain_->generate(slices_);
    } else if (trivium_) {
      trivium_->generate(slices_);
    } else {
      a51_->generate(slices_);
    }
  }

 private:
  std::string_view family_;
  std::size_t bytes_ = 0;
  std::size_t batches_ = 0;
  std::vector<W512> slices_;
  std::unique_ptr<bsrng::ciphers::MickeyBs<W512>> mickey_;
  std::unique_ptr<bsrng::ciphers::GrainBs<W512>> grain_;
  std::unique_ptr<bsrng::ciphers::TriviumBs<W512>> trivium_;
  std::unique_ptr<bsrng::ciphers::A51Bs<W512>> a51_;
  std::unique_ptr<bsrng::ciphers::AesBs<W512>> aes_;
  bsrng::ciphers::AesBs<W512>::State aes_state_{};
  std::array<bsrng::ciphers::ChaCha20Bs<W512>::Word, 16> chacha_init_{};
};

}  // namespace

void add_kernel_layer_metrics(Result& r, const ProbeConfig& cfg,
                              Tracer& tracer) {
  Rng rng{cfg.seed ^ 0x6b65726e656cull};
  const double min_s = cfg.tiny ? 0.005 : 0.08;
  core::StreamEngine engine1(core::StreamEngineConfig{.workers = 1});
  core::StreamEngine engine(core::StreamEngineConfig{.workers = cfg.workers});
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    const std::string fam(kFamilies[f]);
    const std::string algo = algo_name(fam);
    const std::uint64_t seed = rng.next();
    const std::size_t probe =
        (cfg.tiny ? (64u << 10) : (2u << 20)) / span_divisor(fam);
    std::vector<std::uint8_t> direct(probe), via_engine(probe);

    // ciphers + bitslice: one-thread direct fill, the step loop alone.
    const auto nothing = [] {};
    std::unique_ptr<core::Generator> gen;
    long sp = tracer.begin("ciphers.fill", f);
    const double fill = rate_gbps(
        probe, min_s, [&] { gen = core::make_generator(algo, seed); },
        [&] { gen->fill(direct); });
    tracer.end(sp);
    StepLoop step_loop(fam, seed, probe);
    sp = tracer.begin("ciphers.step", f);
    const double step = rate_gbps(step_loop.bytes(), min_s, nothing,
                                  [&] { step_loop.run(); });
    tracer.end(sp);
    r.add("ciphers.fill_gbps." + fam, fill, "Gbit/s");
    r.add("ciphers.step_gbps." + fam, step, "Gbit/s");
    r.add("bitslice.serialize_share." + fam, 1.0 - fill / step, "share");
    const auto info = core::find_algorithm(algo);
    r.add("ciphers.gates_per_bit." + fam, info ? info->gate_ops_per_bit : 0.0,
          "gates/bit");

    // stream_engine at one worker against the direct fill above.
    sp = tracer.begin("stream_engine.generate_w1", f);
    const double w1 = rate_gbps(probe, min_s, nothing, [&] {
      engine1.generate(core::StreamRequest{algo, seed, {}, 0}, via_engine);
    });
    tracer.end(sp);
    ++r.attempted;
    if (via_engine != direct) {
      ++r.failed;
      r.notes.push_back("MISMATCH: one-worker engine output differs from "
                        "direct fill for " + algo);
    }
    r.add("stream_engine.w1_ratio." + fam, w1 / fill, "ratio");

    // The lane width the engine's shards actually execute, read off the
    // shard generator the PartitionSpec builds.
    const core::PartitionSpec spec = core::partition_spec(algo, seed);
    std::size_t executed = 0;
    if (spec.kind == core::PartitionKind::kCounter) {
      executed = spec.make_at_block(0)->lanes();
    } else if (spec.kind == core::PartitionKind::kLaneSlice) {
      executed = spec.make_lane_block(0)->lanes();
      ++r.attempted;
      if (executed != spec.lane_block_bytes * 8) {
        ++r.failed;
        r.notes.push_back("WIDTH: " + algo + " shard runs " +
                          std::to_string(executed) + " lanes but its spec "
                          "declares " + std::to_string(spec.lane_block_bytes * 8));
      }
    }
    r.add("stream_engine.executed_width." + fam, static_cast<double>(executed),
          "lanes");
    r.notes.push_back("width " + algo + ": nominal " +
                      std::to_string(kNominalWidth) + ", executed " +
                      std::to_string(executed));

    // Fixed cost of one 256 B counter-family call on the workload's pool.
    if (spec.kind == core::PartitionKind::kCounter) {
      constexpr std::size_t kSmall = 256;
      std::vector<std::uint64_t> offsets(8);
      std::vector<std::vector<std::uint8_t>> expect(offsets.size());
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        offsets[i] = rng.below(64u << 10);
        expect[i] = oracle_bytes(algo, seed, offsets[i], kSmall);
      }
      std::vector<std::uint8_t> out(kSmall);
      std::vector<double> us;
      const std::size_t calls = cfg.tiny ? 16 : 400;
      for (std::size_t i = 0; i < calls; ++i) {
        const std::size_t k = i % offsets.size();
        const auto t0 = Clock::now();
        engine.generate(spec, offsets[k], out);
        const auto t1 = Clock::now();
        tracer.record("stream_engine.generate_small", i, t0, t1);
        us.push_back(seconds_between(t0, t1) * 1e6);
        ++r.attempted;
        if (out != expect[k]) ++r.failed;
      }
      r.add("stream_engine.call_fixed_us." + fam, median(us), "us");
    }
  }
}

void add_stream_layer_metrics(Result& r, const ProbeConfig& cfg,
                              Tracer& tracer) {
  Rng rng{cfg.seed ^ 0x73747265616dull};
  const std::size_t n = cfg.tiny ? 10000 : 2000000;
  std::vector<bsrng::stream::StreamRef> refs(4096);
  for (auto& ref : refs) ref = {rng.next(), rng.next(), rng.below(16)};
  const std::uint64_t root = rng.next();
  std::uint64_t sink = 0;
  long sp = tracer.begin("stream.derive_seed", 0);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    sink += refs[i % refs.size()].derive_seed(root ^ i);
  const double derive_s = seconds_between(t0, Clock::now());
  tracer.end(sp);
  r.add("stream.derive_ns", derive_s * 1e9 / static_cast<double>(n), "ns");

  const std::size_t m = cfg.tiny ? 1000 : 50000;
  std::size_t bad = 0;
  sp = tracer.begin("stream.checkpoint_roundtrip", 0);
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < m; ++i) {
    const bsrng::stream::StreamCheckpoint ck{
        algo_name(kFamilies[i % kFamilies.size()]), root + i,
        refs[i % refs.size()], sink + i};
    const auto blob = bsrng::stream::serialize_checkpoint(ck);
    const auto back = bsrng::stream::parse_checkpoint(blob);
    if (!back || !(*back == ck)) ++bad;
  }
  const double ck_s = seconds_between(t1, Clock::now());
  tracer.end(sp);
  r.attempted += m;
  r.failed += bad;
  r.add("stream.checkpoint_roundtrip_us", ck_s * 1e6 / static_cast<double>(m),
        "us");
}

double add_replay_layer_metrics(Result& r, const std::vector<ReplayItem>& items,
                                std::size_t workers, Tracer& tracer,
                                std::array<EngineAgg, kFamilies.size()>* agg) {
  core::StreamEngine engine(core::StreamEngineConfig{.workers = workers});
  std::map<std::pair<std::string, std::uint64_t>, net::Session> sessions;
  std::vector<double> serve_us;
  std::uint64_t seek_bytes = 0, payload_bytes = 0, wire_bytes = 0, resumes = 0;
  double encode_s = 0.0;
  std::vector<std::uint8_t> out;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ReplayItem& it = items[i];
    const std::string algo = algo_name(kFamilies[it.family]);
    const bsrng::stream::StreamRef ref{it.tenant, it.stream, it.shard};
    net::GenerateRequest g{algo, it.root_seed, it.offset, it.nbytes, ref};
    switch (it.type) {
      case net::kGenerate: frames.push_back(net::encode_generate(g)); break;
      case net::kGenerate2: frames.push_back(net::encode_generate2(g)); break;
      case net::kCheckpoint:
        frames.push_back(net::encode_checkpoint_request(g));
        break;
      case net::kResume:
        frames.push_back(net::encode_resume(it.blob, it.nbytes));
        ++resumes;
        break;
      default: throw std::logic_error("replay: unknown request type");
    }
    wire_bytes += frames.back().size();
    if (it.type == net::kCheckpoint) {
      wire_bytes += net::encode_response(net::Status::kOk, it.blob).size();
      continue;
    }
    // session: the server's per-tenant serve path on the folded seed.
    const std::uint64_t derived = ref.derive_seed(it.root_seed);
    auto key = std::make_pair(algo, derived);
    auto sit = sessions.find(key);
    if (sit == sessions.end())
      sit = sessions.emplace(key, net::Session(algo, derived)).first;
    seek_bytes += sit->second.seek_cost(it.offset);
    out.resize(it.nbytes);
    const auto t0 = Clock::now();
    sit->second.serve(engine, it.offset, out);
    const auto t1 = Clock::now();
    tracer.record("session.serve", i, t0, t1);
    serve_us.push_back(seconds_between(t0, t1) * 1e6);
    ++r.attempted;
    if (std::memcmp(out.data(), it.expect, it.nbytes) != 0) ++r.failed;

    // protocol: the response frame the server would queue.
    const auto t2 = Clock::now();
    const auto resp = net::encode_response(net::Status::kOk,
                                           std::span(it.expect, it.nbytes));
    const auto t3 = Clock::now();
    tracer.record("protocol.encode_response", i, t2, t3);
    encode_s += seconds_between(t2, t3);
    wire_bytes += resp.size();
    payload_bytes += it.nbytes;

    // stream_engine accounting for the families the server routes through
    // the pool (lane-slice sessions bypass it).
    if (agg && is_counter_family(kFamilies[it.family])) {
      const auto rep = engine.generate(
          core::partition_spec(algo, derived), it.offset, out);
      EngineAgg& a = (*agg)[it.family];
      a.wall_s += rep.wall_seconds;
      a.busy_s += rep.sum_worker_seconds;
      a.speedup_sum += rep.modeled_speedup();
      ++a.calls;
      for (const auto& w : rep.per_worker) a.tasks += w.tasks;
    }
  }

  // protocol: extract_frame + decode_request over batches of 64 frames.
  constexpr std::size_t kBatch = 64;
  double decode_s = 0.0;
  std::size_t decoded = 0;
  std::vector<std::uint8_t> buf, body;
  for (std::size_t b = 0; b < frames.size(); b += kBatch) {
    buf.clear();
    const std::size_t e = std::min(frames.size(), b + kBatch);
    for (std::size_t i = b; i < e; ++i)
      buf.insert(buf.end(), frames[i].begin(), frames[i].end());
    const auto t0 = Clock::now();
    std::size_t i = b;
    while (net::extract_frame(buf, body, net::kMaxRequestBody)) {
      const auto req = net::decode_request(body);
      ++r.attempted;
      if (!req || req->type != items[i].type) ++r.failed;
      ++i;
      ++decoded;
    }
    const auto t1 = Clock::now();
    tracer.record("protocol.decode", b, t0, t1);
    decode_s += seconds_between(t0, t1);
  }

  const double serve_p50 = median(serve_us);
  r.add("session.serve_us_p50", serve_p50, "us");
  r.add("session.seek_bytes", static_cast<double>(seek_bytes), "bytes");
  r.add("protocol.encode_gbps",
        encode_s > 0 ? static_cast<double>(payload_bytes) * 8.0 / encode_s / 1e9
                     : 0.0,
        "Gbit/s");
  r.add("protocol.decode_ns",
        decoded ? decode_s * 1e9 / static_cast<double>(decoded) : 0.0, "ns");
  r.add("protocol.frame_overhead",
        payload_bytes ? static_cast<double>(wire_bytes) /
                            static_cast<double>(payload_bytes)
                      : 0.0,
        "ratio");
  r.add("stream.resumes", static_cast<double>(resumes), "count");
  r.notes.push_back("replay: " + std::to_string(serve_us.size()) +
                    " session serves, " + std::to_string(decoded) +
                    " frames decoded");
  return serve_p50;
}

void add_engine_agg_metrics(
    Result& r, const std::array<EngineAgg, kFamilies.size()>& agg,
    std::size_t workers) {
  const double w = static_cast<double>(workers);
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    const std::string fam(kFamilies[f]);
    const EngineAgg& a = agg[f];
    r.add("stream_engine.busy_share." + fam,
          a.wall_s > 0 ? a.busy_s / (w * a.wall_s) : 0.0, "share");
    r.add("stream_engine.balance." + fam,
          a.calls ? a.speedup_sum / static_cast<double>(a.calls) / w : 0.0,
          "share");
    r.add("stream_engine.tasks." + fam, static_cast<double>(a.tasks), "count");
  }
}

PoolCounters PoolCounters::read() {
  const auto snap = bsrng::telemetry::metrics().snapshot();
  const auto get = [&](const char* name) {
    const auto* m = snap.find(name);
    return m ? m->value : 0.0;
  };
  return {get("stream_engine.jobs"), get("thread_pool.claims"),
          get("thread_pool.claim_cas_retries"),
          get("thread_pool.stale_batch_backoffs")};
}

void add_pool_metrics(Result& r, const PoolCounters& before,
                      const PoolCounters& after) {
  const double jobs = after.jobs - before.jobs;
  const auto per_job = [&](double a, double b) {
    return jobs > 0 ? (a - b) / jobs : 0.0;
  };
  r.add("thread_pool.claims", per_job(after.claims, before.claims), "1/job");
  r.add("thread_pool.claim_cas_retries",
        per_job(after.cas_retries, before.cas_retries), "1/job");
  r.add("thread_pool.stale_batch_backoffs",
        per_job(after.stale_backoffs, before.stale_backoffs), "1/job");
}

}  // namespace perfbench
