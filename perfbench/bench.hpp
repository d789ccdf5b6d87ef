// bench.hpp — shared pieces of the perfbench harness: workload options, the
// seeded input generator, the direct-fill oracle, timing/statistics helpers,
// the in-memory span recorder, and the result record every workload fills.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         // self-test scale: small spans, short window
  bool corrupt_one = false;  // self-test: flip one received byte
  std::string trace_out;     // where the traced run writes its spans
};

// The six bitsliced families, all run at their bs512 registry width.
inline constexpr std::array<std::string_view, 6> kFamilies = {
    "mickey", "grain", "trivium", "aes-ctr", "a51", "chacha20"};
inline constexpr std::size_t kNominalWidth = 512;

inline std::string algo_name(std::string_view family) {
  return std::string(family) + "-bs512";
}

// Fixed per-family span divisor: the slow families get proportionally
// smaller spans so that no single family dominates a workload's clock.
// Part of the workload definition, not tuned at run time.
std::size_t span_divisor(std::string_view family);

bool is_counter_family(std::string_view family);

// splitmix64: every root seed, StreamRef, offset and span derives from it.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  // Log-uniform integer in [lo, hi].
  std::uint64_t log_uniform(std::uint64_t lo, std::uint64_t hi);
  // n sizes in [lo, hi], one drawn inside each of n equal-probability strata
  // of the (log-)uniform distribution, in shuffled order: the seed moves
  // every size, but their sum and spread barely move from seed to seed.
  std::vector<std::uint64_t> stratified(std::size_t n, std::uint64_t lo,
                                        std::uint64_t hi, bool log_scale);
};

// The oracle: bytes [offset, offset + n) of
// make_generator(algo, derived_seed)->fill, produced by one direct generator.
std::vector<std::uint8_t> oracle_bytes(const std::string& algo,
                                       std::uint64_t derived_seed,
                                       std::uint64_t offset, std::size_t n);

// glibc serves a block above its mmap threshold with mmap and raises the
// threshold to the size of the first such block freed.  Allocating and
// freeing one block of `bytes`, larger than any the window allocates, puts
// the allocator in the state a long-running process reaches, before set-up;
// otherwise peak RSS depends on the order in which the seed's spans arrive.
inline constexpr std::size_t kSettleBytes = 8u << 20;
void settle_allocator(std::size_t bytes);

// q in [0, 1]; linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// Process CPU seconds (user + sys) so far.
double process_cpu_seconds();
// Reset the peak-RSS watermark (/proc/self/clear_refs <- 5).  A window
// reports VmHWM minus the oracle and output buffers the harness holds, so
// that the figure is the memory of the code under test.
void reset_peak_rss();
// Peak RSS since the last reset, in MiB (VmHWM).
double peak_rss_mib();

// In-memory span recorder: spans of one request share its id; `parent` is
// the index of the enclosing span (-1 for a root).  Written out as JSON
// lines when the run ends.  When disabled every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  // Returns the span index (or -1 when disabled).
  long begin(const char* name, std::uint64_t id, long parent = -1);
  void end(long span);
  // Record a span whose start/end were measured by the caller.
  long record(const char* name, std::uint64_t id, Clock::time_point t0,
              Clock::time_point t1, long parent = -1);
  std::size_t size() const noexcept { return spans_.size(); }
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    long parent;
    Clock::time_point t0, t1;
  };
  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one run reports.  `metrics` is the end-to-end set (untraced run) or
// the per-layer set (traced run); `notes` are human-readable lines printed
// before the final JSON line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// One slice of the timed window.  Rates are reported as the median over
// slices, so a short burst of interference from outside the process moves
// a few slices, not the result.
struct SubWindow {
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::uint64_t bytes = 0;      // verified payload bytes
  std::uint64_t completed = 0;  // requests answered and verified
  std::array<std::uint64_t, kFamilies.size()> family_bytes{};
  std::array<double, kFamilies.size()> family_seconds{};  // family's own clock
};

// Latency samples plus per-window totals common to every workload.
struct WindowStats {
  double window_s = 0.0;
  std::uint64_t bytes = 0;            // verified payload bytes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;     // one per answered request
  std::vector<SubWindow> subs;
  double mem_peak_mib = 0.0;          // peak RSS less the harness buffers
  double wait_s = 0.0;                // client thread blocked in poll
};

// Set-up is repeated this many times per run and its median reported.
inline int setup_repeats(bool tiny) { return tiny ? 2 : 101; }

// Fill the end-to-end metric set from a window and the setup samples.
void add_end_to_end(Result& r, const WindowStats& w,
                    const std::vector<double>& setups);

// Entry points of the three workloads (engine_bulk.cpp, serve.cpp).
Result run_engine_bulk(const Options& opt);
Result run_serve(const Options& opt, bool small);

// Per-layer probes shared by every traced run (layers.cpp).
struct ProbeConfig {
  std::uint64_t seed = 1;
  std::size_t workers = 1;  // the workload's engine worker count
  bool tiny = false;
};
// ciphers/bitslice and the workload-independent stream_engine probes
// (fill/step/serialize/gates/w1/executed width/fixed call cost).
void add_kernel_layer_metrics(Result& r, const ProbeConfig& cfg,
                              Tracer& tracer);
// stream: StreamRef derivation and checkpoint round trips.
void add_stream_layer_metrics(Result& r, const ProbeConfig& cfg,
                              Tracer& tracer);

// One request of a workload's sequence, as the session/protocol replay sees
// it.  `expect` points at the oracle bytes of a stream request (nullptr for
// a kCheckpoint, whose expected answer is `blob`).
struct ReplayItem {
  std::uint8_t type = 0;  // net::kGenerate / kGenerate2 / kCheckpoint / kResume
  std::size_t family = 0;
  std::uint64_t root_seed = 0;
  std::uint64_t tenant = 0, stream = 0, shard = 0;
  std::uint64_t offset = 0;
  std::uint32_t nbytes = 0;
  const std::uint8_t* expect = nullptr;
  std::vector<std::uint8_t> blob;  // checkpoint blob (sent by kResume)
};

// Per-family StreamEngine accounting (sums over generate() calls).
struct EngineAgg {
  double wall_s = 0.0;
  double busy_s = 0.0;           // sum of worker busy seconds
  double speedup_sum = 0.0;      // sum of modeled_speedup()
  std::uint64_t calls = 0;
  std::uint64_t tasks = 0;       // one pass over the workload's requests
};

// session/protocol (and, for counter families, stream_engine) per-layer
// metrics from one replay pass over `items`; verifies every replayed byte
// (mismatches go to r.failed).  Returns the replayed session serve p50 (us).
double add_replay_layer_metrics(Result& r, const std::vector<ReplayItem>& items,
                                std::size_t workers, Tracer& tracer,
                                std::array<EngineAgg, kFamilies.size()>* agg);

// stream_engine.{busy_share,balance,tasks}.<f> from per-family aggregates.
void add_engine_agg_metrics(Result& r, const std::array<EngineAgg,
                                                        kFamilies.size()>& agg,
                            std::size_t workers);

// thread_pool.* per-job deltas between two telemetry snapshots.
struct PoolCounters {
  double jobs = 0, claims = 0, cas_retries = 0, stale_backoffs = 0;
  static PoolCounters read();
};
void add_pool_metrics(Result& r, const PoolCounters& before,
                      const PoolCounters& after);

// Host fingerprint: nproc, CPU model, AVX-512 flags, compiler, build type,
// and the workload's worker count, as a JSON object.
std::string fingerprint_json(std::size_t workers);

}  // namespace perfbench
