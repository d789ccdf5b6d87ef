#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/generator.hpp"
#include "core/registry.hpp"
#include "core/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::size_t span_divisor(std::string_view family) {
  if (family == "mickey") return 16;
  if (family == "aes-ctr") return 8;
  if (family == "chacha20" || family == "a51") return 2;
  return 1;
}

bool is_counter_family(std::string_view family) {
  return family == "aes-ctr" || family == "chacha20";
}

std::uint64_t Rng::log_uniform(std::uint64_t lo, std::uint64_t hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  const double v = std::exp(std::log(static_cast<double>(lo)) +
                            u * (std::log(static_cast<double>(hi)) -
                                 std::log(static_cast<double>(lo))));
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(v), lo, hi);
}

std::vector<std::uint64_t> Rng::stratified(std::size_t n, std::uint64_t lo,
                                          std::uint64_t hi, bool log_scale) {
  const double a = log_scale ? std::log(static_cast<double>(lo)) : double(lo);
  const double b = log_scale ? std::log(static_cast<double>(hi)) : double(hi);
  std::vector<std::uint64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) +
                      static_cast<double>(next() >> 11) * 0x1.0p-53) /
                     static_cast<double>(n);
    const double v = a + u * (b - a);
    out[i] = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(log_scale ? std::exp(v) : v), lo, hi);
  }
  for (std::size_t i = n; i > 1; --i) std::swap(out[i - 1], out[below(i)]);
  return out;
}

std::vector<std::uint8_t> oracle_bytes(const std::string& algo,
                                       std::uint64_t derived_seed,
                                       std::uint64_t offset, std::size_t n) {
  auto gen = bsrng::core::make_generator(algo, derived_seed);
  bsrng::core::discard_bytes(*gen, offset);
  std::vector<std::uint8_t> out(n);
  gen->fill(out);
  return out;
}

void settle_allocator(std::size_t bytes) {
  auto* p = static_cast<volatile std::uint8_t*>(std::malloc(bytes));
  if (p == nullptr) throw std::bad_alloc();
  p[0] = 1;  // a volatile store keeps the pair from being elided
  std::free(const_cast<std::uint8_t*>(p));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

long Tracer::begin(const char* name, std::uint64_t id, long parent) {
  if (!on_) return -1;
  const auto now = Clock::now();
  spans_.push_back({name, id, parent, now, now});
  return static_cast<long>(spans_.size() - 1);
}

void Tracer::end(long span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].t1 = Clock::now();
}

long Tracer::record(const char* name, std::uint64_t id, Clock::time_point t0,
                    Clock::time_point t1, long parent) {
  if (!on_) return -1;
  spans_.push_back({name, id, parent, t0, t1});
  return static_cast<long>(spans_.size() - 1);
}

void Tracer::write(const std::string& path) const {
  if (!on_ || path.empty()) return;
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"start_ns\":" << ns(s.t0)
      << ",\"end_ns\":" << ns(s.t1) << "}\n";
  }
}

void add_end_to_end(Result& r, const WindowStats& w,
                    const std::vector<double>& setups) {
  r.attempted = w.attempted;
  r.failed = w.failed;
  r.add("setup_s", median(setups), "s");
  // Median over sub-windows of a per-sub-window ratio (skipping empty ones).
  const auto med = [&](auto&& num, auto&& den) {
    std::vector<double> v;
    for (const SubWindow& s : w.subs)
      if (den(s) > 0) v.push_back(num(s) / den(s));
    return median(v);
  };
  const auto gbit = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) * 8.0 / 1e9;
  };
  for (std::size_t f = 0; f < kFamilies.size(); ++f)
    r.add("gen_gbps." + std::string(kFamilies[f]),
          med([&](const SubWindow& s) { return gbit(s.family_bytes[f]); },
              [&](const SubWindow& s) { return s.family_seconds[f]; }),
          "Gbit/s");
  const auto secs = [](const SubWindow& s) { return s.seconds; };
  r.add("served_gbps", med([&](const SubWindow& s) { return gbit(s.bytes); }, secs),
        "Gbit/s");
  r.add("req_per_s",
        med([](const SubWindow& s) { return static_cast<double>(s.completed); },
            secs),
        "1/s");
  r.add("lat_p50_us", quantile(w.latency_us, 0.50), "us");
  r.add("lat_p99_us", quantile(w.latency_us, 0.99), "us");
  r.add("cpu_s_per_gb",
        med([](const SubWindow& s) { return s.cpu_s; },
            [](const SubWindow& s) { return static_cast<double>(s.bytes) / 1e9; }),
        "s/GB");
  r.add("mem_peak_mb", w.mem_peak_mib, "MiB");
  r.add("ok_ratio",
        w.attempted > 0 ? static_cast<double>(w.attempted - w.failed) /
                              static_cast<double>(w.attempted)
                        : 0.0,
        "ratio");
  const std::size_t n = w.latency_us.size();
  char line[256];
  std::snprintf(line, sizeof line,
                "latency samples: %zu (p99 has %zu samples beyond it); "
                "%zu sub-windows; error_ratio %.6g (%llu failed of %llu)",
                n, n / 100, w.subs.size(),
                w.attempted ? double(w.failed) / double(w.attempted) : 0.0,
                static_cast<unsigned long long>(w.failed),
                static_cast<unsigned long long>(w.attempted));
  r.notes.emplace_back(line);
  std::string subs = "sub-window served Gbit/s:";
  for (const SubWindow& s : w.subs) {
    std::snprintf(line, sizeof line, " %.3g",
                  s.seconds > 0 ? gbit(s.bytes) / s.seconds : 0.0);
    subs += line;
  }
  r.notes.push_back(subs);
  std::string set = "setup samples (s):";
  for (const double s : setups) {
    std::snprintf(line, sizeof line, " %.4g", s);
    set += line;
  }
  r.notes.push_back(set);
}

std::string fingerprint_json(std::size_t workers) {
  std::string model = "unknown";
  std::set<std::string> avx512;
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string val = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = val;
    if (key == "flags") {
      std::istringstream is(val);
      for (std::string flag; is >> flag;)
        if (flag.rfind("avx512", 0) == 0) avx512.insert(flag);
    }
  }
  std::string flags;
  for (const auto& fl : avx512) flags += (flags.empty() ? "" : " ") + fl;
  const auto esc = [](std::string s) {
    std::string o;
    for (char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += c;
    }
    return o;
  };
  std::ostringstream os;
  os << "{\"nproc\":" << bsrng::core::ThreadPool::default_workers() << ",\"cpu_model\":\"" << esc(model)
     << "\",\"avx512\":\"" << flags << "\",\"compiler\":\"" << esc(__VERSION__)
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"workers\":" << workers << "}";
  return os.str();
}

}  // namespace perfbench
