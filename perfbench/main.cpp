// perfbench — the repository benchmark.
//
//   perfbench --workload engine_bulk|serve_stream|serve_small --seed N
//             --seconds S --trace 0|1 [--tiny] [--corrupt-one]
//             [--trace-out PATH]
//
// Prints human-readable lines, a "fingerprint" line, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any operation failed or any byte mismatched the oracle.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "core/thread_pool.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload engine_bulk|serve_stream|"
               "serve_small --seed N --seconds S --trace 0|1 [--tiny] "
               "[--corrupt-one] [--trace-out PATH]\n");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() != "0";
    else if (a == "--tiny") opt.tiny = true;
    else if (a == "--corrupt-one") opt.corrupt_one = true;
    else if (a == "--trace-out") opt.trace_out = value();
    else {
      usage();
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    usage();
    return 2;
  }

  perfbench::Result r;
  std::size_t workers = 0;
  try {
    if (opt.workload == "engine_bulk") {
      workers = bsrng::core::ThreadPool::default_workers();
      r = perfbench::run_engine_bulk(opt);
    } else if (opt.workload == "serve_stream" || opt.workload == "serve_small") {
      workers = bsrng::core::ThreadPool::default_workers() >= 4 ? 2 : 1;
      r = perfbench::run_serve(opt, opt.workload == "serve_small");
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& note : r.notes) std::printf("%s\n", note.c_str());
  for (const auto& m : r.metrics)
    std::printf("%-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("fingerprint %s\n", perfbench::fingerprint_json(workers).c_str());
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
