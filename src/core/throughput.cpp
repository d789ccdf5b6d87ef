#include "core/throughput.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

namespace bsrng::core {

ThroughputResult measure_throughput(Generator& gen, std::uint64_t total_bytes,
                                    std::size_t chunk_bytes) {
  std::vector<std::uint8_t> buf(chunk_bytes);
  ThroughputResult r;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t remaining = total_bytes;
  // Fold a checksum through so the optimizer cannot elide generation.
  volatile std::uint8_t sink = 0;
  std::uint8_t acc = 0;
  while (remaining > 0) {
    const std::size_t n =
        remaining < chunk_bytes ? static_cast<std::size_t>(remaining) : chunk_bytes;
    gen.fill(std::span(buf.data(), n));
    acc ^= buf[0] ^ buf[n - 1];
    remaining -= n;
  }
  sink = acc;
  (void)sink;
  r.bytes = total_bytes;
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

void finalize_report(ThroughputReport& rep) {
  rep.workers = rep.per_worker.size();
  rep.bytes = 0;
  rep.max_worker_seconds = 0.0;
  rep.sum_worker_seconds = 0.0;
  rep.executed_width = 0;
  for (const WorkerStat& w : rep.per_worker) {
    rep.bytes += w.bytes;
    rep.sum_worker_seconds += w.seconds;
    rep.max_worker_seconds = std::max(rep.max_worker_seconds, w.seconds);
    rep.executed_width = std::max(rep.executed_width, w.lanes);
  }
}

}  // namespace bsrng::core
