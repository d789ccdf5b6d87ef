#include "core/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "fault/fault.hpp"
#include "telemetry/metrics.hpp"

namespace bsrng::core {

namespace {

// Injection points resolved once, telemetry-style; disarmed cost per task is
// two relaxed loads + branches.
struct PoolFaults {
  fault::FaultPoint& task_throw;
  fault::FaultPoint& task_stall;

  static PoolFaults& get() {
    static PoolFaults f{
        fault::faults().point("pool.task_throw"),
        fault::faults().point("pool.task_stall"),
    };
    return f;
  }
};

// Metric handles resolved once (name lookup takes the registry mutex); the
// hot claim loop then costs one relaxed load + branch per touch when
// telemetry is disabled.
struct PoolMetrics {
  telemetry::Counter& batches;
  telemetry::Counter& claims;
  telemetry::Counter& cas_retries;
  telemetry::Counter& stale_batch_backoffs;
  telemetry::Gauge& queue_depth;
  telemetry::Gauge& numa_nodes;
  telemetry::Counter& affinity_pins;

  static PoolMetrics& get() {
    static PoolMetrics m{
        telemetry::metrics().counter("thread_pool.batches"),
        telemetry::metrics().counter("thread_pool.claims"),
        telemetry::metrics().counter("thread_pool.claim_cas_retries"),
        telemetry::metrics().counter("thread_pool.stale_batch_backoffs"),
        telemetry::metrics().gauge("thread_pool.queue_depth"),
        telemetry::metrics().gauge("thread_pool.numa_nodes"),
        telemetry::metrics().counter("thread_pool.affinity_pins"),
    };
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers, NumaTopology topo)
    : topo_(std::move(topo)) {
  workers = std::max<std::size_t>(1, workers);
  PoolMetrics::get().numa_nodes.set(static_cast<double>(topo_.node_count()));
  scratch_.resize(workers);  // storage only; pages are worker-first-touched
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

void ThreadPool::pin_to_node(std::size_t worker) {
  // Only a real (sysfs) multi-node topology pins: emulated nodes are
  // logical, and on one node the scheduler already does the right thing.
  // A failed pin is ignored — placement is never a correctness contract.
  if (topo_.emulated_only() || topo_.node_count() < 2) return;
  const NumaNode& node = topo_.nodes()[node_of(worker)];
  if (node.cpus.empty()) return;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : node.cpus)
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  if (CPU_COUNT(&set) > 0 &&
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0)
    PoolMetrics::get().affinity_pins.add();
#endif
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t ThreadPool::default_workers() {
  // hardware_concurrency() queries the OS on every call; the answer is fixed
  // for the process, and partition_spec asks for it on every default grid.
  static const std::size_t n =
      std::max(1u, std::thread::hardware_concurrency());
  return n;
}

void ThreadPool::run_indexed(
    std::size_t ntasks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (ntasks == 0) return;
  PoolMetrics& pm = PoolMetrics::get();
  pm.batches.add();
  pm.queue_depth.set(static_cast<double>(ntasks));
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  job_tasks_ = ntasks;
  pending_ = ntasks;
  first_error_ = nullptr;
  ++generation_;
  cursor_.store(static_cast<std::uint64_t>(generation_ & 0xFFFFFFFFu) << 32,
                std::memory_order_release);
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  pm.queue_depth.set(0.0);
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void ThreadPool::worker_loop(std::size_t worker) {
  pin_to_node(worker);
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t, std::size_t)>* fn;
    std::size_t ntasks;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = job_;
      ntasks = job_tasks_;
    }
    PoolMetrics& pm = PoolMetrics::get();
    const std::uint64_t tag = static_cast<std::uint64_t>(seen & 0xFFFFFFFFu)
                              << 32;
    std::size_t done_here = 0;
    std::exception_ptr err;
    std::uint64_t cur = cursor_.load(std::memory_order_acquire);
    for (;;) {
      // Claim only while the cursor still carries this batch's tag; the CAS
      // makes tag check and index claim one atomic step.
      if ((cur & ~std::uint64_t{0xFFFFFFFFu}) != tag) {
        pm.stale_batch_backoffs.add();
        break;
      }
      const std::size_t t = static_cast<std::size_t>(cur & 0xFFFFFFFFu);
      if (t >= ntasks) break;
      if (!cursor_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        pm.cas_retries.add();
        continue;
      }
      pm.claims.add();
      try {
        PoolFaults& pf = PoolFaults::get();
        // A stalled worker delays its claimed task (shaking out ordering
        // assumptions); a thrown one exercises run_indexed's first-error
        // rethrow.  Output bytes are unaffected either way: the batch still
        // completes or the caller sees the failure and retries whole spans.
        if (pf.task_stall.fire())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        pf.task_throw.maybe_throw();
        (*fn)(worker, t);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
      ++done_here;
      cur = cursor_.load(std::memory_order_acquire);
    }
    if (done_here > 0 || err) {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !first_error_) first_error_ = err;
      pending_ -= done_here;
      if (pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace bsrng::core
