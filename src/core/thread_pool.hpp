// thread_pool.hpp — persistent NUMA-aware worker pool for sharded
// generation.
//
// One pool, many runs: StreamEngine submits a batch of independent partition
// tasks, workers claim indices from an atomic cursor (dynamic scheduling, so
// an unlucky slow shard does not stall the fast ones), and run_indexed
// blocks until the whole batch is drained.  The same pool backs the bench
// harness, replacing the per-benchmark ad-hoc std::thread spawning.
//
// NUMA placement: workers are assigned round-robin to the topology's nodes.
// On a real (sysfs-discovered) multi-node topology each worker pins itself
// to its node's CPU set; emulated topologies (BSRNG_NUMA_NODES) get node
// identities without pinning.  Each worker also owns a pair of persistent
// scratch buffers that are only ever resized/written from that worker's
// thread, so first-touch places their pages on the worker's node — the
// lane-slice scatter path reuses them across batches instead of
// re-allocating per task.  Placement is an optimization only: output bytes
// are identical for every node count (tests pin this).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/numa.hpp"

namespace bsrng::core {

class ThreadPool {
 public:
  // Spawns `workers` threads (at least one), placed on `topo`.  Threads
  // persist until destruction; an idle pool consumes no CPU.
  explicit ThreadPool(std::size_t workers,
                      NumaTopology topo = NumaTopology::detect());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }

  const NumaTopology& topology() const noexcept { return topo_; }
  std::size_t node_of(std::size_t worker) const noexcept {
    return topo_.node_of_worker(worker);
  }

  // Worker-local scratch (which in {0, 1}: the lane-slice double buffers).
  // Must only be touched from worker `worker`'s thread while it runs a task
  // — that is what keeps the pages node-local via first touch.
  std::vector<std::uint8_t>& scratch(std::size_t worker,
                                     std::size_t which) noexcept {
    return scratch_[worker][which & 1];
  }

  // Execute fn(worker, task) for every task index in [0, ntasks), spread
  // dynamically over the pool; blocks until all tasks finished.  The first
  // exception thrown by any task is rethrown here (remaining tasks of the
  // batch are still drained so the pool stays consistent).
  void run_indexed(std::size_t ntasks,
                   const std::function<void(std::size_t worker,
                                            std::size_t task)>& fn);

  // Default worker count: the hardware concurrency, at least one (resolved
  // once per process).
  static std::size_t default_workers();

 private:
  void worker_loop(std::size_t worker);
  void pin_to_node(std::size_t worker);

  NumaTopology topo_;
  std::vector<std::array<std::vector<std::uint8_t>, 2>> scratch_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a new batch
  std::condition_variable done_cv_;  // run_indexed waits for completion
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_tasks_ = 0;
  std::uint64_t generation_ = 0;  // bumped per batch
  // Claim cursor: batch tag (generation mod 2^32) in the high half, next
  // unclaimed task index in the low half.  Claims go through CAS on the
  // whole word, so a worker that overslept a batch can observe the tag
  // mismatch and back off without ever consuming an index of — or invoking
  // the (dead) job of — a batch it did not sign up for.
  std::atomic<std::uint64_t> cursor_{0};
  std::size_t pending_ = 0;       // tasks not yet finished
  std::exception_ptr first_error_;
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace bsrng::core
