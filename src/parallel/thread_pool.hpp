// Fixed-size thread pool with static and work-claiming fan-outs.
//
// Results never depend on which worker ran which piece: engines write each
// result to a slot keyed by its input index (a sequence, a query) or fold
// it under a strict total order (top-k over align::Hit), so the same call
// returns bit-identical results for any thread count and any schedule —
// part of the library's determinism guarantee. That frees the batch
// engines to hand work out dynamically, costliest first (WorkCursor), so
// every worker finishes together.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace swve::parallel {

/// Worker-utilization accounting for a ThreadPool (see ThreadPool::stats).
struct PoolStats {
  unsigned threads = 0;
  uint64_t jobs = 0;         ///< jobs executed (one per worker per fan-out)
  double busy_seconds = 0;   ///< summed wall time workers spent in jobs
};

class ThreadPool {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  /// Pinned pool: every worker is bound to `affinity_cpus` (a NUMA node or
  /// CCX slice, see parallel/topology.hpp). Pinning is best-effort — an
  /// empty set or a failed sched_setaffinity leaves workers unpinned.
  ThreadPool(unsigned threads, std::vector<int> affinity_cpus);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Lifetime utilization counters (lock-free reads; updated by workers
  /// after each job). Busy fraction over a span T is
  /// busy_seconds / (threads * T).
  PoolStats stats() const noexcept {
    return PoolStats{size(), jobs_run_.load(std::memory_order_relaxed),
                     static_cast<double>(
                         busy_ns_.load(std::memory_order_relaxed)) *
                         1e-9};
  }

  /// Run fn(slot) once for every worker slot in [0, size()), one job each;
  /// blocks until all have returned. A slot is a job, not a thread: under
  /// concurrent fan-outs one thread may run several slots in turn, so
  /// per-slot scratch indexed by `slot` is never shared. The calling thread
  /// does not execute work (workers own their scratch).
  void fan_out(const std::function<void(unsigned)>& fn);

  /// Non-blocking fan_out: enqueues the slots and returns immediately;
  /// `on_done` runs exactly once, on the worker that finishes the last
  /// slot, after every slot's fn has returned. Lets one caller fan out over
  /// several pools at once (per-shard pools in align::ShardedSearch) and
  /// wait on its own latch.
  void fan_out_async(std::function<void(unsigned)> fn,
                     std::function<void()> on_done);

  /// Run fn(begin, end, slot) over [0, n) split into size() contiguous
  /// blocks (block_range); blocks before returning.
  void parallel_for(size_t n,
                    const std::function<void(size_t, size_t, unsigned)>& fn);

  /// Run fn(chunk_index, slot) for every chunk in [0, chunks); chunks are
  /// claimed dynamically in index order (WorkCursor), so results should be
  /// written by chunk_index to keep output deterministic.
  void parallel_chunks(size_t chunks,
                       const std::function<void(size_t, unsigned)>& fn);

  /// Jobs enqueued or running right now (queue-depth gauge; approximate).
  size_t pending() const noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    return outstanding_;
  }

 private:
  struct Job {
    std::function<void(unsigned)> fn;  // receives worker id
  };
  void worker_loop(unsigned id);

  std::vector<std::thread> workers_;
  std::vector<int> affinity_cpus_;  // empty: unpinned
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<Job> jobs_;
  size_t outstanding_ = 0;
  bool stop_ = false;
  std::atomic<uint64_t> jobs_run_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

/// Shared claim counter of one work-claiming fan-out: units come out in
/// index order, each exactly once. With units sorted costliest first this
/// is longest-processing-time list scheduling: a worker that finishes
/// early takes the next unit, so workers finish within one unit of each
/// other instead of waiting on whoever drew the long tail.
class WorkCursor {
 public:
  explicit WorkCursor(size_t units) noexcept : units_(units) {}
  /// Claims the next unit into `unit`; false once every unit is taken.
  bool claim(size_t& unit) noexcept {
    unit = next_.fetch_add(1, std::memory_order_relaxed);
    return unit < units_;
  }

 private:
  std::atomic<size_t> next_{0};
  size_t units_;
};

/// Contiguous block [begin, end) of [0, n) for worker `w` of `workers`.
inline std::pair<size_t, size_t> block_range(size_t n, unsigned w, unsigned workers) {
  const size_t base = n / workers, rem = n % workers;
  const size_t begin = static_cast<size_t>(w) * base + std::min<size_t>(w, rem);
  return {begin, begin + base + (w < rem ? 1 : 0)};
}

}  // namespace swve::parallel
