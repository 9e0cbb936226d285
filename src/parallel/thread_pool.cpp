#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "parallel/topology.hpp"

namespace swve::parallel {

ThreadPool::ThreadPool(unsigned threads) : ThreadPool(threads, {}) {}

ThreadPool::ThreadPool(unsigned threads, std::vector<int> affinity_cpus)
    : affinity_cpus_(std::move(affinity_cpus)) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w)
    workers_.emplace_back([this, w] {
      if (!affinity_cpus_.empty()) pin_current_thread(affinity_cpus_);
      worker_loop(w);
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(unsigned id) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    const auto t0 = std::chrono::steady_clock::now();
    job.fn(id);
    const auto dur = std::chrono::steady_clock::now() - t0;
    busy_ns_.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dur).count()),
        std::memory_order_relaxed);
    jobs_run_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --outstanding_;
    }
  }
}

void ThreadPool::fan_out_async(std::function<void(unsigned)> fn,
                               std::function<void()> on_done) {
  const unsigned slots = size();
  // Shared completion state: the slot that retires last fires on_done
  // (after its own fn), so the callback never overlaps any slot.
  struct Shared {
    std::function<void(unsigned)> fn;
    std::function<void()> on_done;
    std::atomic<unsigned> remaining;
  };
  auto shared = std::make_shared<Shared>();
  shared->fn = std::move(fn);
  shared->on_done = std::move(on_done);
  shared->remaining.store(slots, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (unsigned slot = 0; slot < slots; ++slot) {
      jobs_.push(Job{[slot, shared](unsigned) {
        shared->fn(slot);
        if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            shared->on_done)
          shared->on_done();
      }});
    }
    outstanding_ += slots;
  }
  cv_.notify_all();
}

void ThreadPool::fan_out(const std::function<void(unsigned)>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  fan_out_async(fn, [&] {
    // Notify under the lock: the waiter cannot return (and destroy mu/cv)
    // before this callback releases it.
    std::lock_guard<std::mutex> lk(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&done] { return done; });
}

void ThreadPool::parallel_for(size_t n,
                              const std::function<void(size_t, size_t, unsigned)>& fn) {
  if (n == 0) return;
  const unsigned workers = size();
  fan_out([n, workers, &fn](unsigned slot) {
    auto [b, e] = block_range(n, slot, workers);
    if (b < e) fn(b, e, slot);
  });
}

void ThreadPool::parallel_chunks(size_t chunks,
                                 const std::function<void(size_t, unsigned)>& fn) {
  if (chunks == 0) return;
  WorkCursor cursor(chunks);
  fan_out([&cursor, &fn](unsigned slot) {
    for (size_t c; cursor.claim(c);) fn(c, slot);
  });
}

}  // namespace swve::parallel
