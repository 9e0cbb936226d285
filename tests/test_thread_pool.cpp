#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace swve::parallel {
namespace {

TEST(BlockRange, CoversRangeExactlyOnce) {
  for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (unsigned workers : {1u, 2u, 3u, 8u, 13u}) {
      std::vector<int> seen(n, 0);
      size_t prev_end = 0;
      for (unsigned w = 0; w < workers; ++w) {
        auto [b, e] = block_range(n, w, workers);
        EXPECT_EQ(b, prev_end);
        prev_end = e;
        for (size_t i = b; i < e; ++i) ++seen[i];
      }
      EXPECT_EQ(prev_end, n);
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1);
    }
  }
}

TEST(BlockRange, BalancedWithinOne) {
  for (unsigned workers : {2u, 3u, 7u}) {
    size_t n = 100;
    size_t mn = n, mx = 0;
    for (unsigned w = 0; w < workers; ++w) {
      auto [b, e] = block_range(n, w, workers);
      mn = std::min(mn, e - b);
      mx = std::max(mx, e - b);
    }
    EXPECT_LE(mx - mn, 1u);
  }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](size_t b, size_t e, unsigned) {
    for (size_t i = b; i < e; ++i) counts[i].fetch_add(1);
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForWorkerIdsInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.parallel_for(100, [&](size_t, size_t, unsigned id) {
    if (id >= 3) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](size_t, size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelChunksRunsEveryChunkOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(57);
  pool.parallel_chunks(57, [&](size_t c, unsigned) { counts[c].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SequentialReuse) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(100, [&](size_t b, size_t e, unsigned) {
      for (size_t i = b; i < e; ++i) sum.fetch_add(i);
    });
  }
  EXPECT_EQ(sum.load(), 20ull * (99 * 100 / 2));
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(10, [&](size_t b, size_t e, unsigned) {
    for (size_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);  // one worker => strictly in order
}

TEST(ThreadPool, StressManySmallJobs) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round)
    pool.parallel_chunks(8, [&](size_t, unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 1600);
}

TEST(ThreadPool, FanOutRunsEverySlotOnce) {
  ThreadPool pool(5);
  std::vector<std::atomic<int>> slots(5);
  pool.fan_out([&](unsigned slot) { slots[slot].fetch_add(1); });
  for (auto& s : slots) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, FanOutAsyncFiresOnDoneAfterEverySlot) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  std::atomic<int> seen_at_done{-1};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  pool.fan_out_async([&](unsigned) { ran.fetch_add(1); },
                     [&] {
                       seen_at_done = ran.load();
                       std::lock_guard<std::mutex> lk(mu);
                       done = true;
                       cv.notify_all();
                     });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done; });
  EXPECT_EQ(seen_at_done.load(), 3);
}

TEST(WorkCursor, ClaimsEveryUnitOnceInOrder) {
  WorkCursor cursor(4);
  std::vector<size_t> got;
  for (size_t u; cursor.claim(u);) got.push_back(u);
  EXPECT_EQ(got, (std::vector<size_t>{0, 1, 2, 3}));
  size_t u = 0;
  EXPECT_FALSE(cursor.claim(u));  // stays exhausted
}

}  // namespace
}  // namespace swve::parallel
