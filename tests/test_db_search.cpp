#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "align/db_search.hpp"
#include "align/sharded_search.hpp"
#include "core/scalar_ref.hpp"
#include "seq/synthetic.hpp"

namespace swve::align {
namespace {

seq::SequenceDatabase make_db(uint64_t residues, uint64_t seed = 15) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = 20;
  cfg.max_length = 400;
  return seq::SequenceDatabase::synthetic(cfg);
}

TEST(DatabaseSearch, TopKMatchesBruteForce) {
  auto db = make_db(60'000);
  AlignConfig cfg;
  DatabaseSearch search(db, cfg);
  auto q = seq::generate_sequence(90, 120);
  SearchResult res = search.search(q, 10);
  ASSERT_LE(res.hits.size(), 10u);

  // Brute force with the golden model.
  std::vector<Hit> all;
  for (size_t s = 0; s < db.size(); ++s) {
    core::Alignment a = core::ref_align(q, db[s], cfg);
    if (a.score > 0)
      all.push_back(Hit{static_cast<uint32_t>(s), a.score, a.end_query, a.end_ref});
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min<size_t>(all.size(), 10));
  ASSERT_EQ(res.hits.size(), all.size());
  for (size_t k = 0; k < all.size(); ++k) {
    EXPECT_EQ(res.hits[k].seq_index, all[k].seq_index) << k;
    EXPECT_EQ(res.hits[k].score, all[k].score) << k;
    EXPECT_EQ(res.hits[k].end_query, all[k].end_query) << k;
    EXPECT_EQ(res.hits[k].end_ref, all[k].end_ref) << k;
  }
}

TEST(DatabaseSearch, HitsAreSortedBestFirst) {
  auto db = make_db(40'000);
  DatabaseSearch search(db, AlignConfig{});
  auto q = seq::generate_sequence(91, 100);
  SearchResult res = search.search(q, 20);
  for (size_t k = 1; k < res.hits.size(); ++k) {
    EXPECT_GE(res.hits[k - 1].score, res.hits[k].score);
    if (res.hits[k - 1].score == res.hits[k].score)
      EXPECT_LT(res.hits[k - 1].seq_index, res.hits[k].seq_index);
  }
}

TEST(DatabaseSearch, IdenticalResultsForAnyThreadCount) {
  auto db = make_db(80'000);
  DatabaseSearch search(db, AlignConfig{});
  auto q = seq::generate_sequence(92, 150);
  SearchResult serial = search.search(q, 15);
  for (unsigned threads : {1u, 2u, 3u, 5u}) {
    parallel::ThreadPool pool(threads);
    SearchResult par = search.search(q, 15, &pool);
    ASSERT_EQ(par.hits.size(), serial.hits.size()) << threads << " threads";
    for (size_t k = 0; k < serial.hits.size(); ++k) {
      EXPECT_EQ(par.hits[k].seq_index, serial.hits[k].seq_index);
      EXPECT_EQ(par.hits[k].score, serial.hits[k].score);
    }
    EXPECT_EQ(par.stats.cells, serial.stats.cells);
  }
}

TEST(DatabaseSearch, StatsCountEveryCell) {
  auto db = make_db(30'000);
  DatabaseSearch search(db, AlignConfig{});
  auto q = seq::generate_sequence(93, 64);
  SearchResult res = search.search(q, 5);
  // Adaptive width may re-run saturated pairs, so cells >= m * residues.
  EXPECT_GE(res.stats.cells, 64u * db.total_residues());
  EXPECT_EQ(res.db_residues, db.total_residues());
  EXPECT_EQ(res.query_length, 64u);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.gcups(), 0.0);
}

TEST(DatabaseSearch, PlantedHomologIsTopHit) {
  auto q = seq::generate_sequence(94, 300);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 60; ++i)
    seqs.push_back(seq::generate_sequence(95 + static_cast<uint64_t>(i), 250));
  seqs.push_back(seq::mutate(q, 96, 0.2));  // index 60
  seq::SequenceDatabase db(std::move(seqs));
  DatabaseSearch search(db, AlignConfig{});
  SearchResult res = search.search(q, 3);
  ASSERT_FALSE(res.hits.empty());
  EXPECT_EQ(res.hits[0].seq_index, 60u);
}

TEST(DatabaseSearch, EmptyQueryAndEmptyDb) {
  auto db = make_db(10'000);
  DatabaseSearch search(db, AlignConfig{});
  seq::Sequence e("e", "", seq::Alphabet::protein());
  EXPECT_TRUE(search.search(e, 10).hits.empty());
  seq::SequenceDatabase empty;
  DatabaseSearch s2(empty, AlignConfig{});
  auto q = seq::generate_sequence(97, 50);
  EXPECT_TRUE(s2.search(q, 10).hits.empty());
}

TEST(DatabaseSearch, BatchModeMatchesDiagonalMode) {
  auto db = make_db(50'000);
  AlignConfig cfg;
  DatabaseSearch diag(db, cfg, SearchMode::Diagonal);
  DatabaseSearch batch(db, cfg, SearchMode::Batch);
  EXPECT_EQ(batch.mode(), SearchMode::Batch);
  for (uint64_t seed : {400u, 401u, 402u}) {
    auto q = seq::generate_sequence(seed, 80 + seed % 200);
    SearchResult a = diag.search(q, 12);
    SearchResult b = batch.search(q, 12);
    ASSERT_EQ(a.hits.size(), b.hits.size()) << "seed " << seed;
    for (size_t k = 0; k < a.hits.size(); ++k) {
      EXPECT_EQ(a.hits[k].seq_index, b.hits[k].seq_index) << k;
      EXPECT_EQ(a.hits[k].score, b.hits[k].score) << k;
      EXPECT_EQ(a.hits[k].end_query, b.hits[k].end_query) << k;
      EXPECT_EQ(a.hits[k].end_ref, b.hits[k].end_ref) << k;
    }
  }
}

TEST(DatabaseSearch, BatchModeDeterministicAcrossThreads) {
  auto db = make_db(40'000);
  DatabaseSearch batch(db, AlignConfig{}, SearchMode::Batch);
  auto q = seq::generate_sequence(410, 150);
  SearchResult serial = batch.search(q, 10);
  for (unsigned threads : {2u, 4u}) {
    parallel::ThreadPool pool(threads);
    SearchResult par = batch.search(q, 10, &pool);
    ASSERT_EQ(par.hits.size(), serial.hits.size());
    for (size_t k = 0; k < serial.hits.size(); ++k) {
      EXPECT_EQ(par.hits[k].seq_index, serial.hits[k].seq_index);
      EXPECT_EQ(par.hits[k].score, serial.hits[k].score);
    }
  }
}

TEST(DatabaseSearch, BatchModeHandlesSaturatingHomolog) {
  auto q = seq::generate_sequence(420, 500);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 50; ++i)
    seqs.push_back(seq::generate_sequence(421 + static_cast<uint64_t>(i), 150));
  seqs.push_back(seq::mutate(q, 422, 0.05));  // saturates the 8-bit kernel
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  DatabaseSearch batch(db, cfg, SearchMode::Batch);
  SearchResult res = batch.search(q, 3);
  ASSERT_FALSE(res.hits.empty());
  EXPECT_EQ(res.hits[0].seq_index, 50u);
  EXPECT_EQ(res.hits[0].score, core::ref_align(q, db[50], cfg).score);
}

TEST(DatabaseSearch, PackedTopKIdenticalOnAdversarialLengthMix) {
  // Worst case for batch packing: one 10k-residue sequence buried among
  // hundreds of short ones. Every packing policy must return the same top-k
  // (indices, scores, end positions) as the unpacked diagonal path.
  std::mt19937_64 rng(500);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 300; ++i)
    seqs.push_back(seq::generate_sequence(rng(), 25 + static_cast<uint32_t>(rng() % 80)));
  auto mid = seqs.begin() + static_cast<std::ptrdiff_t>(seqs.size() / 2);
  seqs.insert(mid, seq::generate_sequence(rng(), 10'000));
  seq::SequenceDatabase db(std::move(seqs));

  AlignConfig cfg;
  DatabaseSearch diag(db, cfg, SearchMode::Diagonal);
  auto q = seq::generate_sequence(501, 180);
  SearchResult ref = diag.search(q, 15);
  ASSERT_FALSE(ref.hits.empty());

  for (core::PackingPolicy policy :
       {core::PackingPolicy::DbOrder, core::PackingPolicy::LengthSorted,
        core::PackingPolicy::LengthBinned}) {
    DatabaseSearch batch(db, cfg, SearchMode::Batch, policy);
    ASSERT_NE(batch.packed_db(), nullptr);
    EXPECT_EQ(batch.packed_db()->policy(), policy);
    SearchResult res = batch.search(q, 15);
    ASSERT_EQ(res.hits.size(), ref.hits.size())
        << core::packing_policy_name(policy);
    for (size_t k = 0; k < ref.hits.size(); ++k) {
      EXPECT_EQ(res.hits[k].seq_index, ref.hits[k].seq_index) << k;
      EXPECT_EQ(res.hits[k].score, ref.hits[k].score) << k;
      EXPECT_EQ(res.hits[k].end_query, ref.hits[k].end_query) << k;
      EXPECT_EQ(res.hits[k].end_ref, ref.hits[k].end_ref) << k;
    }
    // The batch accounting must agree with the packed database layout.
    EXPECT_EQ(res.batch_stats.useful_cells8, db.total_residues() * q.length());
    EXPECT_GT(res.batch_stats.cells8, 0u);
  }

  // And the length-aware layouts must waste strictly fewer 8-bit cells.
  DatabaseSearch naive(db, cfg, SearchMode::Batch, core::PackingPolicy::DbOrder);
  DatabaseSearch sorted(db, cfg, SearchMode::Batch,
                        core::PackingPolicy::LengthSorted);
  EXPECT_GT(sorted.packed_db()->packing_efficiency(),
            naive.packed_db()->packing_efficiency());
}

TEST(DatabaseSearch, BatchModeSaturationLadderReachesWide32) {
  // Fixed match=30 against a planted identical 1200-mer scores 36000 —
  // past int16 — so the batch path's rescore ladder must climb u8 -> W16
  // -> W32 and still agree with the diagonal path bit for bit.
  auto q = seq::generate_sequence(510, 1200);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 70; ++i)
    seqs.push_back(seq::generate_sequence(511 + static_cast<uint64_t>(i), 90));
  seqs.push_back(seq::mutate(q, 512, 0.0));  // index 70
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  cfg.scheme = core::ScoreScheme::Fixed;
  cfg.match = 30;
  cfg.mismatch = -3;
  DatabaseSearch diag(db, cfg, SearchMode::Diagonal);
  DatabaseSearch batch(db, cfg, SearchMode::Batch);
  SearchResult a = diag.search(q, 5);
  SearchResult b = batch.search(q, 5);
  ASSERT_FALSE(b.hits.empty());
  EXPECT_EQ(b.hits[0].seq_index, 70u);
  EXPECT_EQ(b.hits[0].score, 30 * 1200);
  EXPECT_GE(b.batch_stats.rescored, 1u);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].seq_index, b.hits[k].seq_index) << k;
    EXPECT_EQ(a.hits[k].score, b.hits[k].score) << k;
  }
}

TEST(DatabaseSearch, BatchModeRejectsBand) {
  auto db = make_db(5'000);
  AlignConfig cfg;
  cfg.band = 8;
  EXPECT_THROW(DatabaseSearch(db, cfg, SearchMode::Batch), std::invalid_argument);
}

TEST(DatabaseSearch, TopKZero) {
  auto db = make_db(10'000);
  DatabaseSearch search(db, AlignConfig{});
  auto q = seq::generate_sequence(98, 50);
  EXPECT_TRUE(search.search(q, 0).hits.empty());
}

void expect_same_stats(const core::BatchSearchStats& got,
                       const core::BatchSearchStats& want, const std::string& label) {
  EXPECT_EQ(got.cells8, want.cells8) << label;
  EXPECT_EQ(got.useful_cells8, want.useful_cells8) << label;
  EXPECT_EQ(got.rescored, want.rescored) << label;
  EXPECT_EQ(got.rescored_cells, want.rescored_cells) << label;
}

TEST(DatabaseSearch, BatchEngineMatchesSerialScanForEverySchedule) {
  // The schedule (pool size, packing) decides which
  // worker scans which batch and when; it must never show in the answer:
  // hits equal the scalar reference, exact work counts equal one serial
  // batch_scores pass.
  auto db = make_db(40'000, 41);
  auto q = seq::generate_sequence(430, 140);
  AlignConfig cfg;
  std::vector<int> ref(db.size());
  std::vector<Hit> want;
  for (size_t s = 0; s < db.size(); ++s) {
    const core::Alignment a = core::ref_align(q, db[s], cfg);
    ref[s] = a.score;
    if (a.score > 0)
      want.push_back(Hit{static_cast<uint32_t>(s), a.score, a.end_query, a.end_ref});
  }
  std::sort(want.begin(), want.end());
  want.resize(std::min<size_t>(want.size(), 12));

  std::vector<std::unique_ptr<parallel::ThreadPool>> pools;
  for (unsigned threads : {1u, 2u, 3u, 4u, 7u})
    pools.push_back(std::make_unique<parallel::ThreadPool>(threads));
  for (core::PackingPolicy policy :
       {core::PackingPolicy::DbOrder, core::PackingPolicy::LengthSorted,
        core::PackingPolicy::LengthBinned}) {
    DatabaseSearch search(db, cfg, SearchMode::Batch, policy);
    core::Workspace ws;
    core::BatchSearchStats serial{};
    EXPECT_EQ(core::batch_scores(q, *search.packed_db(), db, cfg, ws, &serial), ref);
    for (const auto& pool : pools) {
      const std::string label = std::string(core::packing_policy_name(policy)) +
                                " t" + std::to_string(pool->size());
      SearchResult got = search.search(q, 12, pool.get());
      EXPECT_FALSE(got.truncated) << label;
      ASSERT_EQ(got.hits.size(), want.size()) << label;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.hits[i].seq_index, want[i].seq_index) << label << " #" << i;
        EXPECT_EQ(got.hits[i].score, want[i].score) << label << " #" << i;
        EXPECT_EQ(got.hits[i].end_query, want[i].end_query) << label << " #" << i;
        EXPECT_EQ(got.hits[i].end_ref, want[i].end_ref) << label << " #" << i;
      }
      expect_same_stats(got.batch_stats, serial, label);
    }
  }
}

TEST(DatabaseSearch, ScheduleHandsOutCostliestUnitsFirstAndEveryBatchOnce) {
  // A work unit is one batch of the cost order.
  auto db = make_db(60'000, 43);
  for (core::PackingPolicy policy :
       {core::PackingPolicy::DbOrder, core::PackingPolicy::LengthSorted,
        core::PackingPolicy::LengthBinned}) {
    const core::Batch32Db bdb(db, 32, policy);
    const auto order = bdb.cost_order();
    const size_t n = bdb.batch_count();
    ASSERT_EQ(order.size(), n);
    auto cost = [&](size_t i) { return uint64_t{bdb.batch(order[i]).max_len} * 32; };
    std::vector<int> seen(n, 0);
    for (size_t i = 0; i < n; ++i) {
      ++seen[order[i]];
      if (i > 0) {
        EXPECT_GE(cost(i - 1), cost(i)) << i;
      }
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<long>(n));

    // Positions of the order, claimed by concurrent workers as the engine
    // claims them: each position exactly once, so between them every batch
    // exactly once, costliest first. The engine's slots, fed from such a
    // cursor, scan n batches between them.
    const AlignConfig cfg;
    const ExecContext ctx;
    const engine::BatchScan scan{db, bdb, cfg, ctx, 10};
    const auto q = seq::generate_sequence(431, 60);
    for (size_t slots : {size_t{1}, size_t{3}, size_t{7}}) {
      std::vector<std::atomic<int>> claimed(n);
      parallel::WorkCursor cursor(order.size());
      parallel::ThreadPool pool(static_cast<unsigned>(slots));
      pool.fan_out([&](unsigned) {
        for (size_t i; cursor.claim(i);) claimed[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(claimed[i].load(), 1) << "slots " << slots << " position " << i;

      std::vector<engine::ScanSlot> out(slots);
      parallel::WorkCursor scan_cursor(order.size());
      pool.fan_out([&](unsigned s) {
        core::Workspace ws;
        obs::Span span(ctx.trace, "chunk.test");
        scan.run_slot(q, nullptr, order, scan_cursor, ws, out[s], span);
      });
      uint64_t scanned = 0;
      for (const engine::ScanSlot& o : out) scanned += o.batches;
      EXPECT_EQ(scanned, n) << "slots " << slots;
    }
  }
}

TEST(DatabaseSearch, BatchScanStopsMidScanOnDeadlineAndCancel) {
  // A scan far longer than the stop delay: both engines (flat and sharded)
  // must stop between batches and withhold the partial answer.
  auto db = make_db(600'000, 45);
  auto q = seq::generate_sequence(440, 2000);
  DatabaseSearch flat(db, AlignConfig{}, SearchMode::Batch);
  DatabaseSearch sharded(db, AlignConfig{}, SearchMode::Batch);
  ShardOptions sopt;
  sopt.shards = 2;
  sopt.total_threads = 2;
  ASSERT_TRUE(sharded.enable_sharding(sopt).ok());
  const uint64_t full_cells8 = flat.packed_db()->padded_residues() * q.length();
  parallel::ThreadPool pool(2);

  for (const DatabaseSearch* search : {&flat, &sharded}) {
    const std::string label = search == &flat ? "flat" : "sharded";
    {
      ExecContext ctx;
      ctx.pool = &pool;
      ctx.deadline = ExecContext::Clock::now() + std::chrono::milliseconds(2);
      const SearchResult r = search->search(q, 10, ctx);
      EXPECT_TRUE(r.truncated) << label;
      EXPECT_TRUE(r.hits.empty()) << label;
      EXPECT_LT(r.batch_stats.cells8, full_cells8) << label;
    }
    {
      std::atomic<bool> cancel{false};
      std::thread canceller([&cancel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        cancel.store(true);
      });
      ExecContext ctx;
      ctx.pool = &pool;
      ctx.cancel = &cancel;
      const SearchResult r = search->search(q, 10, ctx);
      canceller.join();
      EXPECT_TRUE(r.truncated) << label;
      EXPECT_TRUE(r.hits.empty()) << label;
      EXPECT_LT(r.batch_stats.cells8, full_cells8) << label;
    }
  }
}

}  // namespace
}  // namespace swve::align
