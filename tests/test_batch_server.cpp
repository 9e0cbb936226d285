#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "align/batch_server.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "seq/synthetic.hpp"

namespace swve::align {
namespace {

seq::SequenceDatabase make_db(uint64_t residues, uint64_t seed = 25) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = 20;
  cfg.max_length = 300;
  return seq::SequenceDatabase::synthetic(cfg);
}

TEST(BatchServer, ScoresAgreeWithDatabaseSearch) {
  auto db = make_db(50'000);
  AlignConfig cfg;
  BatchServer server(db, cfg);
  DatabaseSearch search(db, cfg);
  auto queries = seq::make_query_ladder(30, 4, 40, 300);
  auto results = server.run(queries, 8);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SearchResult direct = search.search(queries[qi], 8);
    const auto& batch = results[qi].result;
    ASSERT_EQ(batch.hits.size(), direct.hits.size()) << "query " << qi;
    for (size_t k = 0; k < direct.hits.size(); ++k) {
      EXPECT_EQ(batch.hits[k].seq_index, direct.hits[k].seq_index);
      EXPECT_EQ(batch.hits[k].score, direct.hits[k].score);
    }
  }
}

TEST(BatchServer, DeterministicAcrossThreadCounts) {
  auto db = make_db(40'000);
  BatchServer server(db, AlignConfig{});
  auto queries = seq::make_query_ladder(31, 6, 50, 400);
  auto serial = server.run(queries, 5);
  for (unsigned threads : {2u, 4u}) {
    parallel::ThreadPool pool(threads);
    auto par = server.run(queries, 5, &pool);
    ASSERT_EQ(par.size(), serial.size());
    for (size_t qi = 0; qi < serial.size(); ++qi) {
      ASSERT_EQ(par[qi].result.hits.size(), serial[qi].result.hits.size());
      for (size_t k = 0; k < serial[qi].result.hits.size(); ++k) {
        EXPECT_EQ(par[qi].result.hits[k].seq_index,
                  serial[qi].result.hits[k].seq_index);
        EXPECT_EQ(par[qi].result.hits[k].score, serial[qi].result.hits[k].score);
      }
    }
  }
}

TEST(BatchServer, RealignProducesValidTraceback) {
  auto q = seq::generate_sequence(32, 200);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(seq::generate_sequence(33 + static_cast<uint64_t>(i), 150));
  seqs.push_back(seq::mutate(q, 34, 0.15));
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  BatchServer server(db, cfg);
  auto results = server.run({q}, 3);
  ASSERT_FALSE(results[0].result.hits.empty());
  const Hit& top = results[0].result.hits[0];
  EXPECT_EQ(top.seq_index, 40u);
  core::Alignment a = server.realign(q, top);
  EXPECT_EQ(a.score, top.score);
  ASSERT_FALSE(a.cigar.empty());
  AlignConfig replay_cfg = cfg;
  replay_cfg.traceback = true;
  EXPECT_EQ(core::replay_score(q, db[top.seq_index], replay_cfg, a), a.score);
}

TEST(BatchServer, LanesMatchCpuCapability) {
  auto db = make_db(5'000);
  BatchServer server(db, AlignConfig{});
  EXPECT_TRUE(server.lanes() == 32 || server.lanes() == 64);
  EXPECT_EQ(server.packed_db().lanes(), server.lanes());
}

TEST(BatchServer, EmptyQueryListAndStats) {
  auto db = make_db(5'000);
  BatchServer server(db, AlignConfig{});
  EXPECT_TRUE(server.run({}, 5).empty());
  auto q = seq::generate_sequence(35, 80);
  auto results = server.run({q}, 5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].batch_stats.cells8, 0u);
}

/// Per-query answer of one serial scan: top-k hits (no end positions, as
/// batch_run reports them) and exact work counts.
struct SerialAnswer {
  std::vector<Hit> hits;
  core::BatchSearchStats stats;
};

SerialAnswer serial_answer(const seq::Sequence& q, const BatchServer& server,
                           const seq::SequenceDatabase& db, size_t top_k) {
  SerialAnswer a;
  core::Workspace ws;
  const auto scores =
      core::batch_scores(q, server.packed_db(), db, AlignConfig{}, ws, &a.stats);
  for (size_t s = 0; s < scores.size(); ++s)
    if (scores[s] > 0) a.hits.push_back(Hit{static_cast<uint32_t>(s), scores[s], -1, -1});
  std::sort(a.hits.begin(), a.hits.end());
  a.hits.resize(std::min(a.hits.size(), top_k));
  return a;
}

void expect_matches(const BatchQueryResult& got, const SerialAnswer& want,
                    const std::string& label) {
  EXPECT_FALSE(got.result.truncated) << label;
  ASSERT_EQ(got.result.hits.size(), want.hits.size()) << label;
  for (size_t k = 0; k < want.hits.size(); ++k) {
    EXPECT_EQ(got.result.hits[k].seq_index, want.hits[k].seq_index) << label;
    EXPECT_EQ(got.result.hits[k].score, want.hits[k].score) << label;
  }
  EXPECT_EQ(got.batch_stats.cells8, want.stats.cells8) << label;
  EXPECT_EQ(got.batch_stats.useful_cells8, want.stats.useful_cells8) << label;
  EXPECT_EQ(got.batch_stats.rescored, want.stats.rescored) << label;
  EXPECT_EQ(got.batch_stats.rescored_cells, want.stats.rescored_cells) << label;
  EXPECT_EQ(got.result.stats.cells, want.stats.cells8 + want.stats.rescored_cells)
      << label;
}

TEST(BatchServer, TilesMatchPerQuerySerialScans) {
  // (query, batch) tiles from several queries interleave on every worker;
  // each query's hits and exact counts must still equal its own serial
  // scan, for every pool size (and with no pool at all).
  auto db = make_db(40'000, 27);
  BatchServer server(db, AlignConfig{});
  auto queries = seq::make_query_ladder(36, 7, 30, 700);
  queries.push_back(seq::mutate(db[5], 37, 0.05));  // saturates: rescored
  std::vector<SerialAnswer> want;
  for (const auto& q : queries) want.push_back(serial_answer(q, server, db, 6));

  auto check = [&](const std::vector<BatchQueryResult>& got, const std::string& label) {
    ASSERT_EQ(got.size(), queries.size()) << label;
    for (size_t qi = 0; qi < queries.size(); ++qi)
      expect_matches(got[qi], want[qi], label + " q" + std::to_string(qi));
  };
  check(server.run(queries, 6), "serial");
  for (unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
    parallel::ThreadPool pool(threads);
    check(server.run(queries, 6, &pool), "t" + std::to_string(threads));
  }
  EXPECT_GT(want.back().stats.rescored, 0u);
}

TEST(BatchServer, DeadlineAndCancelMidRunTruncateUnfinishedQueries) {
  auto db = make_db(300'000, 29);
  BatchServer server(db, AlignConfig{});
  std::vector<seq::Sequence> queries;
  for (uint64_t i = 0; i < 4; ++i) queries.push_back(seq::generate_sequence(38 + i, 1500));
  parallel::ThreadPool pool(2);

  auto check = [&](const std::vector<BatchQueryResult>& got, const std::string& label) {
    ASSERT_EQ(got.size(), queries.size()) << label;
    size_t truncated = 0;
    for (size_t qi = 0; qi < got.size(); ++qi) {
      if (got[qi].result.truncated) {
        ++truncated;
        EXPECT_TRUE(got[qi].result.hits.empty()) << label << " q" << qi;
      } else {  // a query finished before the stop is a complete answer
        expect_matches(got[qi], serial_answer(queries[qi], server, db, 5),
                       label + " q" + std::to_string(qi));
      }
    }
    EXPECT_GT(truncated, 0u) << label;
  };
  {
    ExecContext ctx;
    ctx.pool = &pool;
    ctx.deadline = ExecContext::Clock::now() + std::chrono::milliseconds(2);
    check(server.run(queries, 5, ctx), "deadline");
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
    const auto got = server.run(queries, 5, ctx);
    canceller.join();
    check(got, "cancel");
  }
}

}  // namespace
}  // namespace swve::align
