#include "align/batch_server.hpp"

#include <algorithm>
#include <mutex>

#include "align/query_cache.hpp"
#include "perf/timer.hpp"
#include "simd/cpu.hpp"

namespace swve::align {

namespace engine {

std::vector<BatchQueryResult> batch_run(const seq::SequenceDatabase& db,
                                        const core::Batch32Db& bdb,
                                        const core::AlignConfig& cfg,
                                        const std::vector<seq::Sequence>& queries,
                                        size_t top_k, const ExecContext& ctx) {
  std::vector<BatchQueryResult> out(queries.size());
  if (queries.empty()) return out;
  core::check_batch_scan(cfg, bdb);

  // Per-query accumulators, fed by whichever slots scan the query's batches.
  struct QueryRun {
    std::shared_ptr<const core::PreparedQuery> prep;
    std::mutex mu;
    TopK top{0};
    core::BatchSearchStats stats;
    size_t batches_done = 0;
    double seconds = 0;
  };
  std::vector<QueryRun> runs(queries.size());
  std::vector<size_t> by_length(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (ctx.query_cache != nullptr)
      runs[qi].prep = ctx.query_cache->prepared(queries[qi], cfg);
    runs[qi].top = TopK(top_k);
    by_length[qi] = qi;
  }
  // Tiles are (query, batch) pairs, claimed longest query first and, within
  // a query, costliest batch first: a long query's scan spreads over every
  // worker instead of setting the batch's wall time on one.
  std::stable_sort(by_length.begin(), by_length.end(), [&](size_t a, size_t b) {
    return queries[a].length() > queries[b].length();
  });
  const BatchScan scan{db, bdb, cfg, ctx, top_k};
  const std::span<const uint32_t> order = bdb.cost_order();
  parallel::WorkCursor cursor(order.size() * queries.size());

  auto run_slot = [&](unsigned slot) {
    obs::Span span(ctx.trace, "chunk.batch_run");
    span.set_index(slot);
    scan.label(span);
    auto lease = QueryStateCache::lease(ctx.query_cache);
    core::BatchSearchStats slot_stats{};
    std::vector<core::LaneScore> lanes;
    for (size_t t; cursor.claim(t);) {
      if (ctx.should_stop()) {  // per-tile cancellation/deadline check
        span.set_trunc(ctx.stop_cause());
        break;
      }
      perf::Stopwatch sw;
      const size_t qi = by_length[t / order.size()];
      QueryRun& run = runs[qi];
      core::BatchSearchStats stats{};
      lanes.clear();
      core::scan_batches(queries[qi], bdb, db, order.subspan(t % order.size(), 1),
                         cfg, lease.ws(), run.prep.get(), lanes, stats);
      slot_stats += stats;
      std::lock_guard<std::mutex> lk(run.mu);
      for (const core::LaneScore& l : lanes)
        run.top.offer(Hit{l.seq_index, l.score, -1, -1});
      run.stats += stats;
      ++run.batches_done;
      run.seconds += sw.seconds();
    }
    span.add_cells(slot_stats.cells8 + slot_stats.rescored_cells);
    span.set_useful_cells(slot_stats.useful_cells8 + slot_stats.rescored_cells);
  };
  if (ctx.pool)
    ctx.pool->fan_out(run_slot);
  else
    run_slot(0);

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryRun& run = runs[qi];
    SearchResult& r = out[qi].result;
    r.query_length = queries[qi].length();
    r.db_residues = db.total_residues();
    r.truncated = run.batches_done < order.size();
    r.stats.cells = run.stats.cells8 + run.stats.rescored_cells;
    r.stats.vector_cells = run.stats.cells8;
    r.seconds = run.seconds;
    if (!r.truncated) r.hits = std::move(run.top).sorted();
    out[qi].batch_stats = run.stats;
  }
  return out;
}

}  // namespace engine

BatchServer::BatchServer(const seq::SequenceDatabase& db, AlignConfig cfg)
    : db_(&db),
      cfg_(cfg),
      bdb_(db, core::batch_lanes_for(simd::resolve_isa(simd::Isa::Auto))) {
  cfg_.validate();
  cfg_.traceback = false;
}

std::vector<BatchQueryResult> BatchServer::run(
    const std::vector<seq::Sequence>& queries, size_t top_k,
    parallel::ThreadPool* pool) const {
  ExecContext ctx;
  ctx.pool = pool;
  return engine::batch_run(*db_, bdb_, cfg_, queries, top_k, ctx);
}

std::vector<BatchQueryResult> BatchServer::run(
    const std::vector<seq::Sequence>& queries, size_t top_k,
    const ExecContext& ctx) const {
  return engine::batch_run(*db_, bdb_, cfg_, queries, top_k, ctx);
}

core::Alignment BatchServer::realign(const seq::Sequence& query, const Hit& hit) const {
  AlignConfig cfg = cfg_;
  cfg.traceback = true;
  cfg.width = core::Width::Adaptive;
  core::Workspace ws;
  return core::diag_align(query, (*db_)[hit.seq_index], cfg, ws);
}

}  // namespace swve::align
