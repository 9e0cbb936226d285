#include "align/db_search.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "align/query_cache.hpp"
#include "align/sharded_search.hpp"
#include "parallel/partition.hpp"
#include "perf/metrics.hpp"
#include "perf/timer.hpp"

namespace swve::align {

namespace {

uint16_t width_bits(core::Width w) {
  switch (w) {
    case core::Width::W8: return 8;
    case core::Width::W16: return 16;
    case core::Width::W32: return 32;
    case core::Width::Adaptive: return 0;
  }
  return 0;
}

}  // namespace

namespace engine {

void TopK::offer(const Hit& h) {
  if (h.score <= 0) return;
  hits_.push_back(h);
  std::push_heap(hits_.begin(), hits_.end());
  if (hits_.size() > k_) {
    std::pop_heap(hits_.begin(), hits_.end());
    hits_.pop_back();
  }
}

std::vector<Hit> TopK::sorted() && {
  std::sort(hits_.begin(), hits_.end());
  return std::move(hits_);
}

void BatchScan::label(obs::Span& span) const {
  span.set_kernel(perf::KernelVariant::Batch32);
  span.set_isa(isa);
  span.set_width_bits(8);
  span.set_lanes(static_cast<uint32_t>(bdb.lanes()));
}

void BatchScan::run_slot(seq::SeqView query, const core::PreparedQuery* prep,
                         std::span<const uint32_t> order,
                         parallel::WorkCursor& cursor, core::Workspace& ws,
                         ScanSlot& out, obs::Span& span) const {
  label(span);
  TopK top(top_k);
  std::vector<core::LaneScore> lanes;
  for (size_t i; cursor.claim(i);) {
    if (ctx.should_stop()) {  // per-batch cancellation/deadline check
      out.truncated = true;
      span.set_trunc(ctx.stop_cause());
      break;
    }
    lanes.clear();
    core::scan_batches(query, bdb, db, order.subspan(i, 1), cfg, ws, prep, lanes,
                       out.stats);
    ++out.batches;
    for (const core::LaneScore& l : lanes)
      top.offer(Hit{l.seq_index, l.score, -1, -1});
  }
  span.add_cells(out.stats.cells8 + out.stats.rescored_cells);
  span.set_useful_cells(out.stats.useful_cells8 + out.stats.rescored_cells);
  out.hits = std::move(top).sorted();
}

void BatchScan::finish(seq::SeqView query, const core::PreparedQuery* prep,
                       std::span<const ScanSlot> slots, SearchResult& out) const {
  TopK merged(top_k);
  for (const ScanSlot& slot : slots) {
    out.batch_stats += slot.stats;
    out.truncated = out.truncated || slot.truncated;
    for (const Hit& h : slot.hits) merged.offer(h);
  }
  if (out.truncated) return;  // partial answer; skip the exact re-alignment
  out.hits = std::move(merged).sorted();
  auto lease = QueryStateCache::lease(ctx.query_cache);
  core::Workspace& ws = lease.ws();
  for (Hit& h : out.hits) {
    // The score is already exact: start at the rung that holds it.
    core::Alignment a =
        core::diag_align_from(query, db[h.seq_index], cfg, ws,
                              core::narrowest_width(h.score, cfg), prep);
    h.end_query = a.end_query;
    h.end_ref = a.end_ref;
    out.stats += a.stats;
  }
  out.stats.cells += out.batch_stats.cells8 + out.batch_stats.rescored_cells;
  out.stats.vector_cells += out.batch_stats.cells8;
}

SearchResult search_batch(const seq::SequenceDatabase& db,
                          const core::Batch32Db& bdb,
                          const core::AlignConfig& cfg, seq::SeqView query,
                          size_t top_k, const ExecContext& ctx) {
  perf::Stopwatch sw;
  SearchResult out;
  out.query_length = query.length;
  out.db_residues = db.total_residues();
  if (db.empty() || query.empty()) return out;

  // Cached query state, when the caller provides a cache: the prepared
  // feed arrays are shared read-only across worker threads, and workspaces
  // come from the pool instead of cold allocation.
  std::shared_ptr<const core::PreparedQuery> prep;
  if (ctx.query_cache != nullptr) prep = ctx.query_cache->prepared(query, cfg);

  const BatchScan scan{db, bdb, cfg, ctx, top_k};
  std::vector<ScanSlot> slots(ctx.pool ? ctx.pool->size() : 1);
  const std::span<const uint32_t> order = bdb.cost_order();
  parallel::WorkCursor cursor(order.size());
  auto run_slot = [&](unsigned slot) {
    obs::Span span(ctx.trace, "chunk.search_batch");
    span.set_index(slot);
    auto lease = QueryStateCache::lease(ctx.query_cache);
    scan.run_slot(query, prep.get(), order, cursor, lease.ws(), slots[slot],
                  span);
  };
  if (ctx.pool)
    ctx.pool->fan_out(run_slot);
  else
    run_slot(0);
  scan.finish(query, prep.get(), slots, out);
  out.seconds = sw.seconds();
  return out;
}

SearchResult search_diagonal(const seq::SequenceDatabase& db,
                             const core::AlignConfig& cfg, seq::SeqView query,
                             size_t top_k, const ExecContext& ctx) {
  perf::Stopwatch sw;
  SearchResult out;
  out.query_length = query.length;
  out.db_residues = db.total_residues();
  if (db.empty() || query.empty()) return out;

  std::shared_ptr<const core::PreparedQuery> prep;
  if (ctx.query_cache != nullptr) prep = ctx.query_cache->prepared(query, cfg);

  const unsigned parts = ctx.pool ? ctx.pool->size() : 1u;
  auto ranges = parallel::partition_by_residues(db, parts);
  std::vector<std::vector<Hit>> part_hits(parts);
  std::vector<core::KernelStats> part_stats(parts);
  std::atomic<bool> truncated{false};

  auto run_part = [&](unsigned p) {
    auto [begin, end] = ranges[p];
    if (begin >= end) return;
    obs::Span span(ctx.trace, "chunk.search_diagonal");
    span.set_kernel(perf::KernelVariant::Diagonal);
    span.set_index(p);
    auto lease = QueryStateCache::lease(ctx.query_cache);
    core::Workspace& ws = lease.ws();
    TopK top(top_k);
    core::KernelStats stats;
    for (size_t s = begin; s < end; ++s) {
      if (ctx.should_stop()) {  // per-sequence cancellation/deadline check
        truncated.store(true, std::memory_order_relaxed);
        span.set_trunc(ctx.stop_cause());
        break;
      }
      core::Alignment a = core::diag_align(query, db[s], cfg, ws, prep.get());
      span.set_isa(a.isa_used);
      span.set_width_bits(width_bits(a.width_used));
      stats += a.stats;
      top.offer(Hit{static_cast<uint32_t>(s), a.score, a.end_query, a.end_ref});
    }
    span.add_cells(stats.cells);
    part_hits[p] = std::move(top).sorted();
    part_stats[p] = stats;
  };

  if (ctx.pool) {
    ctx.pool->fan_out(run_part);
  } else {
    run_part(0);
  }

  // Deterministic merge in partition order, then global top-k.
  TopK merged(top_k);
  for (unsigned p = 0; p < parts; ++p) {
    out.stats += part_stats[p];
    for (const Hit& h : part_hits[p]) merged.offer(h);
  }
  out.hits = std::move(merged).sorted();
  out.truncated = truncated.load(std::memory_order_relaxed);
  out.seconds = sw.seconds();
  return out;
}

}  // namespace engine

DatabaseSearch::DatabaseSearch(const seq::SequenceDatabase& db, AlignConfig cfg,
                               SearchMode mode, core::PackingPolicy packing)
    : db_(&db), cfg_(cfg), mode_(mode) {
  cfg_.validate();
  cfg_.traceback = false;  // scoring pass; re-align hits for traceback
  if (mode_ == SearchMode::Batch) {
    if (cfg_.band >= 0)
      throw std::invalid_argument("DatabaseSearch: Batch mode cannot band");
    bdb_ = std::make_unique<core::Batch32Db>(
        db, core::batch_lanes_for(simd::resolve_isa(simd::Isa::Auto)), packing);
    packed_ = bdb_.get();
  }
}

DatabaseSearch::DatabaseSearch(const seq::SequenceDatabase& db,
                               const core::Batch32Db& packed, AlignConfig cfg)
    : db_(&db), cfg_(cfg), mode_(SearchMode::Batch), packed_(&packed) {
  cfg_.validate();
  cfg_.traceback = false;
  if (cfg_.band >= 0)
    throw std::invalid_argument("DatabaseSearch: Batch mode cannot band");
  if (packed.sequence_count() != db.size())
    throw std::invalid_argument(
        "DatabaseSearch: packed database does not match the sequence database");
}

DatabaseSearch::~DatabaseSearch() = default;
DatabaseSearch::DatabaseSearch(DatabaseSearch&&) noexcept = default;
DatabaseSearch& DatabaseSearch::operator=(DatabaseSearch&&) noexcept = default;

core::ErrorOr<void> DatabaseSearch::enable_sharding(const ShardOptions& opt) {
  if (mode_ != SearchMode::Batch)
    return core::ConfigError{core::ConfigError::Code::Unsupported,
                             "DatabaseSearch: sharding requires Batch mode"};
  auto sharded = ShardedSearch::create(*db_, *packed_, opt);
  if (!sharded.ok()) return sharded.error();
  sharded_ = std::move(sharded).value();
  return {};
}

SearchResult DatabaseSearch::search(seq::SeqView query, size_t top_k,
                                    parallel::ThreadPool* pool) const {
  ExecContext ctx;
  ctx.pool = pool;
  return search(query, top_k, ctx);
}

SearchResult DatabaseSearch::search(seq::SeqView query, size_t top_k,
                                    const ExecContext& ctx) const {
  if (sharded_) return sharded_->search(cfg_, query, top_k, ctx);
  return mode_ == SearchMode::Batch
             ? engine::search_batch(*db_, *packed_, cfg_, query, top_k, ctx)
             : engine::search_diagonal(*db_, cfg_, query, top_k, ctx);
}

}  // namespace swve::align
