#include "align/sharded_search.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "align/query_cache.hpp"
#include "core/dispatch.hpp"
#include "core/mapped_db.hpp"
#include "obs/pmu.hpp"
#include "perf/metrics.hpp"
#include "perf/timer.hpp"

namespace swve::align {

namespace {

std::atomic<int> g_shard_hint{0};

}  // namespace

void set_shard_count_hint(int shards) noexcept {
  g_shard_hint.store(std::clamp(shards, 0, 64), std::memory_order_relaxed);
}
int shard_count_hint() noexcept {
  return g_shard_hint.load(std::memory_order_relaxed);
}

/// One shard: a contiguous batch range, its pinned pool + workspace arena,
/// and lifetime counters (relaxed atomics, read by shard_stats()).
struct ShardedSearch::Shard {
  size_t first_batch = 0;
  size_t end_batch = 0;
  std::vector<uint32_t> order;  // the shard's slice of the cost order
  uint64_t sequences = 0;
  uint64_t padded_residues = 0;
  int node = -1;
  bool bound = false;
  std::unique_ptr<parallel::ThreadPool> pool;
  std::unique_ptr<QueryStateCache> cache;

  std::atomic<uint64_t> searches{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> cells{0};
  std::atomic<uint64_t> useful_cells{0};
  std::atomic<uint64_t> rescored{0};
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> llc_misses{0};
  std::atomic<uint64_t> cycles{0};
};

ShardedSearch::ShardedSearch(const seq::SequenceDatabase& db,
                             const core::Batch32Db& packed)
    : db_(&db), packed_(&packed) {}

ShardedSearch::~ShardedSearch() = default;

std::vector<std::pair<size_t, size_t>> ShardedSearch::plan_shards(
    const core::Batch32Db& packed, size_t shards) {
  const size_t n = packed.batch_count();
  std::vector<std::pair<size_t, size_t>> ranges;
  if (shards == 0 || n == 0) return ranges;
  shards = std::min(shards, n);
  // Balance by padded cells per query residue: each batch costs
  // max_len * lanes kernel cells whatever it holds, so cutting at equal
  // fractions of that prefix equalizes DP work, not batch counts.
  const auto records = packed.batch_records();
  uint64_t total = 0;
  for (const auto& r : records)
    total += static_cast<uint64_t>(r.max_len) * packed.lanes();
  size_t begin = 0;
  uint64_t prefix = 0;
  for (size_t s = 0; s < shards; ++s) {
    const uint64_t target = total * (s + 1) / shards;
    size_t end = begin;
    // Leave at least one batch per remaining shard; always take one.
    const size_t max_end = n - (shards - 1 - s);
    while (end < max_end && (end == begin || prefix < target)) {
      prefix +=
          static_cast<uint64_t>(records[end].max_len) * packed.lanes();
      ++end;
    }
    ranges.emplace_back(begin, end);
    begin = end;
  }
  ranges.back().second = n;  // absorb rounding into the last (ragged) shard
  return ranges;
}

core::ErrorOr<std::unique_ptr<ShardedSearch>> ShardedSearch::create(
    const seq::SequenceDatabase& db, const core::Batch32Db& packed,
    const ShardOptions& opt) {
  using Code = core::ConfigError::Code;
  if (opt.shards < 0)
    return core::ConfigError{Code::Unsupported,
                             "ShardedSearch: shards must be >= 0"};
  const size_t batches = packed.batch_count();
  if (batches == 0)
    return core::ConfigError{Code::NoDatabase,
                             "ShardedSearch: packed database has no batches"};
  if (opt.shards > 0 && static_cast<size_t>(opt.shards) > batches)
    return core::ConfigError{
        Code::Unsupported,
        "ShardedSearch: shards (" + std::to_string(opt.shards) +
            ") exceeds packed batch count (" + std::to_string(batches) +
            "); a shard would own no batches"};

  std::unique_ptr<ShardedSearch> s(new ShardedSearch(db, packed));
  s->topo_ = parallel::Topology::detect();
  s->numa_ = parallel::numa_disabled_by_env() ? parallel::NumaPolicy::Off
                                              : opt.numa;
  size_t shards = static_cast<size_t>(opt.shards);
  if (shards == 0) {
    const int hint = shard_count_hint();
    shards = hint > 0 ? static_cast<size_t>(hint) : s->topo_.node_count();
    shards = std::min(shards, batches);  // auto degrades, never errors
  }
  const auto ranges = plan_shards(packed, shards);

  unsigned total_threads = opt.total_threads != 0
                               ? opt.total_threads
                               : std::max(1u, s->topo_.total_cpus());
  const unsigned per_shard =
      std::max(1u, total_threads / static_cast<unsigned>(ranges.size()));

  for (size_t i = 0; i < ranges.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->first_batch = ranges[i].first;
    shard->end_batch = ranges[i].second;
    for (uint32_t b : packed.cost_order())
      if (b >= shard->first_batch && b < shard->end_batch)
        shard->order.push_back(b);
    for (size_t b = shard->first_batch; b < shard->end_batch; ++b) {
      const auto batch = packed.batch(b);
      shard->sequences += batch.count;
      shard->padded_residues +=
          static_cast<uint64_t>(batch.max_len) * packed.lanes();
    }
    std::vector<int> cpus;  // empty = unpinned
    if (s->numa_ != parallel::NumaPolicy::Off && !s->topo_.synthetic) {
      const auto& node =
          s->topo_.nodes[i % s->topo_.node_count()];
      shard->node = node.id;
      cpus = node.cpus;
    }
    shard->pool =
        std::make_unique<parallel::ThreadPool>(per_shard, std::move(cpus));
    // Per-shard workspace arena: leases never migrate across shards, so
    // first-touch puts each arena's pages on the shard's own node.
    shard->cache = std::make_unique<QueryStateCache>(
        /*capacity=*/8, /*max_pool=*/per_shard * 2);

    const auto range =
        packed.column_range(shard->first_batch, shard->end_batch);
    if (s->numa_ == parallel::NumaPolicy::Bind && shard->node >= 0)
      shard->bound = parallel::bind_memory_to_node(range.data(), range.size(),
                                                   shard->node);
    if (opt.mapped != nullptr)
      opt.mapped->advise_batch_columns(shard->first_batch, shard->end_batch,
                                       core::MappedDbOptions::Madvise::WillNeed);
    s->shards_.push_back(std::move(shard));
  }
  if (s->numa_ == parallel::NumaPolicy::Interleave && s->topo_.multi_node()) {
    const auto all = packed.column_bytes();
    parallel::interleave_memory(
        all.data(), all.size(),
        static_cast<unsigned>(s->topo_.node_count()));
  }
  return core::ErrorOr<std::unique_ptr<ShardedSearch>>(std::move(s));
}

size_t ShardedSearch::shard_count() const noexcept { return shards_.size(); }

std::pair<size_t, size_t> ShardedSearch::shard_range(size_t s) const noexcept {
  if (s >= shards_.size()) return {0, 0};
  return {shards_[s]->first_batch, shards_[s]->end_batch};
}

ShardStats ShardedSearch::shard_stats(size_t s) const noexcept {
  ShardStats out;
  if (s >= shards_.size()) return out;
  const Shard& sh = *shards_[s];
  out.first_batch = sh.first_batch;
  out.end_batch = sh.end_batch;
  out.sequences = sh.sequences;
  out.padded_residues = sh.padded_residues;
  out.node = sh.node;
  out.threads = sh.pool->size();
  out.bound = sh.bound;
  out.searches = sh.searches.load(std::memory_order_relaxed);
  out.batches = sh.batches.load(std::memory_order_relaxed);
  out.cells = sh.cells.load(std::memory_order_relaxed);
  out.useful_cells = sh.useful_cells.load(std::memory_order_relaxed);
  out.rescored = sh.rescored.load(std::memory_order_relaxed);
  out.busy_seconds =
      static_cast<double>(sh.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  out.llc_misses = sh.llc_misses.load(std::memory_order_relaxed);
  out.cycles = sh.cycles.load(std::memory_order_relaxed);
  out.queue_depth = sh.pool->pending();
  return out;
}

SearchResult ShardedSearch::search(const core::AlignConfig& cfg,
                                   seq::SeqView query, size_t top_k,
                                   const ExecContext& ctx) const {
  perf::Stopwatch sw;
  SearchResult out;
  out.query_length = query.length;
  out.db_residues = db_->total_residues();
  if (db_->empty() || query.empty()) return out;

  std::shared_ptr<const core::PreparedQuery> prep;
  if (ctx.query_cache != nullptr) prep = ctx.query_cache->prepared(query, cfg);

  // Phase 1: every shard fans its own slice of the cost order out over
  // its pinned pool, all shards concurrently; slots are laid out
  // shard-major in one vector so phase 2 merges them like the flat path's.
  const engine::BatchScan scan{*db_, *packed_, cfg, ctx, top_k};
  const size_t nshards = shards_.size();
  std::vector<size_t> first_slot(nshards + 1, 0);
  for (size_t si = 0; si < nshards; ++si)
    first_slot[si + 1] = first_slot[si] + shards_[si]->pool->size();
  std::vector<engine::ScanSlot> slots(first_slot[nshards]);
  std::deque<parallel::WorkCursor> cursors;
  for (const auto& shard : shards_) cursors.emplace_back(shard->order.size());

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t shards_left = nshards;

  for (size_t si = 0; si < nshards; ++si) {
    Shard& shard = *shards_[si];
    shard.searches.fetch_add(1, std::memory_order_relaxed);
    auto run_slot = [&scan, &shard, &cursors, &slots, &ctx, &prep,
                     query, si, base = first_slot[si]](unsigned slot) {
      const obs::PmuReading pmu0 = obs::PmuSession::instance().read();
      obs::Span span(ctx.trace, "chunk.shard_search");
      span.set_index(si);
      auto lease = shard.cache->lease_workspace();
      engine::ScanSlot& out = slots[base + slot];
      scan.run_slot(query, prep.get(), shard.order, cursors[si], lease.ws(),
                    out, span);
      span.end();
      const obs::PmuReading pmu1 = obs::PmuSession::instance().read();
      const obs::PmuDelta d = obs::PmuSession::delta(pmu0, pmu1);
      shard.busy_ns.fetch_add(d.wall_ns, std::memory_order_relaxed);
      if (d.hw) {
        shard.llc_misses.fetch_add(d.llc_misses, std::memory_order_relaxed);
        shard.cycles.fetch_add(d.cycles, std::memory_order_relaxed);
      }
      shard.batches.fetch_add(out.batches, std::memory_order_relaxed);
      shard.cells.fetch_add(out.stats.cells8 + out.stats.rescored_cells,
                            std::memory_order_relaxed);
      shard.useful_cells.fetch_add(out.stats.useful_cells8,
                                   std::memory_order_relaxed);
      shard.rescored.fetch_add(out.stats.rescored, std::memory_order_relaxed);
    };
    shard.pool->fan_out_async(run_slot, [&done_mu, &done_cv, &shards_left] {
      std::lock_guard<std::mutex> lk(done_mu);
      if (--shards_left == 0) done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lk(done_mu);
    done_cv.wait(lk, [&shards_left] { return shards_left == 0; });
  }

  // Phase 2: the flat path's merge and exact re-alignment of the winners,
  // over the identical winner set.
  scan.finish(query, prep.get(), slots, out);
  out.seconds = sw.seconds();
  return out;
}

}  // namespace swve::align
