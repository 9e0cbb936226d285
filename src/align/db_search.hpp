// Scenario 1: one query streamed against a sequence database, fanned out
// across threads, with deterministic top-k merging.
//
// The actual search loops live in the stateless `engine` namespace: they
// take the database, config, and an ExecContext (pool / cancellation /
// deadline) explicitly, so both the synchronous DatabaseSearch facade and
// the async service::AlignService drive the exact same code and get
// bit-identical results. The batch path has one scan engine (BatchScan):
// engine::search_batch, every ShardedSearch shard and engine::batch_run
// all claim work from the packed database's costliest-first batch order
// and score it with core::scan_batches.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "align/aligner.hpp"
#include "align/exec_context.hpp"
#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "core/error.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/database.hpp"

namespace swve::align {

class ShardedSearch;    // align/sharded_search.hpp
struct ShardOptions;

struct Hit {
  uint32_t seq_index = 0;  ///< index into the database
  int score = 0;
  int end_query = -1;
  int end_ref = -1;

  /// Ordering for top-k: higher score first, then lower index (stable and
  /// thread-count independent).
  friend bool operator<(const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.seq_index < b.seq_index;
  }
};

struct SearchResult {
  std::vector<Hit> hits;  ///< top-k, best first
  core::KernelStats stats;
  /// Batch-path accounting (zero for the diagonal path): 8-bit kernel cells
  /// split into useful vs padding, and the rescore ladder's work. The ratio
  /// useful_cells8 / cells8 is the packing efficiency of this search.
  core::BatchSearchStats batch_stats;
  double seconds = 0;
  uint64_t query_length = 0;
  uint64_t db_residues = 0;
  /// True when the engine stopped early (cancellation or deadline); hits
  /// then cover only the sequences scanned before the stop and must not be
  /// treated as a complete answer.
  bool truncated = false;
  double gcups() const {
    return seconds > 0
               ? static_cast<double>(query_length) *
                     static_cast<double>(db_residues) / seconds / 1e9
               : 0.0;
  }
};

/// How DatabaseSearch scores the database.
enum class SearchMode {
  /// Stream every sequence through the intra-sequence diagonal kernel
  /// (adaptive width). Hits carry exact end positions.
  Diagonal,
  /// Score through the inter-sequence batch32 kernel (the database is
  /// packed once at construction), then re-align only the top-k hits with
  /// the diagonal kernel for end positions. Fastest for scoring whole
  /// databases; identical hits and scores.
  Batch,
};

namespace engine {

/// Bounded top-k selection. Hit's order is strict and total (seq_index is
/// unique), so the k survivors are one set whatever order hits are offered
/// in: per-worker heaps merge into exactly the answer of a serial scan.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}
  void offer(const Hit& h);
  std::vector<Hit> sorted() &&;

 private:
  size_t k_;
  std::vector<Hit> hits_;  // max-heap on operator<: worst hit at the front
};

/// What one worker slot of a batch fan-out produced.
struct ScanSlot {
  std::vector<Hit> hits;  ///< the slot's top-k, best first
  core::BatchSearchStats stats;
  uint64_t batches = 0;   ///< batches scanned
  bool truncated = false;  ///< stopped by cancellation/deadline
};

/// The batch scan engine: everything the slots of a batch fan-out share.
/// Slots claim positions of a costliest-first batch order
/// (core::Batch32Db::cost_order, or a shard's slice of it) from a
/// parallel::WorkCursor, one batch per claim, so the longest batches go
/// first and every slot finishes within about one batch of the others.
/// `cfg` must pass core::check_batch_scan; `prep`, where taken, is the
/// query's PreparedQuery or null.
struct BatchScan {
  const seq::SequenceDatabase& db;
  const core::Batch32Db& bdb;
  const core::AlignConfig& cfg;
  const ExecContext& ctx;
  size_t top_k;
  simd::Isa isa = simd::resolve_isa(cfg.isa);

  /// Labels `span` with the batch kernel (ISA, width, lanes).
  void label(obs::Span& span) const;
  /// Body of one slot of a one-query fan-out: claims positions of `order`
  /// until none is left or ctx stops, scoring each batch with
  /// core::scan_batches into the slot's bounded heap. Labels `span` and
  /// adds the slot's cells to it.
  void run_slot(seq::SeqView query, const core::PreparedQuery* prep,
                std::span<const uint32_t> order, parallel::WorkCursor& cursor,
                core::Workspace& ws, ScanSlot& out, obs::Span& span) const;
  /// Phase 2, after every slot has run: merge the slots' heaps, then
  /// re-align only the winners exactly for end positions. A truncated scan
  /// returns no hits. Fills everything in `out` but `seconds`.
  void finish(seq::SeqView query, const core::PreparedQuery* prep,
              std::span<const ScanSlot> slots, SearchResult& out) const;
};

/// Stateless scenario-1 engine, diagonal-kernel path. `cfg` must already be
/// validated with traceback off. Deterministic for any pool size; honors
/// ctx cancellation/deadline at per-sequence granularity.
SearchResult search_diagonal(const seq::SequenceDatabase& db,
                             const core::AlignConfig& cfg, seq::SeqView query,
                             size_t top_k, const ExecContext& ctx);

/// Stateless scenario-1 engine, batch32-kernel path: one BatchScan over
/// ctx.pool (serial without one). `bdb` is the database packed for the
/// batch kernel (see core::Batch32Db); cancellation/deadline is honored at
/// per-batch granularity.
SearchResult search_batch(const seq::SequenceDatabase& db,
                          const core::Batch32Db& bdb,
                          const core::AlignConfig& cfg, seq::SeqView query,
                          size_t top_k, const ExecContext& ctx);

}  // namespace engine

/// Synchronous facade over the engines (owns the packed database in Batch
/// mode). service::AlignService is the asynchronous, instrumented front
/// door over the same engines.
class DatabaseSearch {
 public:
  /// `packing` selects how Batch mode packs the database (ignored in
  /// Diagonal mode); every policy returns identical hits and scores — see
  /// core::PackingPolicy.
  DatabaseSearch(const seq::SequenceDatabase& db, AlignConfig cfg,
                 SearchMode mode = SearchMode::Diagonal,
                 core::PackingPolicy packing = core::PackingPolicy::LengthSorted);

  /// Batch-mode facade over an externally-owned packed database (the
  /// mmap'd-artifact path: a core::MappedDb's batch_db()). Nothing is
  /// packed or copied here; `db` and `packed` must describe the same
  /// database and outlive the facade. Results are bit-identical to the
  /// owning constructor with the same lanes/policy.
  DatabaseSearch(const seq::SequenceDatabase& db,
                 const core::Batch32Db& packed, AlignConfig cfg);

  ~DatabaseSearch();  // out of line: ShardedSearch is incomplete here
  DatabaseSearch(DatabaseSearch&&) noexcept;
  DatabaseSearch& operator=(DatabaseSearch&&) noexcept;

  /// Search with `pool` (or single-threaded when null). Results are
  /// identical for every thread count and for both search modes.
  SearchResult search(seq::SeqView query, size_t top_k,
                      parallel::ThreadPool* pool = nullptr) const;

  /// Search with an explicit execution context (pool + cancel + deadline).
  SearchResult search(seq::SeqView query, size_t top_k,
                      const ExecContext& ctx) const;

  SearchMode mode() const noexcept { return mode_; }
  /// Batch mode's packed database (null in Diagonal mode); exposes packing
  /// efficiency and policy for metrics/benchmarks. Owned or external,
  /// depending on the constructor used.
  const core::Batch32Db* packed_db() const noexcept { return packed_; }

  /// Shard Batch mode across NUMA nodes (align::ShardedSearch): subsequent
  /// search() calls fan out over per-node pinned pools and merge bounded
  /// per-shard top-k heaps — bit-identical results, local memory traffic.
  /// Fails (ConfigError) in Diagonal mode or when opt.shards exceeds the
  /// packed batch count; the facade stays unsharded on failure.
  core::ErrorOr<void> enable_sharding(const ShardOptions& opt);
  /// Non-null after a successful enable_sharding (per-shard stats access).
  const ShardedSearch* sharded() const noexcept { return sharded_.get(); }

 private:
  const seq::SequenceDatabase* db_;
  AlignConfig cfg_;
  SearchMode mode_;
  std::unique_ptr<core::Batch32Db> bdb_;          // owning Batch mode only
  const core::Batch32Db* packed_ = nullptr;       // Batch mode (either ctor)
  std::unique_ptr<ShardedSearch> sharded_;        // Batch mode, opt-in
};

}  // namespace swve::align
