// `search` (scenario 1) and `batch` (scenario 2): the paper's query ladder
// against a Swiss-Prot-shaped database, in one closed loop.
//
// search: each query goes to align::DatabaseSearch in Batch mode; the pool
//         splits the database across threads.
// batch:  groups of nproc queries, each mixing the ladder's length strata,
//         go to align::BatchServer::run; the pool splits the queries, each
//         thread scans the whole database.
//
// Traced phases wrap every public call in a span and replay its kernel
// children (batch32 kernel, rescore ladder, phase-2 re-alignment) as
// separate calls on the same inputs, so align.* self time is what the
// public call adds around them.
#include <algorithm>
#include <random>

#include "align/batch_server.hpp"
#include "align/db_search.hpp"
#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/cpu.hpp"
#include "workloads.hpp"

namespace swvebench {

namespace {

using namespace swve;

constexpr uint64_t kDbResidues = 2'000'000;
constexpr int kLadder = 20;
constexpr uint32_t kMinQuery = 64;
constexpr uint32_t kMaxQuery = 2048;
constexpr size_t kTopK = 10;
constexpr int kFullScanChecks = 2;

bool same_hits(const std::vector<align::Hit>& a,
               const std::vector<align::Hit>& b, bool ends) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq_index != b[i].seq_index || a[i].score != b[i].score)
      return false;
    if (ends && (a[i].end_query != b[i].end_query || a[i].end_ref != b[i].end_ref))
      return false;
  }
  return true;
}

bool same_stats(const core::BatchSearchStats& a, const core::BatchSearchStats& b) {
  return a.cells8 == b.cells8 && a.useful_cells8 == b.useful_cells8 &&
         a.rescored == b.rescored && a.rescored_cells == b.rescored_cells;
}

/// Exact counts over one pass of the ladder; `lanes` = sequences scored.
std::string counts_json(const core::BatchSearchStats& s, uint64_t lanes) {
  Json j;
  j.integer("lanes", lanes)
      .integer("cells8", s.cells8)
      .integer("useful_cells8", s.useful_cells8)
      .integer("rescored", s.rescored)
      .integer("rescored_cells", s.rescored_cells);
  return j.done();
}

/// State shared by both scan workloads.
struct ScanInputs {
  seq::SequenceDatabase db;
  std::vector<seq::Sequence> ladder;
  core::AlignConfig cfg;
};

ScanInputs make_inputs(uint64_t seed) {
  ScanInputs in;
  in.db = make_database(kDbResidues);
  in.ladder = make_ladder(in.db, seed + 1, kLadder, kMinQuery, kMaxQuery);
  return in;
}

/// The replay does the work of the call it stands for: the same padded
/// cells, the same saturated lanes and the same rescored cells.
bool same_work(const core::BatchSearchStats& replay, const core::BatchSearchStats& call) {
  return replay.cells8 == call.cells8 && replay.rescored == call.rescored &&
         replay.rescored_cells == call.rescored_cells;
}

/// Per-worker replay of the batch kernel family, with the engines' own
/// grouping (resolved interleave depth) and rescore ladder. The engines
/// build no PreparedQuery here (DatabaseSearch::search and BatchServer::run
/// pass no query cache), so neither does the replay. Each replay returns
/// its work counts, which the caller compares with the call's own
/// batch_stats: if the engine's score loop changes, the replay no longer
/// stands for it and the run fails instead of reporting stale layers.
class KernelReplay {
 public:
  KernelReplay(const ScanInputs& in, const core::Batch32Db& bdb,
               parallel::ThreadPool& pool)
      : in_(in), bdb_(bdb), pool_(pool), ws_(pool.size()),
        isa_(simd::resolve_isa(in.cfg.isa)), k_(core::resolved_ilp(isa_)) {}

  /// 8-bit kernel over batches [b0, b1); appends saturated lanes' database
  /// indices and returns padded cells.
  uint64_t kernel(seq::SeqView q, size_t b0, size_t b1, unsigned w,
                  std::vector<uint32_t>& saturated) {
    uint64_t cells = 0;
    for (size_t b = b0; b < b1;) {
      const int group = static_cast<int>(std::min<size_t>(static_cast<size_t>(k_), b1 - b));
      core::Batch32Db::Batch batch[core::kMaxBatchInterleave];
      core::BatchCols cols[core::kMaxBatchInterleave];
      core::Batch8Result r8[core::kMaxBatchInterleave];
      for (int g = 0; g < group; ++g) {
        batch[g] = bdb_.batch(b + static_cast<size_t>(g));
        cols[g] = core::BatchCols{batch[g].columns, batch[g].max_len};
      }
      core::batch32_align_u8_group(q, cols, group, bdb_.lanes(), in_.cfg, ws_[w],
                                   isa_, k_, r8);
      for (int g = 0; g < group; ++g) {
        cells += static_cast<uint64_t>(batch[g].max_len) * q.length *
                 static_cast<uint64_t>(bdb_.lanes());
        for (uint32_t k = 0; k < batch[g].count; ++k)
          if (r8[g].saturated_mask & (uint64_t{1} << k))
            saturated.push_back(batch[g].seq_index[k]);
      }
      b += static_cast<size_t>(group);
    }
    return cells;
  }

  /// The 16 -> 32-bit ladder on saturated lanes; returns the cells of
  /// each lane's final alignment, as the engine counts rescored_cells.
  uint64_t rescore(seq::SeqView q, const std::vector<uint32_t>& idx, size_t i0,
                   size_t i1, unsigned w) {
    core::AlignConfig wide = in_.cfg;
    wide.width = core::Width::W16;
    uint64_t cells = 0;
    for (size_t i = i0; i < i1; ++i) {
      core::Alignment a = core::diag_align(q, in_.db[idx[i]], wide, ws_[w]);
      if (a.saturated) {
        core::AlignConfig w32 = wide;
        w32.width = core::Width::W32;
        a = core::diag_align(q, in_.db[idx[i]], w32, ws_[w]);
      }
      cells += a.stats.cells;
    }
    return cells;
  }

  /// search: batches split across the pool, then saturated lanes.
  core::BatchSearchStats database_split(seq::SeqView q, Tracer& tr, uint32_t parent,
                                        uint64_t rid, double& kernel_s) {
    std::vector<std::vector<uint32_t>> sat(pool_.size());
    std::vector<uint64_t> cells(pool_.size(), 0), wide(pool_.size(), 0);
    const int64_t t0 = now_ns();
    pool_.parallel_for(bdb_.batch_count(), [&](size_t b, size_t e, unsigned w) {
      cells[w] += kernel(q, b, e, w, sat[w]);
    });
    const int64_t t1 = now_ns();
    std::vector<uint32_t> all;
    for (auto& s : sat) all.insert(all.end(), s.begin(), s.end());
    pool_.parallel_for(all.size(), [&](size_t b, size_t e, unsigned w) {
      wide[w] += rescore(q, all, b, e, w);
    });
    const int64_t t2 = now_ns();
    tr.add("core.batch32", parent, rid, t0, t1, true);
    tr.add("core.rescore", parent, rid, t1, t2, true);
    kernel_s += static_cast<double>(t1 - t0) * 1e-9;
    core::BatchSearchStats s{};
    for (uint64_t c : cells) s.cells8 += c;
    for (uint64_t c : wide) s.rescored_cells += c;
    s.rescored = all.size();
    return s;
  }

  /// batch: queries split across the pool, each scanning every batch.
  /// Returns each query's work counts.
  std::vector<core::BatchSearchStats> query_split(
      const std::vector<const seq::Sequence*>& qs, Tracer& tr, uint32_t parent,
      uint64_t rid, double& kernel_s) {
    std::vector<std::vector<uint32_t>> sat(qs.size());
    std::vector<core::BatchSearchStats> s(qs.size());
    const int64_t t0 = now_ns();
    pool_.parallel_chunks(qs.size(), [&](size_t i, unsigned w) {
      s[i].cells8 = kernel(*qs[i], 0, bdb_.batch_count(), w, sat[i]);
      s[i].rescored = sat[i].size();
    });
    const int64_t t1 = now_ns();
    pool_.parallel_chunks(qs.size(), [&](size_t i, unsigned w) {
      s[i].rescored_cells = rescore(*qs[i], sat[i], 0, sat[i].size(), w);
    });
    const int64_t t2 = now_ns();
    tr.add("core.batch32", parent, rid, t0, t1, true);
    tr.add("core.rescore", parent, rid, t1, t2, true);
    kernel_s += static_cast<double>(t1 - t0) * 1e-9;
    return s;
  }

  /// Phase-2 re-alignment of the top-k, as the search engine runs it.
  void realign(seq::SeqView q, const std::vector<align::Hit>& hits, Tracer& tr,
               uint32_t parent, uint64_t rid) {
    const int64_t t0 = now_ns();
    for (const align::Hit& h : hits)
      core::diag_align(q, in_.db[h.seq_index], in_.cfg, ws_[0]);
    tr.add("core.realign", parent, rid, t0, now_ns(), true);
  }

 private:
  const ScanInputs& in_;
  const core::Batch32Db& bdb_;
  parallel::ThreadPool& pool_;
  std::vector<core::Workspace> ws_;
  simd::Isa isa_;
  int k_;
};

/// Golden check of one query's hits: every hit's score and end cell are
/// recomputed with the scalar reference. Returns the number of mismatches.
uint64_t check_hits_scalar(const ScanInputs& in, parallel::ThreadPool& pool,
                           const std::vector<std::vector<align::Hit>>& hits,
                           uint64_t& checked, std::vector<std::string>& notes) {
  std::vector<std::pair<size_t, size_t>> work;
  for (size_t q = 0; q < hits.size(); ++q)
    for (size_t h = 0; h < hits[q].size(); ++h) work.emplace_back(q, h);
  std::vector<uint8_t> bad(work.size(), 0);
  pool.parallel_chunks(work.size(), [&](size_t i, unsigned) {
    const auto [q, h] = work[i];
    const align::Hit& hit = hits[q][h];
    const core::Alignment ref =
        core::ref_align(in.ladder[q], in.db[hit.seq_index], in.cfg);
    bad[i] = ref.score != hit.score || ref.end_query != hit.end_query ||
             ref.end_ref != hit.end_ref;
  });
  uint64_t n = 0;
  for (size_t i = 0; i < work.size(); ++i) {
    ++checked;
    if (bad[i]) {
      ++n;
      notes.push_back(fmt("query %zu hit %zu: score/end differs from scalar_ref",
                          work[i].first, work[i].second));
    }
  }
  return n;
}

/// Golden check of a full top-k: scalar scan of the whole database.
bool check_topk_scan(const ScanInputs& in, parallel::ThreadPool& pool,
                     size_t q, const std::vector<align::Hit>& hits) {
  std::vector<int> scores(in.db.size(), 0);
  pool.parallel_chunks((in.db.size() + 63) / 64, [&](size_t c, unsigned) {
    const size_t end = std::min(in.db.size(), (c + 1) * 64);
    for (size_t s = c * 64; s < end; ++s)
      scores[s] = core::ref_align(in.ladder[q], in.db[s], in.cfg).score;
  });
  std::vector<align::Hit> top;
  for (size_t s = 0; s < scores.size(); ++s)
    if (scores[s] > 0) top.push_back(align::Hit{static_cast<uint32_t>(s), scores[s], -1, -1});
  std::sort(top.begin(), top.end());
  if (top.size() > kTopK) top.resize(kTopK);
  return same_hits(top, hits, false);
}

/// A fresh seeded permutation of the ladder for each cycle.
std::vector<size_t> cycle_order(std::mt19937_64& rng) {
  std::vector<size_t> order(kLadder);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// One cycle of the ladder in groups of `group` queries. Each group takes
/// one rung from each of `group` length strata, in seeded order, so every
/// batch call mixes short and long queries alike and the per-call latency
/// does not hang on which rungs happen to share a group.
std::vector<std::vector<size_t>> balanced_groups(std::mt19937_64& rng, size_t group) {
  std::vector<std::vector<size_t>> strata(group);
  for (size_t r = 0; r < kLadder; ++r) strata[r * group / kLadder].push_back(r);
  size_t rounds = 0;
  for (auto& s : strata) {
    std::shuffle(s.begin(), s.end(), rng);
    rounds = std::max(rounds, s.size());
  }
  std::vector<std::vector<size_t>> groups(rounds);
  for (size_t j = 0; j < rounds; ++j) {
    for (const auto& s : strata)
      if (j < s.size()) groups[j].push_back(s[j]);
    std::shuffle(groups[j].begin(), groups[j].end(), rng);
  }
  return groups;
}

}  // namespace

bool run_search(const Options& opt, RawResult& out) {
  ScanInputs in = make_inputs(opt.seed);
  std::mt19937_64 rng(opt.seed * 7 + 3);

  const int64_t t_setup = now_ns();
  parallel::ThreadPool pool(simd::cpu_features().hardware_threads);
  align::DatabaseSearch search(in.db, in.cfg, align::SearchMode::Batch);
  search.search(in.ladder.front(), kTopK, &pool);  // warm-up: lazy calibration
  search.search(in.ladder.back(), kTopK, &pool);   // and the widest workspace
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  Tracer tracer;
  KernelReplay replay(in, *search.packed_db(), pool);
  std::vector<align::SearchResult> first(kLadder);
  std::vector<bool> seen(kLadder, false);
  std::vector<std::string>& notes = out.mismatch_notes;
  uint64_t rid = 0;

  for (int traced = 0; traced <= (opt.trace ? 1 : 0); ++traced) {
    Phase ph;
    ph.traced = traced;
    tracer.enable(traced);
    ph.pool_threads = pool.size();
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    uint64_t cells8 = 0;
    double kernel_s = 0;
    const double busy0 = pool.stats().busy_seconds;
    const int64_t t0 = now_ns();
    // Whole ladder cycles only, so every rung weighs the same in the
    // percentiles whatever the machine's speed.
    while (static_cast<double>(now_ns() - t0) * 1e-9 < budget) {
      for (size_t qi : cycle_order(rng)) {
        const seq::Sequence& q = in.ladder[qi];
        ++rid;
        const int64_t a = now_ns();
        const uint32_t sp = tracer.open("align.search", 0, rid);
        align::SearchResult r = search.search(q, kTopK, &pool);
        tracer.close(sp);
        ph.latency_ms.push_back(static_cast<double>(now_ns() - a) * 1e-6);
        ++ph.ops;
        ph.useful_cells += q.length() * in.db.total_residues();
        if (r.truncated) ++ph.failed;
        if (!seen[qi]) {
          first[qi] = r;
          seen[qi] = true;
        } else if (!same_hits(r.hits, first[qi].hits, true) ||
                   !same_stats(r.batch_stats, first[qi].batch_stats)) {
          ++out.mismatches;
          notes.push_back(fmt("query %zu: hits or counts differ between calls", qi));
        }
        ++out.checked;
        if (traced) {
          const core::BatchSearchStats did =
              replay.database_split(q, tracer, sp, rid, kernel_s);
          cells8 += did.cells8;
          ++out.checked;
          if (!same_work(did, r.batch_stats)) {
            ++out.mismatches;
            notes.push_back(fmt("query %zu: kernel replay's work differs from the call's", qi));
          }
          replay.realign(q, r.hits, tracer, sp, rid);
        }
      }
    }
    ph.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    ph.pool_busy_s = pool.stats().busy_seconds - busy0;
    Json extra;
    extra.num("replay_kernel_s", kernel_s)
        .integer("replay_cells8", cells8);
    ph.extra = extra.done();
    out.phases.push_back(std::move(ph));
  }

  out.peak_rss_mb = peak_rss_mb();

  // Exact counts over one pass of the ladder: repeat exactly per seed.
  core::BatchSearchStats pass{};
  for (const auto& r : first) pass += r.batch_stats;
  out.counts = counts_json(pass, in.db.size() * kLadder);

  // Golden model, outside the timed phases.
  std::vector<std::vector<align::Hit>> hits(kLadder);
  for (size_t q = 0; q < hits.size(); ++q) hits[q] = first[q].hits;
  out.mismatches += check_hits_scalar(in, pool, hits, out.checked, notes);
  std::vector<size_t> by_len(kLadder);
  for (size_t i = 0; i < by_len.size(); ++i) by_len[i] = i;  // ladder ascends
  std::shuffle(by_len.begin(), by_len.begin() + 6, rng);
  for (int i = 0; i < kFullScanChecks; ++i) {
    const size_t q = by_len[static_cast<size_t>(i)];
    ++out.checked;
    if (!check_topk_scan(in, pool, q, first[q].hits)) {
      ++out.mismatches;
      notes.push_back(fmt("query %zu: top-k differs from a scalar scan", q));
    }
  }
  if (opt.trace && !tracer.write(opt.spans_out)) return false;
  return true;
}

bool run_batch(const Options& opt, RawResult& out) {
  ScanInputs in = make_inputs(opt.seed);
  std::mt19937_64 rng(opt.seed * 7 + 5);
  const unsigned nproc = simd::cpu_features().hardware_threads;
  const size_t group = std::max(1u, nproc);

  const int64_t t_setup = now_ns();
  parallel::ThreadPool pool(nproc);
  align::BatchServer server(in.db, in.cfg);
  server.run({in.ladder.front(), in.ladder.back()}, kTopK, &pool);  // warm-up
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  Tracer tracer;
  KernelReplay replay(in, server.packed_db(), pool);
  std::vector<align::BatchQueryResult> first(kLadder);
  std::vector<bool> seen(kLadder, false);
  std::vector<std::string>& notes = out.mismatch_notes;
  uint64_t rid = 0;

  for (int traced = 0; traced <= (opt.trace ? 1 : 0); ++traced) {
    Phase ph;
    ph.traced = traced;
    tracer.enable(traced);
    ph.pool_threads = pool.size();
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    uint64_t cells8 = 0;
    double kernel_s = 0;
    const double busy0 = pool.stats().busy_seconds;
    const int64_t t0 = now_ns();
    while (static_cast<double>(now_ns() - t0) * 1e-9 < budget) {
      for (const std::vector<size_t>& ids : balanced_groups(rng, group)) {
        std::vector<seq::Sequence> qs;
        std::vector<const seq::Sequence*> qp;
        for (size_t i : ids) {
          qs.push_back(in.ladder[i]);
          qp.push_back(&in.ladder[i]);
        }
        ++rid;
        const int64_t a = now_ns();
        const uint32_t sp = tracer.open("align.batch", 0, rid);
        std::vector<align::BatchQueryResult> res = server.run(qs, kTopK, &pool);
        tracer.close(sp);
        ph.latency_ms.push_back(static_cast<double>(now_ns() - a) * 1e-6);
        ++ph.ops;
        for (size_t k = 0; k < ids.size(); ++k) {
          const size_t qi = ids[k];
          ph.useful_cells += qs[k].length() * in.db.total_residues();
          if (res[k].result.truncated) ++ph.failed;
          if (!seen[qi]) {
            first[qi] = res[k];
            seen[qi] = true;
          } else if (!same_hits(res[k].result.hits, first[qi].result.hits, true) ||
                     !same_stats(res[k].batch_stats, first[qi].batch_stats)) {
            ++out.mismatches;
            notes.push_back(fmt("query %zu: batch hits or counts differ between calls", qi));
          }
          ++out.checked;
        }
        if (traced) {
          const std::vector<core::BatchSearchStats> did =
              replay.query_split(qp, tracer, sp, rid, kernel_s);
          for (size_t k = 0; k < ids.size(); ++k) {
            cells8 += did[k].cells8;
            ++out.checked;
            if (!same_work(did[k], res[k].batch_stats)) {
              ++out.mismatches;
              notes.push_back(fmt("query %zu: kernel replay's work differs from the call's",
                                  ids[k]));
            }
          }
        }
      }
    }
    ph.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    ph.pool_busy_s = pool.stats().busy_seconds - busy0;
    Json extra;
    extra.num("replay_kernel_s", kernel_s)
        .integer("replay_cells8", cells8);
    ph.extra = extra.done();
    out.phases.push_back(std::move(ph));
  }

  out.peak_rss_mb = peak_rss_mb();
  core::BatchSearchStats pass{};
  for (const auto& r : first) pass += r.batch_stats;
  out.counts = counts_json(pass, in.db.size() * kLadder);

  // Golden model: batch answers equal DatabaseSearch's, hit for hit, and
  // those hits' scores and end cells equal the scalar reference's.
  align::DatabaseSearch search(in.db, in.cfg, align::SearchMode::Batch);
  std::vector<std::vector<align::Hit>> hits(kLadder);
  for (size_t q = 0; q < hits.size(); ++q) {
    hits[q] = search.search(in.ladder[q], kTopK, &pool).hits;
    ++out.checked;
    if (!same_hits(hits[q], first[q].result.hits, false)) {
      ++out.mismatches;
      notes.push_back(fmt("query %zu: batch hits differ from search", q));
    }
  }
  out.mismatches += check_hits_scalar(in, pool, hits, out.checked, notes);
  if (opt.trace && !tracer.write(opt.spans_out)) return false;
  return true;
}

}  // namespace swvebench
