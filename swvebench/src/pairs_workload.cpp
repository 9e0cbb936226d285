// `pairs` (scenario 3, SW as a subroutine): one caller thread reuses one
// core::Workspace to call core::diag_align on seeded pairs. Lengths are
// log-uniform over [32, 1024], so both ragged scalar tails and full-width
// vectors run; a third of the pairs are homologous (the 8 -> 16 -> 32 width
// ladder reruns on a known share) and half of them ask for a traceback.
//
// Traced phases wrap each call in a core.diag (traceback off) or
// core.traceback (traceback on) span; a traceback call's fill pass is
// replayed with traceback off as its core.diag child.
#include <cmath>
#include <random>

#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "core/workspace.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"
#include "workloads.hpp"

namespace swvebench {

namespace {

using namespace swve;

constexpr size_t kPairs = 3000;
constexpr double kMinLen = 32, kMaxLen = 1024;

struct Pair {
  seq::Sequence q, r;
  bool traceback = false;
  bool homolog = false;
};

std::vector<Pair> make_pairs(uint64_t seed) {
  std::mt19937_64 rng(seed * 31 + 11);
  std::uniform_real_distribution<double> loglen(std::log(kMinLen), std::log(kMaxLen));
  auto length = [&] { return static_cast<uint32_t>(std::exp(loglen(rng))); };
  // Exact shares, seeded placement: a third homologous, half traced.
  std::vector<uint8_t> homolog(kPairs, 0), traced(kPairs, 0);
  for (size_t i = 0; i < kPairs / 3; ++i) homolog[i] = 1;
  for (size_t i = 0; i < kPairs / 2; ++i) traced[i] = 1;
  std::shuffle(homolog.begin(), homolog.end(), rng);
  std::shuffle(traced.begin(), traced.end(), rng);
  std::vector<Pair> pairs(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    Pair& p = pairs[i];
    p.q = seq::generate_sequence(rng(), length());
    p.homolog = homolog[i];
    p.r = p.homolog ? seq::mutate(p.q, rng(), 0.15)
                    : seq::generate_sequence(rng(), length());
    p.traceback = traced[i];
  }
  return pairs;
}

bool same_alignment(const core::Alignment& a, const core::Alignment& b,
                    bool traceback) {
  if (a.score != b.score || a.end_query != b.end_query || a.end_ref != b.end_ref)
    return false;
  if (!traceback) return true;
  return a.begin_query == b.begin_query && a.begin_ref == b.begin_ref &&
         a.cigar == b.cigar;
}

}  // namespace

bool run_pairs(const Options& opt, RawResult& out) {
  const std::vector<Pair> pairs = make_pairs(opt.seed);
  std::mt19937_64 rng(opt.seed * 7 + 9);
  core::AlignConfig off, on;
  on.traceback = true;
  size_t largest = 0;
  for (size_t i = 1; i < pairs.size(); ++i)
    if (pairs[i].q.length() * pairs[i].r.length() >
        pairs[largest].q.length() * pairs[largest].r.length())
      largest = i;

  const int64_t t_setup = now_ns();
  core::Workspace ws;
  core::diag_align(pairs[largest].q, pairs[largest].r, on, ws);
  for (const Pair& p : pairs) core::diag_align(p.q, p.r, p.traceback ? on : off, ws);
  out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  Tracer tracer;
  std::vector<core::Alignment> first(pairs.size());
  std::vector<bool> seen(pairs.size(), false);
  std::vector<size_t> order(pairs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  uint64_t rid = 0;

  for (int traced = 0; traced <= (opt.trace ? 1 : 0); ++traced) {
    Phase ph;
    ph.traced = traced;
    tracer.enable(traced);
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    uint64_t cells[2] = {0, 0};  // per class: traceback off, on
    int64_t ns[2] = {0, 0};
    ph.latency_ms.reserve(1 << 20);
    const int64_t t0 = now_ns();
    while (static_cast<double>(now_ns() - t0) * 1e-9 < budget) {
      std::shuffle(order.begin(), order.end(), rng);
      for (size_t i : order) {
        const Pair& p = pairs[i];
        ++rid;
        const int64_t a = now_ns();
        const uint32_t sp =
            tracer.open(p.traceback ? "core.traceback" : "core.diag", 0, rid);
        core::Alignment got = core::diag_align(p.q, p.r, p.traceback ? on : off, ws);
        tracer.close(sp);
        const int64_t took = now_ns() - a;
        ph.latency_ms.push_back(static_cast<double>(took) * 1e-6);
        ++ph.ops;
        ph.useful_cells += p.q.length() * p.r.length();
        cells[p.traceback] += p.q.length() * p.r.length();
        ns[p.traceback] += took;
        if (!seen[i]) {
          first[i] = std::move(got);
          seen[i] = true;
        } else {
          if (!same_alignment(got, first[i], p.traceback) ||
              got.stats.scalar_cells != first[i].stats.scalar_cells ||
              got.saturated_8 != first[i].saturated_8 ||
              got.saturated_16 != first[i].saturated_16) {
            ++out.mismatches;
            out.mismatch_notes.push_back(fmt("pair %zu: result differs between calls", i));
          }
        }
        ++out.checked;
        if (traced && p.traceback) {
          const uint32_t child = tracer.open("core.diag", sp, rid, true);
          core::diag_align(p.q, p.r, off, ws);
          tracer.close(child);
        }
      }
    }
    ph.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    Json extra;
    extra.integer("off_cells", cells[0]).num("off_s", static_cast<double>(ns[0]) * 1e-9)
        .integer("on_cells", cells[1]).num("on_s", static_cast<double>(ns[1]) * 1e-9);
    ph.extra = extra.done();
    out.phases.push_back(std::move(ph));
  }

  out.peak_rss_mb = peak_rss_mb();

  // Exact counts over one pass of the pair set, and the per-class cells
  // behind core.diag.gcups / core.traceback.gcups.
  uint64_t cells = 0, scalar_cells = 0, retries = 0, retried = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!seen[i]) continue;
    const core::Alignment& a = first[i];
    cells += a.stats.cells;
    scalar_cells += a.stats.scalar_cells;
    retries += (a.saturated_8 ? 1u : 0u) + (a.saturated_16 ? 1u : 0u);
    retried += a.saturated_8 ? 1u : 0u;
  }
  Json counts;
  counts.integer("cells", cells)
      .integer("scalar_cells", scalar_cells)
      .integer("width_retries", retries)
      .integer("retried_pairs", retried)
      .integer("pairs", pairs.size());
  out.counts = counts.done();

  // Golden model: each distinct pair's first answer against ref_align
  // (every later call was compared with that first answer above).
  parallel::ThreadPool pool(simd::cpu_features().hardware_threads);
  std::vector<uint8_t> bad(pairs.size(), 0);
  pool.parallel_chunks(pairs.size(), [&](size_t i, unsigned) {
    if (!seen[i]) return;
    const Pair& p = pairs[i];
    const core::Alignment ref = core::ref_align(p.q, p.r, p.traceback ? on : off);
    bad[i] = !same_alignment(first[i], ref, p.traceback);
  });
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!seen[i]) continue;
    ++out.checked;
    if (bad[i]) {
      ++out.mismatches;
      out.mismatch_notes.push_back(fmt("pair %zu: differs from ref_align", i));
    }
  }
  if (opt.trace && !tracer.write(opt.spans_out)) return false;
  return true;
}

}  // namespace swvebench
