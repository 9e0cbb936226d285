// Template body of the inter-sequence batch kernel (see batch32.hpp): one
// body for every batch engine — emulated (any CPU, 32 or 64 lanes), AVX2
// (32 lanes, double-pshufb row lookup) and AVX-512-VBMI (64 lanes, vpermb
// row lookup).
//
// Column strips. One pass walks BE::strip database columns (C) down every
// query row. The strip's E, diagonal-H and score-index vectors stay in
// registers: the H/F state of query row i is loaded and stored once per
// strip, not once per cell, and the gap-open term of cell (i, c) is also
// the F-open term of cell (i, c + 1). Cell (i, c) needs only (i, c - 1),
// (i - 1, c) and (i - 1, c - 1), so a strip is a wavefront with C chains in
// flight — the instruction-level parallelism the old fused K-batch loop
// bought with more batches. C is a per-engine constant set by measurement
// (docs/performance.md "Column strips"); results never depend on it.
//
// Signed offset domain. H, E and F are int8 values offset by -128: byte
// -128 is score 0 and byte 127 is score 255. Signed saturating adds then
// floors at score 0 by itself, so H = max(adds(Hdiag, s), E, F) needs no
// bias add/subtract pair, and scores come straight from a signed 32-entry
// row (ScoreMatrix::rows_s8). The 8-bit saturation limit is the one of the
// unsigned domain, so saturated lanes are the same (docs/kernel.md
// "Arithmetic domains").
//
// Batch engine concept:
//   vec, lanes, strip            — byte vector, lanes per vector, C
//   set1/load/store              — byte vectors
//   adds/subs/max                — signed saturating (epi8 semantics)
//   col_t prep_col(sym)          — per-column lookup index, built per strip
//   row_t load_row(row32)        — a query residue's 32 signed scores
//   lookup(row, col)             — per lane: row32[sym]
//   prefetch(p)                  — hint a future column block into cache
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "core/batch32.hpp"
#include "core/params.hpp"
#include "core/workspace.hpp"

namespace swve::core {

/// Per-call constants of the batch kernel.
template <class BE>
struct BatchKernelSetup {
  using vec = typename BE::vec;
  vec vopen, vext;  // gap penalties, clamped to a signed byte
  const int8_t* rows = nullptr;  // signed score rows, one per query residue
  int sat_limit = 0;             // lanes whose max reaches this re-score
  // Fixed scheme's score rows (match on the diagonal), built per call.
  alignas(64) std::array<int8_t, seq::kMatrixStride * seq::kMatrixStride>
      fixed_rows{};

  explicit BatchKernelSetup(const AlignConfig& cfg) {
    const bool affine = cfg.gap_model == GapModel::Affine;
    const int open = affine ? cfg.gap_open : cfg.gap_extend;
    auto clamp_s8 = [](int v) { return std::clamp(v, -128, 127); };
    vopen = BE::set1(clamp_s8(open));
    vext = BE::set1(clamp_s8(cfg.gap_extend));
    // Exact while every H stays below the limit: H + s then never reaches
    // the ceiling (score 255), and a substitution score clamped to 127
    // lifts its cell to >= 127 >= the limit. A penalty clamped to 127 is
    // exact while H <= 127, so capping the limit at 128 sends any lane
    // that could read the clamp up the width ladder.
    sat_limit = 255 - cfg.bias() - cfg.max_subst_score();
    if (open > 127 || cfg.gap_extend > 127) sat_limit = std::min(sat_limit, 128);
    if (cfg.scheme == ScoreScheme::Matrix) {
      rows = cfg.matrix->rows_s8();
    } else {
      const int8_t match = static_cast<int8_t>(clamp_s8(cfg.match));
      fixed_rows.fill(static_cast<int8_t>(clamp_s8(cfg.mismatch)));
      for (int a = 0; a < seq::kMatrixStride; ++a)
        fixed_rows[static_cast<size_t>(a) * (seq::kMatrixStride + 1)] = match;
      rows = fixed_rows.data();
    }
  }
};

namespace detail {

/// One strip pass: the N columns at `cols` down every query row, continuing
/// from the per-row state (H of the column left of the strip, then — affine
/// only — F of the strip's first column) and leaving it for the next strip.
template <class BE, int N, bool Affine>
inline void batch32_strip(const BatchKernelSetup<BE>& kc, seq::SeqView q,
                          const uint8_t* cols, int8_t* state,
                          typename BE::vec& vmax) {
  using vec = typename BE::vec;
  constexpr size_t B = BE::lanes;
  constexpr size_t kRowBytes = Affine ? 2 * B : B;
  // Locals, not kc members: the int8 state stores may alias kc, which
  // would force a reload of every constant after each store.
  const vec zero = BE::set1(-128);
  const vec vopen = kc.vopen;
  const vec vext = kc.vext;
  const int8_t* const rows = kc.rows;
  typename BE::col_t idx[N];
  vec e[N];      // E(i, j + c), vertical gaps, carried down the column
  vec hdiag[N];  // H(i - 1, j + c - 1)
  for (int c = 0; c < N; ++c) {
    idx[c] = BE::prep_col(BE::load(cols + static_cast<size_t>(c) * B));
    e[c] = zero;
    hdiag[c] = zero;
  }
  for (size_t i = 0; i < q.length; ++i, state += kRowBytes) {
    const typename BE::row_t row =
        BE::load_row(rows + static_cast<size_t>(q[i]) * seq::kMatrixStride);
    vec hleft = BE::load(state);  // H(i, j - 1)
    vec f = Affine ? BE::load(state + B) : BE::subs(hleft, vext);  // F(i, j)
    for (int c = 0; c < N; ++c) {
      const vec h = BE::max(BE::adds(hdiag[c], BE::lookup(row, idx[c])),
                            BE::max(e[c], f));
      hdiag[c] = hleft;
      hleft = h;
      vmax = BE::max(vmax, h);
      if constexpr (Affine) {
        const vec open = BE::subs(h, vopen);
        e[c] = BE::max(open, BE::subs(e[c], vext));
        f = BE::max(open, BE::subs(f, vext));
      } else {
        e[c] = f = BE::subs(h, vext);
      }
    }
    BE::store(state, hleft);
    if constexpr (Affine) BE::store(state + B, f);  // F of the next strip's column
  }
}

/// The ragged last strip: `rem` (< N + 1) columns, as an N-, N-1-, ...
/// column strip chosen at run time.
template <class BE, int N, bool Affine>
inline void batch32_tail(const BatchKernelSetup<BE>& kc, seq::SeqView q,
                         const uint8_t* cols, uint32_t rem, int8_t* state,
                         typename BE::vec& vmax) {
  if constexpr (N > 0) {
    if (rem == static_cast<uint32_t>(N))
      batch32_strip<BE, N, Affine>(kc, q, cols, state, vmax);
    else
      batch32_tail<BE, N - 1, Affine>(kc, q, cols, rem, state, vmax);
  }
}

/// Columns [0, ncols) in strips of BE::strip, from zeroed row state.
template <class BE, bool Affine>
inline void batch32_walk(const BatchKernelSetup<BE>& kc, seq::SeqView q,
                         const uint8_t* columns, uint32_t ncols, int8_t* state,
                         typename BE::vec& vmax) {
  constexpr uint32_t C = BE::strip;
  constexpr size_t kStripBytes = static_cast<size_t>(C) * BE::lanes;
  uint32_t j = 0;
  for (; j + C <= ncols; j += C) {
    // Once per strip: the column blocks kBatchPrefetchCols columns ahead.
    if (j + kBatchPrefetchCols < ncols) {
      const size_t ahead = static_cast<size_t>(j + kBatchPrefetchCols) * BE::lanes;
      const size_t end =
          std::min(ahead + kStripBytes, static_cast<size_t>(ncols) * BE::lanes);
      for (size_t off = ahead; off < end; off += 64) BE::prefetch(columns + off);
    }
    batch32_strip<BE, C, Affine>(kc, q, columns + static_cast<size_t>(j) * BE::lanes,
                                 state, vmax);
  }
  batch32_tail<BE, C - 1, Affine>(kc, q,
                                  columns + static_cast<size_t>(j) * BE::lanes,
                                  ncols - j, state, vmax);
}

}  // namespace detail

/// The 8-bit batch kernel: one query against one batch of BE::lanes
/// transposed database sequences.
template <class BE>
Batch8Result batch32_kernel(seq::SeqView q, const uint8_t* columns, uint32_t ncols,
                            const AlignConfig& cfg, Workspace& ws) {
  using vec = typename BE::vec;
  constexpr int B = BE::lanes;
  static_assert(B <= 64, "Batch8Result holds 64 lanes");

  Batch8Result out{};
  if (q.length == 0 || ncols == 0) return out;

  const BatchKernelSetup<BE> kc(cfg);
  const bool affine = cfg.gap_model == GapModel::Affine;
  const size_t bytes = q.length * static_cast<size_t>(B) * (affine ? 2 : 1);
  auto* state = static_cast<int8_t*>(ws.batch_state.ensure(bytes));
  std::memset(state, 0x80, bytes);  // H = F = score 0

  vec vmax = BE::set1(-128);
  if (affine)
    detail::batch32_walk<BE, true>(kc, q, columns, ncols, state, vmax);
  else
    detail::batch32_walk<BE, false>(kc, q, columns, ncols, state, vmax);

  int8_t lane_max[B];
  BE::store(lane_max, vmax);
  for (int k = 0; k < B; ++k) {
    out.max_score[k] = static_cast<uint8_t>(lane_max[k] + 128);
    if (out.max_score[k] >= kc.sat_limit) out.saturated_mask |= uint64_t{1} << k;
  }
  return out;
}

/// Portable batch engine (the reference the SIMD engines match byte for
/// byte). Strips as wide as the SIMD engine of the same lane count.
template <int B>
struct EmuBatchEngine {
  struct vec {
    std::array<int8_t, B> v;
  };
  using col_t = vec;
  using row_t = const int8_t*;
  static constexpr int lanes = B;
  static constexpr int strip = batch_strip_cols(B);

  static vec set1(int x) {
    vec r;
    r.v.fill(static_cast<int8_t>(x));
    return r;
  }
  static vec load(const void* p) {
    vec r;
    std::memcpy(r.v.data(), p, B);
    return r;
  }
  static void store(void* p, vec a) { std::memcpy(p, a.v.data(), B); }
  template <class Op>
  static vec lanewise(vec a, vec b, Op op) {
    vec r;
    for (int k = 0; k < B; ++k)
      r.v[k] = static_cast<int8_t>(std::clamp(op(a.v[k], b.v[k]), -128, 127));
    return r;
  }
  static vec adds(vec a, vec b) {
    return lanewise(a, b, [](int x, int y) { return x + y; });
  }
  static vec subs(vec a, vec b) {
    return lanewise(a, b, [](int x, int y) { return x - y; });
  }
  static vec max(vec a, vec b) {
    return lanewise(a, b, [](int x, int y) { return x > y ? x : y; });
  }
  static col_t prep_col(vec sym) { return sym; }
  static row_t load_row(const int8_t* row32) { return row32; }
  static vec lookup(row_t row, col_t idx) {
    vec r;
    for (int k = 0; k < B; ++k) r.v[k] = row[idx.v[k] & 31];
    return r;
  }
  static void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }
};

}  // namespace swve::core
