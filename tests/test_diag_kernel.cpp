// Differential tests: every diagonal-kernel instantiation (ISA x width x
// gap model x score scheme x traceback) against the golden scalar model.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <type_traits>

#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "matrix/score_matrix.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

// gtest names each instance by the bytes of its parameter, so Param spells
// out what would otherwise be padding: indeterminate padding bytes made the
// names change whenever the heap history of test registration did.
struct Param {
  simd::Isa isa;
  Width width;
  uint8_t zero[3] = {};
};
static_assert(std::has_unique_object_representations_v<Param>);

std::vector<Param> kernel_params() {
  std::vector<Param> p;
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::isa_available(simd::Isa::Sse41)) isas.push_back(simd::Isa::Sse41);
  if (simd::isa_available(simd::Isa::Avx2)) isas.push_back(simd::Isa::Avx2);
  if (simd::isa_available(simd::Isa::Avx512)) isas.push_back(simd::Isa::Avx512);
  for (simd::Isa isa : isas)
    for (Width w : {Width::W8, Width::W16, Width::W32, Width::Adaptive})
      p.push_back({isa, w});
  return p;
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string w;
  switch (info.param.width) {
    case Width::W8: w = "w8"; break;
    case Width::W16: w = "w16"; break;
    case Width::W32: w = "w32"; break;
    case Width::Adaptive: w = "adaptive"; break;
  }
  return std::string(simd::isa_name(info.param.isa)) + "_" + w;
}

class DiagKernelTest : public ::testing::TestWithParam<Param> {
 protected:
  AlignConfig base_config() {
    AlignConfig cfg;
    cfg.isa = GetParam().isa;
    cfg.width = GetParam().width;
    return cfg;
  }
  Workspace ws_;
};

void expect_equal(const Alignment& got, const Alignment& ref, const char* what) {
  ASSERT_FALSE(got.saturated) << what;
  EXPECT_EQ(got.score, ref.score) << what;
  EXPECT_EQ(got.end_query, ref.end_query) << what;
  EXPECT_EQ(got.end_ref, ref.end_ref) << what;
}

TEST_P(DiagKernelTest, MatchesGoldenOnRandomPairs) {
  std::mt19937_64 rng(101);
  for (int it = 0; it < 40; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 200);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 250);
    AlignConfig cfg = base_config();
    Alignment got = diag_align(q, r, cfg, ws_);
    if (got.saturated) continue;  // legal for fixed narrow widths
    Alignment ref = ref_align(q, r, cfg);
    expect_equal(got, ref, "random pair");
  }
}

TEST_P(DiagKernelTest, MatchesGoldenAcrossGapModelsAndSchemes) {
  std::mt19937_64 rng(102);
  for (int scheme = 0; scheme < 2; ++scheme)
    for (int gm = 0; gm < 2; ++gm)
      for (int it = 0; it < 8; ++it) {
        auto q = seq::generate_sequence(rng(), 1 + rng() % 120);
        auto r = seq::generate_sequence(rng(), 1 + rng() % 120);
        AlignConfig cfg = base_config();
        cfg.scheme = scheme ? ScoreScheme::Fixed : ScoreScheme::Matrix;
        cfg.gap_model = gm ? GapModel::Linear : GapModel::Affine;
        cfg.gap_open = 6 + static_cast<int>(rng() % 8);
        cfg.gap_extend = 1 + static_cast<int>(rng() % 3);
        Alignment got = diag_align(q, r, cfg, ws_);
        if (got.saturated) continue;
        expect_equal(got, ref_align(q, r, cfg), "scheme/gap sweep");
      }
}

TEST_P(DiagKernelTest, MatchesGoldenOnAllMatrices) {
  std::mt19937_64 rng(103);
  for (const std::string& name : matrix::ScoreMatrix::builtin_names()) {
    auto q = seq::generate_sequence(rng(), 90);
    auto r = seq::generate_sequence(rng(), 110);
    AlignConfig cfg = base_config();
    cfg.matrix = matrix::ScoreMatrix::find(name);
    Alignment got = diag_align(q, r, cfg, ws_);
    if (got.saturated) continue;
    expect_equal(got, ref_align(q, r, cfg), name.c_str());
  }
}

TEST_P(DiagKernelTest, RaggedShapesExerciseScalarTail) {
  // Lengths around the lane counts hit every ragged-diagonal case.
  std::mt19937_64 rng(104);
  for (int m : {1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65})
    for (int n : {1, 5, 16, 33, 64}) {
      auto q = seq::generate_sequence(rng(), static_cast<uint32_t>(m));
      auto r = seq::generate_sequence(rng(), static_cast<uint32_t>(n));
      AlignConfig cfg = base_config();
      Alignment got = diag_align(q, r, cfg, ws_);
      if (got.saturated) continue;
      expect_equal(got, ref_align(q, r, cfg), "ragged shape");
    }
}

TEST_P(DiagKernelTest, CellAccountingIsExact) {
  auto q = seq::generate_sequence(7, 70);
  auto r = seq::generate_sequence(8, 90);
  AlignConfig cfg = base_config();
  if (cfg.width == Width::Adaptive) cfg.width = Width::W16;
  Alignment a = diag_align(q, r, cfg, ws_);
  EXPECT_EQ(a.stats.cells, 70u * 90u);
  EXPECT_EQ(a.stats.vector_cells + a.stats.scalar_cells, a.stats.cells);
  EXPECT_EQ(a.stats.diagonals, 70u + 90u - 1u);
}

TEST_P(DiagKernelTest, TracebackReplaysToReportedScore) {
  std::mt19937_64 rng(105);
  for (int it = 0; it < 25; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 150);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 150);
    AlignConfig cfg = base_config();
    cfg.traceback = true;
    cfg.gap_model = (it & 1) ? GapModel::Linear : GapModel::Affine;
    Alignment got = diag_align(q, r, cfg, ws_);
    if (got.saturated || got.score == 0) continue;
    Alignment ref = ref_align(q, r, cfg);
    expect_equal(got, ref, "traceback pair");
    EXPECT_EQ(replay_score(q, r, cfg, got), got.score);
    EXPECT_EQ(got.begin_query, ref.begin_query);
    EXPECT_EQ(got.begin_ref, ref.begin_ref);
    EXPECT_EQ(got.cigar, ref.cigar);
  }
}

TEST_P(DiagKernelTest, AllScoreDeliveriesAgree) {
  std::mt19937_64 rng(107);
  for (int it = 0; it < 12; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 200);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 200);
    AlignConfig cfg = base_config();
    cfg.traceback = (it & 1) != 0;
    Alignment ref = ref_align(q, r, cfg);
    for (ScoreDelivery d : {ScoreDelivery::Gather, ScoreDelivery::Fill,
                            ScoreDelivery::Shuffle, ScoreDelivery::Auto}) {
      cfg.delivery = d;
      Alignment got = diag_align(q, r, cfg, ws_);
      if (got.saturated) continue;
      EXPECT_EQ(got.score, ref.score) << "delivery " << static_cast<int>(d);
      EXPECT_EQ(got.end_query, ref.end_query);
      EXPECT_EQ(got.end_ref, ref.end_ref);
      if (cfg.traceback && got.score > 0) EXPECT_EQ(got.cigar, ref.cigar);
    }
  }
}

TEST_P(DiagKernelTest, EmptyInputs) {
  seq::Sequence e("e", "", seq::Alphabet::protein());
  auto q = seq::generate_sequence(1, 10);
  AlignConfig cfg = base_config();
  Alignment a = diag_align(e, q, cfg, ws_);
  EXPECT_EQ(a.score, 0);
  EXPECT_EQ(a.end_query, -1);
  a = diag_align(q, e, cfg, ws_);
  EXPECT_EQ(a.score, 0);
  a = diag_align(e, e, cfg, ws_);
  EXPECT_EQ(a.score, 0);
}

TEST_P(DiagKernelTest, HighIdentityPairSaturatesNarrowWidths) {
  // ~600 residues of near-identity: score ~ 600*5 >> 255.
  auto q = seq::generate_sequence(9, 600);
  auto hom = seq::mutate(q, 10, 0.05);
  AlignConfig cfg = base_config();
  Alignment ref = ref_align(q, hom, cfg);
  ASSERT_GT(ref.score, 300);  // enough to overflow 8-bit
  Alignment got = diag_align(q, hom, cfg, ws_);
  switch (GetParam().width) {
    case Width::W8:
      EXPECT_TRUE(got.saturated);
      break;
    case Width::Adaptive:
      EXPECT_TRUE(got.saturated_8);
      EXPECT_FALSE(got.saturated);
      EXPECT_EQ(got.score, ref.score);
      break;
    default:
      EXPECT_FALSE(got.saturated);
      EXPECT_EQ(got.score, ref.score);
      break;
  }
}

TEST_P(DiagKernelTest, DeterministicAcrossRepeats) {
  auto q = seq::generate_sequence(11, 130);
  auto r = seq::generate_sequence(12, 170);
  AlignConfig cfg = base_config();
  cfg.traceback = true;
  Alignment a = diag_align(q, r, cfg, ws_);
  for (int rep = 0; rep < 3; ++rep) {
    Alignment b = diag_align(q, r, cfg, ws_);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.end_query, b.end_query);
    EXPECT_EQ(a.end_ref, b.end_ref);
    EXPECT_EQ(a.cigar, b.cigar);
  }
}

TEST_P(DiagKernelTest, WorkspaceReuseAcrossShapes) {
  // Shrinking then growing inputs must not leak state between calls.
  std::mt19937_64 rng(106);
  AlignConfig cfg = base_config();
  for (uint32_t len : {200u, 3u, 150u, 1u, 64u, 300u, 2u}) {
    auto q = seq::generate_sequence(rng(), len);
    auto r = seq::generate_sequence(rng(), len / 2 + 1);
    Alignment got = diag_align(q, r, cfg, ws_);
    if (got.saturated) continue;
    expect_equal(got, ref_align(q, r, cfg), "workspace reuse");
  }
}

TEST_P(DiagKernelTest, TracebackCellCapThrows) {
  AlignConfig cfg = base_config();
  cfg.traceback = true;
  cfg.max_traceback_cells = 10;
  auto q = seq::generate_sequence(1, 20);
  auto r = seq::generate_sequence(2, 20);
  EXPECT_THROW(diag_align(q, r, cfg, ws_), std::length_error);
}

// The VBMI byte-shuffle delivery at 8 and 16 bits. A 16-bit pass feeds two
// 32-lane vector steps from one 64-row lookup before the single-vector and
// masked-tail steps, so the query lengths put diagonals on every split:
// scalar (<= 4 cells), masked tail only, one vector, one and two 64-row
// lookups, each with and without a tail. The sequences cycle through all
// 24 protein codes (B, Z, X and * included), so every 4-row table segment
// and every branch of the lookup's blend tree is taken. Engines without the
// shuffle (every ISA but AVX-512-VBMI, and 32 bits) run a Shuffle pin as
// Fill; AllScoreDeliveriesAgree covers that fallback.
TEST_P(DiagKernelTest, ShufflePinnedMatchesGoldenAndFill) {
  if (GetParam().isa != simd::Isa::Avx512 || GetParam().width == Width::W32 ||
      !simd::cpu_features().avx512vbmi)
    GTEST_SKIP() << "needs the AVX-512-VBMI shuffle at 8 or 16 bits";
  const std::string letters(seq::Alphabet::protein().letters());
  ASSERT_EQ(letters.size(), 24u);
  // Residue t of a sequence cycling through every code with a given stride
  // (coprime to 24) and phase.
  auto cyc = [&](int len, int stride, int phase) {
    std::string s(static_cast<size_t>(len), ' ');
    for (int t = 0; t < len; ++t)
      s[static_cast<size_t>(t)] = letters[static_cast<size_t>((t * stride + phase) % 24)];
    return seq::Sequence("c", s, seq::Alphabet::protein());
  };
  std::vector<int> lengths = {1, 4, 5};
  for (int c : {32, 64, 96, 128, 192})
    for (int m = c - 1; m <= c + 1; ++m) lengths.push_back(m);
  for (int m : lengths) {
    const seq::Sequence q = cyc(m, 7, 0);
    // The same cycle shifted (long high-scoring runs: the 8-bit rung
    // saturates on the longer ones) and an unrelated cycle.
    for (const seq::Sequence& r : {cyc(m + 11, 7, 3), cyc(200, 5, 1)})
      for (GapModel gm : {GapModel::Affine, GapModel::Linear})
        for (bool tb : {false, true}) {
          const std::string what = "m " + std::to_string(m) + " n " +
                                   std::to_string(r.length()) + " gap " +
                                   std::to_string(static_cast<int>(gm)) +
                                   " tb " + std::to_string(tb);
          AlignConfig cfg = base_config();
          cfg.gap_model = gm;
          cfg.traceback = tb;
          cfg.delivery = ScoreDelivery::Fill;
          const Alignment fill = diag_align(q, r, cfg, ws_);
          cfg.delivery = ScoreDelivery::Shuffle;
          const Alignment got = diag_align(q, r, cfg, ws_);
          EXPECT_EQ(got.saturated, fill.saturated) << what;
          EXPECT_EQ(got.score, fill.score) << what;
          EXPECT_EQ(got.width_used, fill.width_used) << what;
          EXPECT_EQ(got.stats.cells, fill.stats.cells) << what;
          EXPECT_EQ(got.stats.scalar_cells, fill.stats.scalar_cells) << what;
          if (got.saturated) continue;
          const Alignment ref = ref_align(q, r, cfg);
          EXPECT_EQ(got.score, ref.score) << what;
          EXPECT_EQ(got.end_query, ref.end_query) << what;
          EXPECT_EQ(got.end_ref, ref.end_ref) << what;
          if (tb && ref.score > 0) {
            EXPECT_EQ(got.begin_query, ref.begin_query) << what;
            EXPECT_EQ(got.begin_ref, ref.begin_ref) << what;
            EXPECT_EQ(got.cigar, ref.cigar) << what;
          }
        }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, DiagKernelTest,
                         ::testing::ValuesIn(kernel_params()), param_name);

// ---- early stop of narrow rungs ------------------------------------------
//
// A rung with a wider one after it stops at the end of the first
// anti-diagonal whose row maximum reaches the saturation limit. The pairs
// below put that first saturating cell exactly where the test wants it: the
// only positive-scoring cells are a k x k block of one residue ('C') that
// neither background alphabet contains, so H first reaches k * match at the
// block's far corner (i*, j*), on anti-diagonal i* + j*, and nowhere
// earlier.

struct LadderScores {
  int match, mismatch;
  int k;  ///< block side: k * match first reaches the rung's limit
};
// Saturate 8 bits and fit in 16: limit 255 - 5 - 10 = 240 = 24 * 10, and
// 255 - 1 - 85 = 169 <= 2 * 85.
constexpr LadderScores kSat8{10, -5, 24};
constexpr LadderScores kSat8Short{85, -1, 2};
// Saturates 16 bits (limit 65535 - 1 - 127 = 65407 <= 516 * 127), and 8
// bits at the block's first cell (limit 255 - 1 - 127 = 127).
constexpr LadderScores kSat16{127, -1, 516};

int diag_len(int d, int m, int n, int band) {
  const auto [lo, hi] = detail::diag_range(d, m, n, band);
  return hi >= lo ? hi - lo + 1 : 0;
}

uint64_t cells_through(int d, int m, int n, int band) {
  uint64_t c = 0;
  for (int t = 0; t <= d; ++t) c += static_cast<uint64_t>(diag_len(t, m, n, band));
  return c;
}

// Row i of anti-diagonal d lies in the zero-masked tail vector of every
// unsigned engine (8, 16, 32 or 64 lanes: the tail holds at least the last
// len % 8 rows), after at least one full vector on each.
bool in_masked_tail(int i, int d, int m, int n, int band) {
  const auto [lo, hi] = detail::diag_range(d, m, n, band);
  const int len = hi - lo + 1;
  return len > 64 && i >= lo && i > hi - len % 8;
}

// One pair: where the first saturating cell (i_end, j_end) of the rung
// under test sits, and the sequences that put it there.
struct LadderPair {
  LadderScores sc;
  bool sat16;      ///< the block saturates 16 bits too
  bool tail;       ///< masked tail vector (else a scalar diagonal)
  int m, n, i_end, j_end;
  seq::Sequence q, r;
};

LadderPair ladder_pair(LadderScores sc, bool sat16, bool tail, int m, int n,
                       int band) {
  LadderPair p{sc, sat16, tail, m, n, -1, -1, {}, {}};
  if (!tail && !sat16) {  // diagonal 2 (three cells): the first cells
    p.i_end = p.j_end = sc.k - 1;
  } else if (!tail) {  // the last diagonal (one cell)
    p.i_end = m - 1;
    p.j_end = n - 1;
  } else {  // the earliest cell in a masked tail
    for (int d = 0; d < m + n - 1 && p.i_end < 0; ++d)
      for (int i = sc.k - 1; i < m && i <= d; ++i) {
        const int j = d - i;
        if (j >= sc.k - 1 && j < n && (band < 0 || std::abs(i - j) <= band) &&
            in_masked_tail(i, d, m, n, band)) {
          p.i_end = i;
          p.j_end = j;
          break;
        }
      }
  }
  std::mt19937_64 rng(static_cast<uint64_t>(m * 31 + p.i_end));
  auto fill = [&](int len, const char* letters, int end) {
    const size_t kinds = std::strlen(letters);
    std::string s(static_cast<size_t>(len), ' ');
    for (char& c : s) c = letters[rng() % kinds];
    for (int t = end - sc.k + 1; t <= end; ++t) s[static_cast<size_t>(t)] = 'C';
    return s;
  };
  const auto& abc = seq::Alphabet::protein();
  p.q = seq::Sequence("q", fill(m, "ARNDQEGHIK", p.i_end), abc);
  p.r = seq::Sequence("r", fill(n, "LMFPSTWYV", p.j_end), abc);
  return p;
}

void expect_same_alignment(const Alignment& got, const Alignment& want,
                           const std::string& what) {
  EXPECT_EQ(got.saturated, want.saturated) << what;
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.end_query, want.end_query) << what;
  EXPECT_EQ(got.end_ref, want.end_ref) << what;
  EXPECT_EQ(got.begin_query, want.begin_query) << what;
  EXPECT_EQ(got.begin_ref, want.begin_ref) << what;
  EXPECT_EQ(got.cigar, want.cigar) << what;
}

// Every built ISA x gap model x score delivery (and Fixed) x traceback x
// band, on pairs whose first saturating cell is in a masked tail vector or
// on a scalar (<= 4-cell) diagonal, at 8 and at 16 bits.
void check_ladder_pair(const LadderPair& p, int band, Workspace& ws) {
  ASSERT_GE(p.i_end, 0) << "no masked-tail cell for band " << band;
  const int m = p.m, n = p.n, ie = p.i_end, je = p.j_end;
  const int d_end = ie + je;
  if (p.tail)
    ASSERT_TRUE(in_masked_tail(ie, d_end, m, n, band));
  else
    ASSERT_LE(diag_len(d_end, m, n, band), detail::kScalarDiagonal);
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  for (simd::Isa isa : {simd::Isa::Sse41, simd::Isa::Avx2, simd::Isa::Avx512})
    if (simd::isa_available(isa)) isas.push_back(isa);
  const matrix::ScoreMatrix mat = matrix::ScoreMatrix::match_mismatch(
      p.sc.match, p.sc.mismatch, seq::Alphabet::protein());

  // What the stopped rungs ran: through the diagonal of their first
  // saturating cell. A block that saturates 16 bits saturates the 8-bit
  // rung at its first cell.
  const uint64_t full = cells_through(m + n - 2, m, n, band);
  const int d8 = p.sat16 ? d_end - 2 * (p.sc.k - 1) : d_end;
  uint64_t want_cells = cells_through(d8, m, n, band) + full;
  uint64_t want_diags = static_cast<uint64_t>(d8 + 1 + m + n - 1);
  if (p.sat16) {
    want_cells += cells_through(d_end, m, n, band);
    want_diags += static_cast<uint64_t>(d_end + 1);
  }

  for (GapModel gm : {GapModel::Affine, GapModel::Linear})
    for (int mode = 0; mode < 4; ++mode)
      for (bool tb : {false, true}) {
        AlignConfig cfg;
        cfg.gap_model = gm;
        cfg.traceback = tb;
        cfg.band = band;
        if (mode == 3) {
          cfg.scheme = ScoreScheme::Fixed;
          cfg.match = p.sc.match;
          cfg.mismatch = p.sc.mismatch;
        } else {
          cfg.matrix = &mat;
          cfg.delivery = mode == 0   ? ScoreDelivery::Gather
                         : mode == 1 ? ScoreDelivery::Fill
                                     : ScoreDelivery::Shuffle;
        }
        const Alignment ref = ref_align(p.q, p.r, cfg);
        ASSERT_EQ(ref.score, p.sc.k * p.sc.match);
        ASSERT_EQ(ref.end_query, ie);
        ASSERT_EQ(ref.end_ref, je);
        for (simd::Isa isa : isas) {
          const std::string what =
              std::string(simd::isa_name(isa)) + (p.sat16 ? " sat16" : " sat8") +
              (p.tail ? " tail" : " scalar") + " band " + std::to_string(band) +
              " gap " + std::to_string(static_cast<int>(gm)) + " mode " +
              std::to_string(mode) + " tb " + std::to_string(tb);
          cfg.isa = isa;
          cfg.width = Width::Adaptive;
          const Alignment a = diag_align(p.q, p.r, cfg, ws);
          EXPECT_TRUE(a.saturated_8) << what;
          EXPECT_EQ(a.saturated_16, p.sat16) << what;
          EXPECT_EQ(a.width_used, p.sat16 ? Width::W32 : Width::W16) << what;
          expect_same_alignment(a, ref, what);
          EXPECT_EQ(a.stats.cells, want_cells) << what;
          EXPECT_EQ(a.stats.diagonals, want_diags) << what;
          // Under 2 m*n, except where the 16-bit rung saturates only on the
          // last diagonal and so runs everything.
          EXPECT_LT(a.stats.cells, (p.sat16 && !p.tail ? 3 : 2) * full) << what;

          cfg.width = narrowest_width(ref.score, cfg);
          EXPECT_EQ(cfg.width, a.width_used) << what;
          const Alignment rung = diag_align(p.q, p.r, cfg, ws);
          expect_same_alignment(rung, a, what + " fixed rung");
          EXPECT_EQ(rung.stats.cells, full) << what;

          cfg.width = Width::W8;  // no wider rung: the full pass
          const Alignment w8 = diag_align(p.q, p.r, cfg, ws);
          EXPECT_TRUE(w8.saturated) << what;
          EXPECT_EQ(w8.stats.cells, full) << what;
          if (band < 0) {
            EXPECT_EQ(full, static_cast<uint64_t>(m) * static_cast<uint64_t>(n));
          }
        }
      }
}

TEST(DiagLadder, NarrowRungsStopAtTheirFirstSaturatedDiagonal) {
  Workspace ws;
  for (int band : {-1, 80}) {
    SCOPED_TRACE(band);
    check_ladder_pair(ladder_pair(kSat8, false, true, 108, 128, band), band, ws);
    check_ladder_pair(ladder_pair(kSat8Short, false, false, 100, 120, band), band, ws);
    check_ladder_pair(ladder_pair(kSat16, true, true, 600, 620, band), band, ws);
    check_ladder_pair(ladder_pair(kSat16, true, false, 600, 620, band), band, ws);
  }
}

TEST(DiagLadder, EntersAtTheRungThatHoldsAKnownScore) {
  // diag_align_from starting at narrowest_width(exact score) returns the
  // Adaptive alignment in one rung; entering too narrow still climbs.
  Workspace ws;
  auto q = seq::generate_sequence(21, 300);
  auto hom = seq::mutate(q, 22, 0.1);
  auto rnd = seq::generate_sequence(23, 280);
  AlignConfig cfg;
  cfg.traceback = true;
  for (const seq::Sequence* r : {&hom, &rnd}) {
    const Alignment ref = ref_align(q, *r, cfg);
    const Width first = narrowest_width(ref.score, cfg);
    const Alignment a = diag_align_from(q, *r, cfg, ws, first);
    EXPECT_EQ(a.width_used, first);
    EXPECT_FALSE(a.saturated_8);
    expect_same_alignment(a, ref, "known score");
    EXPECT_EQ(a.stats.cells, q.length() * r->length());
    const Alignment climbed = diag_align_from(q, *r, cfg, ws, Width::W8);
    expect_same_alignment(climbed, ref, "from w8");
  }
  EXPECT_EQ(narrowest_width(0, cfg), Width::W8);
  EXPECT_EQ(narrowest_width(255 - cfg.bias() - cfg.max_subst_score(), cfg),
            Width::W16);
  EXPECT_EQ(narrowest_width(65535, cfg), Width::W32);
  EXPECT_THROW(diag_align_from(q, rnd, cfg, ws, Width::Adaptive),
               std::invalid_argument);
}

TEST(DiagDispatch, RejectsAdaptiveWidthAtKernelLevel) {
  DiagRequest rq;
  EXPECT_THROW(run_diag_kernel(rq, simd::Isa::Scalar, Width::Adaptive),
               std::invalid_argument);
}

// Auto score delivery: Shuffle on AVX-512-VBMI hosts without any timing,
// a calibrated Gather or Fill elsewhere; a pin wins over both.
TEST(DiagDispatch, AutoDeliveryIsShuffleOnVbmiAndAPinWins) {
  if (simd::isa_available(simd::Isa::Avx2)) {
    EXPECT_NE(resolved_delivery(simd::Isa::Avx2), ScoreDelivery::Shuffle);
    set_delivery_override(simd::Isa::Avx2, ScoreDelivery::Fill);
    EXPECT_EQ(resolved_delivery(simd::Isa::Avx2), ScoreDelivery::Fill);
    set_delivery_override(simd::Isa::Avx2, ScoreDelivery::Auto);
  }
  if (!simd::isa_available(simd::Isa::Avx512) ||
      !simd::cpu_features().avx512vbmi)
    GTEST_SKIP() << "needs AVX-512-VBMI";
  set_delivery_override(simd::Isa::Avx512, ScoreDelivery::Auto);
  EXPECT_EQ(resolved_delivery(simd::Isa::Avx512), ScoreDelivery::Shuffle);
  for (ScoreDelivery pin : {ScoreDelivery::Gather, ScoreDelivery::Fill}) {
    set_delivery_override(simd::Isa::Avx512, pin);
    EXPECT_EQ(resolved_delivery(simd::Isa::Avx512), pin);
  }
  set_delivery_override(simd::Isa::Avx512, ScoreDelivery::Auto);
  EXPECT_EQ(resolved_delivery(simd::Isa::Avx512), ScoreDelivery::Shuffle);
}

TEST(DiagDispatch, AutoIsaResolvesAndRuns) {
  Workspace ws;
  auto q = seq::generate_sequence(1, 50);
  auto r = seq::generate_sequence(2, 60);
  AlignConfig cfg;
  cfg.isa = simd::Isa::Auto;
  Alignment a = diag_align(q, r, cfg, ws);
  EXPECT_EQ(a.isa_used, simd::resolve_isa(simd::Isa::Auto));
  EXPECT_EQ(a.score, ref_align(q, r, cfg).score);
}

}  // namespace
}  // namespace swve::core
