// The batch interleave depth K only sets the batch scan's unit grain:
// group calls and whole scans must be bit-identical to one batch at a time
// for every depth, ISA, group shape, and packing policy. These tests pin
// that equivalence, the saturation-mask propagation, the rescore ladder at
// every depth, and the IlpPolicy / prefetch knobs.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

seq::SequenceDatabase small_db(uint64_t seed, uint64_t residues,
                               uint32_t min_len = 5, uint32_t max_len = 300) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = min_len;
  cfg.max_length = max_len;
  return seq::SequenceDatabase::synthetic(cfg);
}

/// All (isa, lanes) combinations the batch kernel dispatch supports on this
/// machine. Scalar runs both lane widths (emulated engines).
std::vector<std::pair<simd::Isa, int>> isa_lane_cases() {
  std::vector<std::pair<simd::Isa, int>> cases = {
      {simd::Isa::Scalar, 32}, {simd::Isa::Scalar, 64}};
  if (simd::isa_available(simd::Isa::Avx2)) cases.push_back({simd::Isa::Avx2, 32});
  if (simd::isa_available(simd::Isa::Avx512)) {
    cases.push_back({simd::Isa::Avx512, 32});  // falls to the AVX2 engine
    if (simd::cpu_features().avx512vbmi) cases.push_back({simd::Isa::Avx512, 64});
  }
  return cases;
}

std::vector<BatchCols> all_cols(const Batch32Db& bdb) {
  std::vector<BatchCols> cols(bdb.batch_count());
  for (size_t b = 0; b < bdb.batch_count(); ++b)
    cols[b] = BatchCols{bdb.batch(b).columns, bdb.batch(b).max_len};
  return cols;
}

void expect_same(const Batch8Result& got, const Batch8Result& ref, int lanes,
                 const char* what, size_t batch) {
  for (int k = 0; k < lanes; ++k)
    EXPECT_EQ(got.max_score[k], ref.max_score[k])
        << what << " batch " << batch << " lane " << k;
  EXPECT_EQ(got.saturated_mask, ref.saturated_mask) << what << " batch " << batch;
}

TEST(BatchIlp, InterleavedKernelBitIdenticalToK1AcrossIsas) {
  auto db = small_db(21, 60'000);
  auto q = seq::generate_sequence(101, 90);
  Workspace ws;
  AlignConfig base;
  for (auto [isa, lanes] : isa_lane_cases()) {
    for (ScoreScheme scheme : {ScoreScheme::Matrix, ScoreScheme::Fixed}) {
      for (GapModel gaps : {GapModel::Affine, GapModel::Linear}) {
        AlignConfig cfg = base;
        cfg.isa = isa;
        cfg.scheme = scheme;
        cfg.gap_model = gaps;
        if (scheme == ScoreScheme::Fixed) {
          cfg.match = 3;
          cfg.mismatch = -2;
        }
        Batch32Db bdb(db, lanes);
        const std::vector<BatchCols> cols = all_cols(bdb);
        const int n = static_cast<int>(cols.size());
        ASSERT_GE(n, 3) << "need several batches for a meaningful group";
        std::vector<Batch8Result> ref(cols.size());
        for (size_t b = 0; b < cols.size(); ++b)
          ref[b] = batch32_align_u8(q, bdb.batch(b), lanes, cfg, ws, isa);
        for (int k : {2, 4}) {
          std::vector<Batch8Result> got(cols.size());
          batch32_align_u8_group(q, cols.data(), n, lanes, cfg, ws, isa, k,
                                 got.data());
          for (size_t b = 0; b < cols.size(); ++b)
            expect_same(got[b], ref[b], lanes, simd::isa_name(isa), b);
        }
      }
    }
  }
}

TEST(BatchIlp, RaggedGroupCountsDecomposeExactly) {
  // Group counts that don't divide by the interleave depth must stay
  // bit-identical to one batch at a time.
  auto db = small_db(22, 30'000, 20, 200);
  auto q = seq::generate_sequence(102, 70);
  Workspace ws;
  AlignConfig cfg;
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  Batch32Db bdb(db, 32);
  const std::vector<BatchCols> cols = all_cols(bdb);
  std::vector<Batch8Result> ref(cols.size());
  for (size_t b = 0; b < cols.size(); ++b)
    ref[b] = batch32_align_u8(q, bdb.batch(b), 32, cfg, ws, isa);
  for (int count : {1, 2, 3, 5, 7}) {
    if (count > static_cast<int>(cols.size())) break;
    for (int k : {1, 2, 4}) {
      std::vector<Batch8Result> got(static_cast<size_t>(count));
      batch32_align_u8_group(q, cols.data(), count, 32, cfg, ws, isa, k,
                             got.data());
      for (int b = 0; b < count; ++b)
        expect_same(got[static_cast<size_t>(b)], ref[static_cast<size_t>(b)],
                    32, "ragged", static_cast<size_t>(b));
    }
  }
}

TEST(BatchIlp, SaturationMaskPropagatesPerBatchUnderInterleaving) {
  // Plant a near-copy of the query so one lane of one batch saturates; a
  // group call must set exactly the same per-batch mask bits as K = 1.
  auto q = seq::generate_sequence(103, 500);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 100; ++i)
    seqs.push_back(seq::generate_sequence(104 + static_cast<uint64_t>(i), 80));
  seqs.push_back(seq::mutate(q, 105, 0.03));
  seq::SequenceDatabase db(std::move(seqs));
  Workspace ws;
  AlignConfig cfg;
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  for (int lanes : {32, 64}) {
    Batch32Db bdb(db, lanes);
    const std::vector<BatchCols> cols = all_cols(bdb);
    std::vector<Batch8Result> ref(cols.size());
    uint64_t any_saturated = 0;
    for (size_t b = 0; b < cols.size(); ++b) {
      ref[b] = batch32_align_u8(q, bdb.batch(b), lanes, cfg, ws, isa);
      any_saturated |= ref[b].saturated_mask;
    }
    ASSERT_NE(any_saturated, 0u) << "setup must provoke saturation";
    for (int k : {2, 4}) {
      std::vector<Batch8Result> got(cols.size());
      batch32_align_u8_group(q, cols.data(), static_cast<int>(cols.size()),
                             lanes, cfg, ws, isa, k, got.data());
      for (size_t b = 0; b < cols.size(); ++b)
        expect_same(got[b], ref[b], lanes, "saturation", b);
    }
  }
}

TEST(BatchIlp, RescoreLadderExactUnderEveryDepth) {
  // Same setup as the batch32 ladder test: one sequence needs the 16-bit
  // rung, one overflows int16 and needs the 32-bit rung. Scores must be
  // exact at every pinned interleave depth.
  auto q = seq::generate_sequence(110, 1200);
  std::vector<uint8_t> prefix(q.codes().begin(), q.codes().begin() + 400);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(seq::generate_sequence(111 + static_cast<uint64_t>(i), 60));
  seqs.emplace_back("w16", prefix, seq::Alphabet::protein());  // index 40
  seqs.push_back(seq::mutate(q, 112, 0.0));                    // index 41
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  cfg.scheme = ScoreScheme::Fixed;
  cfg.match = 30;
  cfg.mismatch = -3;
  Workspace ws;
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  Batch32Db bdb(db, 32);
  for (int k : {1, 2, 4}) {
    set_ilp_override(isa, IlpPolicy::fixed(k));
    BatchSearchStats stats;
    auto scores = batch_scores(q, bdb, db, cfg, ws, &stats);
    EXPECT_GE(stats.rescored, 2u) << "K=" << k;
    EXPECT_EQ(scores[40], 30 * 400) << "K=" << k;
    EXPECT_EQ(scores[41], 30 * 1200) << "K=" << k;
    for (size_t s = 0; s < db.size(); ++s)
      EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score)
          << "K=" << k << " seq " << s;
  }
  set_ilp_override(isa, IlpPolicy::auto_policy());
}

TEST(BatchIlp, BatchScoresIdenticalAcrossDepthsAndPolicies) {
  auto db = small_db(23, 25'000);
  auto q = seq::generate_sequence(113, 100);
  Workspace ws;
  AlignConfig cfg;
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  for (PackingPolicy policy :
       {PackingPolicy::DbOrder, PackingPolicy::LengthSorted,
        PackingPolicy::LengthBinned}) {
    Batch32Db bdb(db, 32, policy);
    std::vector<int> ref_scores;
    for (int k : {1, 2, 4}) {
      set_ilp_override(isa, IlpPolicy::fixed(k));
      auto scores = batch_scores(q, bdb, db, cfg, ws);
      if (ref_scores.empty())
        ref_scores = scores;
      else
        EXPECT_EQ(scores, ref_scores)
            << packing_policy_name(policy) << " K=" << k;
    }
    for (size_t s = 0; s < db.size(); ++s)
      EXPECT_EQ(ref_scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
  }
  set_ilp_override(isa, IlpPolicy::auto_policy());
}

TEST(BatchIlp, IlpOverrideNormalizesAndClears) {
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  set_ilp_override(isa, IlpPolicy::fixed(4));
  EXPECT_EQ(resolved_ilp(isa), 4);
  set_ilp_override(isa, IlpPolicy::fixed(3));  // not a supported depth
  EXPECT_EQ(resolved_ilp(isa), 2);
  set_ilp_override(isa, IlpPolicy::fixed(1));
  EXPECT_EQ(resolved_ilp(isa), 1);
  set_ilp_override(isa, IlpPolicy::auto_policy());
  EXPECT_EQ(resolved_ilp(isa), 1) << "unpinned depth";
}

TEST(BatchIlp, PrefetchDistanceClampsAndNeverChangesResults) {
  const uint32_t saved = batch_prefetch_distance();
  set_batch_prefetch_distance(100);
  EXPECT_EQ(batch_prefetch_distance(), 64u);  // clamped
  set_batch_prefetch_distance(0);
  EXPECT_EQ(batch_prefetch_distance(), 0u);   // disabled

  auto db = small_db(24, 15'000);
  auto q = seq::generate_sequence(114, 80);
  Workspace ws;
  AlignConfig cfg;
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  Batch32Db bdb(db, 32);
  const std::vector<BatchCols> cols = all_cols(bdb);
  std::vector<Batch8Result> ref(cols.size());
  batch32_align_u8_group(q, cols.data(), static_cast<int>(cols.size()), 32,
                         cfg, ws, isa, 4, ref.data());
  for (uint32_t dist : {4u, 16u, 64u}) {
    set_batch_prefetch_distance(dist);
    std::vector<Batch8Result> got(cols.size());
    batch32_align_u8_group(q, cols.data(), static_cast<int>(cols.size()), 32,
                           cfg, ws, isa, 4, got.data());
    for (size_t b = 0; b < cols.size(); ++b)
      expect_same(got[b], ref[b], 32, "prefetch", b);
  }
  set_batch_prefetch_distance(saved);
}

}  // namespace
}  // namespace swve::core
