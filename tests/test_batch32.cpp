#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "core/batch32.hpp"
#include "core/scalar_ref.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

seq::SequenceDatabase small_db(uint64_t seed, uint64_t residues, uint32_t min_len = 5,
                               uint32_t max_len = 300) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = min_len;
  cfg.max_length = max_len;
  return seq::SequenceDatabase::synthetic(cfg);
}

/// The ISA a `lanes`-wide packing is scored with here: Auto, except that a
/// 64-lane packing on a build or host whose batch engine is 32 lanes wide
/// runs the emulated 64-lane engine (Auto would reject the packing).
simd::Isa isa_for_lanes(int lanes) {
  return lanes == 64 && batch_lanes_for(simd::resolve_isa(simd::Isa::Auto)) == 32
             ? simd::Isa::Scalar
             : simd::Isa::Auto;
}

TEST(Batch32Db, RejectsBadLaneCounts) {
  auto db = small_db(1, 1000);
  EXPECT_THROW(Batch32Db(db, 16), std::invalid_argument);
  EXPECT_THROW(Batch32Db(db, 48), std::invalid_argument);
}

TEST(Batch32Db, PacksEverySequenceExactlyOnce) {
  auto db = small_db(2, 30'000);
  for (int lanes : {32, 64}) {
    Batch32Db bdb(db, lanes);
    std::vector<int> seen(db.size(), 0);
    for (size_t b = 0; b < bdb.batch_count(); ++b) {
      auto batch = bdb.batch(b);
      EXPECT_LE(batch.count, static_cast<uint32_t>(lanes));
      for (uint32_t k = 0; k < batch.count; ++k) ++seen[batch.seq_index[k]];
    }
    for (size_t s = 0; s < db.size(); ++s) EXPECT_EQ(seen[s], 1) << s;
  }
}

TEST(Batch32Db, TransposedColumnsHoldTheRightResidues) {
  auto db = small_db(3, 8'000);
  Batch32Db bdb(db, 32);
  for (size_t b = 0; b < bdb.batch_count(); ++b) {
    auto batch = bdb.batch(b);
    for (uint32_t k = 0; k < batch.count; ++k) {
      const seq::Sequence& s = db[batch.seq_index[k]];
      EXPECT_EQ(batch.seq_len[k], s.length());
      for (uint32_t j = 0; j < batch.max_len; ++j) {
        uint8_t got = batch.columns[static_cast<size_t>(j) * 32 + k];
        if (j < s.length())
          EXPECT_EQ(got, s.codes()[j]);
        else
          EXPECT_EQ(got, kBatchPadCode);
      }
      // Padding lanes beyond count:
      for (uint32_t k2 = batch.count; k2 < 32; ++k2)
        EXPECT_EQ(batch.columns[k2], kBatchPadCode);
    }
  }
}

TEST(Batch32Db, LengthSortedBatchesBoundPadding) {
  auto db = small_db(4, 60'000, 10, 500);
  Batch32Db bdb(db, 32);
  // Sorting by length keeps padding modest even with a wide distribution.
  EXPECT_LT(bdb.padding_overhead(), 1.0);
  for (size_t b = 0; b < bdb.batch_count(); ++b) {
    auto batch = bdb.batch(b);
    uint32_t mx = 0;
    for (uint32_t k = 0; k < batch.count; ++k) mx = std::max(mx, batch.seq_len[k]);
    EXPECT_EQ(batch.max_len, mx);
  }
}

class BatchScoreTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchScoreTest, ScoresMatchGoldenForWholeDatabase) {
  const int lanes = GetParam();
  auto db = small_db(5, 25'000);
  Batch32Db bdb(db, lanes);
  Workspace ws;
  AlignConfig cfg;
  cfg.isa = isa_for_lanes(lanes);
  auto q = seq::generate_sequence(50, 100);
  auto scores = batch_scores(q, bdb, db, cfg, ws);
  ASSERT_EQ(scores.size(), db.size());
  for (size_t s = 0; s < db.size(); ++s)
    EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
}

TEST_P(BatchScoreTest, SaturatedLanesAreRescoredExactly) {
  const int lanes = GetParam();
  // Build a db containing a near-copy of the query: its 8-bit lane must
  // saturate and the rescoring ladder must recover the exact score.
  auto q = seq::generate_sequence(60, 500);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(seq::generate_sequence(61 + static_cast<uint64_t>(i), 80));
  seqs.push_back(seq::mutate(q, 62, 0.03));
  seq::SequenceDatabase db(std::move(seqs));
  Batch32Db bdb(db, lanes);
  Workspace ws;
  AlignConfig cfg;
  cfg.isa = isa_for_lanes(lanes);
  BatchSearchStats stats;
  auto scores = batch_scores(q, bdb, db, cfg, ws, &stats);
  EXPECT_GE(stats.rescored, 1u);
  for (size_t s = 0; s < db.size(); ++s)
    EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
}

TEST_P(BatchScoreTest, FixedSchemeAndLinearGaps) {
  const int lanes = GetParam();
  auto db = small_db(7, 12'000);
  Batch32Db bdb(db, lanes);
  Workspace ws;
  AlignConfig cfg;
  cfg.isa = isa_for_lanes(lanes);
  cfg.scheme = ScoreScheme::Fixed;
  cfg.match = 3;
  cfg.mismatch = -2;
  cfg.gap_model = GapModel::Linear;
  cfg.gap_extend = 2;
  auto q = seq::generate_sequence(70, 60);
  auto scores = batch_scores(q, bdb, db, cfg, ws);
  for (size_t s = 0; s < db.size(); ++s)
    EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
}

INSTANTIATE_TEST_SUITE_P(Lanes, BatchScoreTest, ::testing::Values(32, 64),
                         [](const auto& info) {
                           return "lanes" + std::to_string(info.param);
                         });

// A length-skewed database: mostly short sequences with a few huge outliers
// scattered through it, the worst case for db-order packing.
seq::SequenceDatabase skewed_db(uint64_t seed, int n_short, int n_long,
                                uint32_t long_len) {
  std::mt19937_64 rng(seed);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < n_short; ++i)
    seqs.push_back(seq::generate_sequence(rng(), 30 + static_cast<uint32_t>(rng() % 70)));
  for (int i = 0; i < n_long; ++i) {
    auto pos = seqs.begin() + static_cast<std::ptrdiff_t>(rng() % (seqs.size() + 1));
    seqs.insert(pos, seq::generate_sequence(rng(), long_len));
  }
  return seq::SequenceDatabase(std::move(seqs));
}

TEST(Batch32Db, EveryPolicyPacksEverySequenceExactlyOnce) {
  auto db = skewed_db(11, 150, 2, 2000);
  for (PackingPolicy policy : {PackingPolicy::DbOrder, PackingPolicy::LengthSorted,
                               PackingPolicy::LengthBinned}) {
    Batch32Db bdb(db, 32, policy);
    EXPECT_EQ(bdb.policy(), policy);
    std::vector<int> seen(db.size(), 0);
    uint64_t real = 0, padded = 0;
    for (size_t b = 0; b < bdb.batch_count(); ++b) {
      auto batch = bdb.batch(b);
      uint64_t batch_real = 0;
      for (uint32_t k = 0; k < batch.count; ++k) {
        ++seen[batch.seq_index[k]];
        batch_real += batch.seq_len[k];
      }
      EXPECT_EQ(batch.real_residues, batch_real);
      real += batch.real_residues;
      padded += static_cast<uint64_t>(batch.max_len) * 32;
    }
    for (size_t s = 0; s < db.size(); ++s)
      EXPECT_EQ(seen[s], 1) << packing_policy_name(policy) << " seq " << s;
    EXPECT_EQ(bdb.real_residues(), db.total_residues());
    EXPECT_EQ(real, db.total_residues());
    EXPECT_EQ(bdb.padded_residues(), padded);
  }
}

TEST(Batch32Db, LengthAwarePoliciesBeatDbOrderOnSkewedDb) {
  auto db = skewed_db(12, 300, 3, 3000);
  Batch32Db naive(db, 32, PackingPolicy::DbOrder);
  Batch32Db sorted(db, 32, PackingPolicy::LengthSorted);
  Batch32Db binned(db, 32, PackingPolicy::LengthBinned);
  // Length-sorted packing is padding-optimal; binning approximates it while
  // keeping db order inside each bin. Both must clearly beat naive order,
  // where every batch holding an outlier pads 31 lanes to its length.
  // (Even optimal packing pays for the outliers' own batch — a batch of 3
  // long lanes still pads the other 29 — so assert the relative ordering
  // and a clear margin over naive, not an absolute figure.)
  EXPECT_GT(sorted.packing_efficiency(), 2 * naive.packing_efficiency());
  EXPECT_GT(binned.packing_efficiency(), 2 * naive.packing_efficiency());
  EXPECT_GE(sorted.packing_efficiency(), binned.packing_efficiency());
  EXPECT_LT(naive.packing_efficiency(), 0.5);
}

TEST_P(BatchScoreTest, ScoresIdenticalAcrossPackingPolicies) {
  const int lanes = GetParam();
  auto db = skewed_db(13, 120, 2, 1500);
  Workspace ws;
  AlignConfig cfg;
  cfg.isa = isa_for_lanes(lanes);
  auto q = seq::generate_sequence(80, 120);
  std::vector<int> ref_scores;
  for (PackingPolicy policy : {PackingPolicy::DbOrder, PackingPolicy::LengthSorted,
                               PackingPolicy::LengthBinned}) {
    Batch32Db bdb(db, lanes, policy);
    auto scores = batch_scores(q, bdb, db, cfg, ws);
    ASSERT_EQ(scores.size(), db.size());
    if (ref_scores.empty()) {
      ref_scores = scores;
      for (size_t s = 0; s < db.size(); ++s)
        ASSERT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
    } else {
      EXPECT_EQ(scores, ref_scores) << packing_policy_name(policy);
    }
  }
}

TEST(BatchScores, RescoreLadderClimbsTo16AndThen32Bits) {
  // Fixed match=30 makes saturation cheap to provoke: an identical pair of
  // length L scores 30*L, so L=400 (12000) needs the 16-bit rung and
  // L=1200 (36000) exceeds int16 and needs the 32-bit rung. Both must come
  // back exact, alongside short sequences that never left the 8-bit kernel.
  auto q = seq::generate_sequence(90, 1200);
  std::vector<uint8_t> prefix(q.codes().begin(), q.codes().begin() + 400);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(seq::generate_sequence(91 + static_cast<uint64_t>(i), 60));
  seqs.emplace_back("w16", prefix, seq::Alphabet::protein());    // index 40
  seqs.push_back(seq::mutate(q, 92, 0.0));                       // index 41
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  cfg.scheme = ScoreScheme::Fixed;
  cfg.match = 30;
  cfg.mismatch = -3;
  Workspace ws;
  for (int lanes : {32, 64}) {
    Batch32Db bdb(db, lanes);
    cfg.isa = isa_for_lanes(lanes);
    BatchSearchStats stats;
    auto scores = batch_scores(q, bdb, db, cfg, ws, &stats);
    EXPECT_GE(stats.rescored, 2u) << lanes;      // both planted sequences
    EXPECT_GT(stats.rescored_cells, 0u);
    EXPECT_EQ(scores[40], 30 * 400) << lanes;    // exact prefix match
    EXPECT_EQ(scores[41], 30 * 1200) << lanes;   // exact full-length match
    EXPECT_GT(scores[41], 32767) << "must have used the 32-bit rung";
    for (size_t s = 0; s < db.size(); ++s)
      EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << lanes << "/" << s;
  }
}

TEST(BatchScores, StatsAccountUsefulVersusPaddedCells) {
  auto db = skewed_db(14, 100, 2, 1000);
  Workspace ws;
  AlignConfig cfg;
  auto q = seq::generate_sequence(81, 100);
  for (PackingPolicy policy : {PackingPolicy::DbOrder, PackingPolicy::LengthSorted}) {
    Batch32Db bdb(db, 32, policy);
    BatchSearchStats stats;
    batch_scores(q, bdb, db, cfg, ws, &stats);
    EXPECT_EQ(stats.useful_cells8, db.total_residues() * q.length());
    EXPECT_EQ(stats.cells8, bdb.padded_residues() * q.length());
    EXPECT_NEAR(stats.packing_efficiency(), bdb.packing_efficiency(), 1e-12);
  }
}

TEST(BatchScores, EmptyQueryScoresAllZero) {
  auto db = small_db(8, 5'000);
  Batch32Db bdb(db, 32);
  Workspace ws;
  AlignConfig cfg;
  seq::Sequence e("e", "", seq::Alphabet::protein());
  auto scores = batch_scores(e, bdb, db, cfg, ws);
  for (int s : scores) EXPECT_EQ(s, 0);
}

TEST(BatchScores, TracebackRequestRejected) {
  auto db = small_db(9, 5'000);
  Batch32Db bdb(db, 32);
  Workspace ws;
  AlignConfig cfg;
  cfg.traceback = true;
  auto q = seq::generate_sequence(71, 50);
  EXPECT_THROW(batch_scores(q, bdb, db, cfg, ws), std::invalid_argument);
}

TEST(BatchKernel, ScalarEngineMatchesSimdEngines) {
  auto db = small_db(10, 10'000);
  AlignConfig cfg;
  auto q = seq::generate_sequence(72, 90);
  Workspace ws;
  for (int lanes : {32, 64}) {
    Batch32Db bdb(db, lanes);
    for (size_t b = 0; b < bdb.batch_count(); ++b) {
      auto batch = bdb.batch(b);
      Batch8Result ref =
          batch32_u8_scalar(q, batch.columns, batch.max_len, lanes, cfg, ws);
      Batch8Result got =
          batch32_align_u8(q, batch, lanes, cfg, ws, simd::resolve_isa(simd::Isa::Auto));
      for (int k = 0; k < lanes; ++k)
        EXPECT_EQ(got.max_score[k], ref.max_score[k]) << "batch " << b << " lane " << k;
      EXPECT_EQ(got.saturated_mask, ref.saturated_mask);
    }
  }
}

TEST(BatchKernel, SignedStripsMatchScalarRefOnEdgeConfigs) {
  // Edge shapes of the column-strip walk (ncols below the strip width and
  // not a multiple of it, m = 1) and edge values of the signed domain
  // (scores and gap penalties beyond a signed byte). Every engine must
  // match the emulated one byte for byte, saturated lanes included, and
  // ref_align on every lane it did not flag.
  std::vector<std::pair<simd::Isa, int>> engines = {{simd::Isa::Scalar, 32},
                                                    {simd::Isa::Scalar, 64}};
  if (simd::isa_available(simd::Isa::Avx2)) engines.push_back({simd::Isa::Avx2, 32});
  if (simd::isa_available(simd::Isa::Avx512) && simd::cpu_features().avx512vbmi)
    engines.push_back({simd::Isa::Avx512, 64});

  struct Edge {
    const char* name;
    AlignConfig cfg;
  };
  std::vector<Edge> edges;
  edges.push_back({"blosum62 affine", AlignConfig{}});
  {
    AlignConfig c;
    c.gap_model = GapModel::Linear;
    c.gap_extend = 4;
    edges.push_back({"blosum62 linear", c});
  }
  {
    AlignConfig c;
    c.scheme = ScoreScheme::Fixed;
    c.match = 3;
    c.mismatch = -2;
    c.gap_model = GapModel::Linear;
    c.gap_extend = 2;
    edges.push_back({"fixed 3/-2 linear", c});
  }
  {
    AlignConfig c;  // scores beyond a signed byte
    c.scheme = ScoreScheme::Fixed;
    c.match = 130;
    c.mismatch = -200;
    edges.push_back({"fixed 130/-200", c});
  }
  {
    AlignConfig c;  // penalties beyond a signed byte
    c.gap_open = 200;
    c.gap_extend = 150;
    edges.push_back({"penalties 200/150", c});
  }
  {
    AlignConfig c;  // the same, with scores that climb past 128 quickly
    c.scheme = ScoreScheme::Fixed;
    c.match = 30;
    c.mismatch = -3;
    c.gap_open = 200;
    c.gap_extend = 150;
    edges.push_back({"fixed 30/-3 penalties 200/150", c});
  }
  {
    AlignConfig c;
    c.gap_model = GapModel::Linear;
    c.gap_extend = 150;
    edges.push_back({"linear 150", c});
  }

  const seq::Sequence q = seq::generate_sequence(73, 100);
  const std::vector<seq::Sequence> queries = {seq::generate_sequence(74, 1), q};
  std::mt19937_64 rng(75);
  std::vector<seq::SequenceDatabase> dbs;
  for (uint32_t ncols : {1u, 3u, 5u, 6u, 7u}) {
    std::vector<seq::Sequence> seqs;
    for (int i = 0; i < 9; ++i)
      seqs.push_back(seq::generate_sequence(rng(), 1 + static_cast<uint32_t>(rng() % ncols)));
    seqs.push_back(seq::generate_sequence(rng(), ncols));
    dbs.emplace_back(std::move(seqs));
  }
  {
    std::vector<seq::Sequence> seqs;  // a homolog that saturates
    for (int i = 0; i < 9; ++i)
      seqs.push_back(seq::generate_sequence(rng(), 30 + static_cast<uint32_t>(rng() % 40)));
    seqs.push_back(seq::mutate(q, 76, 0.03));
    // Two 5-residue exact matches split by one inserted residue. Under
    // Fixed 30/-3 with penalties over 127, a kernel that read the clamped
    // penalty would join them (150 + 150 - 127) below the unsigned limit.
    std::vector<uint8_t> split(q.codes().begin() + 10, q.codes().begin() + 15);
    uint8_t inserted = 0;
    while (inserted == q.codes()[14] || inserted == q.codes()[15]) ++inserted;
    split.push_back(inserted);
    split.insert(split.end(), q.codes().begin() + 15, q.codes().begin() + 20);
    seqs.emplace_back("split", split, seq::Alphabet::protein());
    dbs.emplace_back(std::move(seqs));
  }

  Workspace ws;
  for (auto [isa, lanes] : engines) {
    for (const Edge& edge : edges) {
      uint64_t saturated = 0;
      for (const seq::SequenceDatabase& db : dbs) {
        Batch32Db bdb(db, lanes);
        for (const seq::Sequence& query : queries) {
          for (size_t b = 0; b < bdb.batch_count(); ++b) {
            const auto batch = bdb.batch(b);
            const Batch8Result ref = batch32_u8_scalar(query, batch.columns, batch.max_len,
                                                       lanes, edge.cfg, ws);
            const Batch8Result got =
                batch32_align_u8(query, batch, lanes, edge.cfg, ws, isa);
            const std::string where = std::string(simd::isa_name(isa)) + "/" +
                                      std::to_string(lanes) + " " + edge.name +
                                      " m=" + std::to_string(query.length()) +
                                      " ncols=" + std::to_string(batch.max_len);
            EXPECT_EQ(got.saturated_mask, ref.saturated_mask) << where;
            for (int k = 0; k < lanes; ++k)
              EXPECT_EQ(got.max_score[k], ref.max_score[k]) << where << " lane " << k;
            for (uint32_t k = 0; k < batch.count; ++k) {
              if (got.saturated_mask & (uint64_t{1} << k)) continue;
              EXPECT_EQ(got.max_score[k],
                        ref_align(query, db[batch.seq_index[k]], edge.cfg).score)
                  << where << " lane " << k;
            }
            saturated |= got.saturated_mask;
          }
        }
      }
      EXPECT_NE(saturated, 0u) << edge.name << ": the homolog must saturate";
    }
  }
}

// batch32_align_u8_group runs a group of batches one after the other; each
// result must equal a batch32_align_u8 call on that batch alone.

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

/// Per-batch reference: one batch32_align_u8 call per batch.
std::vector<Batch8Result> per_batch(seq::SeqView q, const Batch32Db& bdb, int lanes,
                                    const AlignConfig& cfg, Workspace& ws,
                                    simd::Isa isa) {
  std::vector<Batch8Result> ref(bdb.batch_count());
  for (size_t b = 0; b < ref.size(); ++b)
    ref[b] = batch32_align_u8(q, bdb.batch(b), lanes, cfg, ws, isa);
  return ref;
}

void expect_same(const Batch8Result& got, const Batch8Result& ref, int lanes,
                 const char* what, size_t batch) {
  for (int k = 0; k < lanes; ++k)
    EXPECT_EQ(got.max_score[k], ref.max_score[k])
        << what << " batch " << batch << " lane " << k;
  EXPECT_EQ(got.saturated_mask, ref.saturated_mask) << what << " batch " << batch;
}

TEST(BatchKernel, GroupMatchesPerBatchCallsAcrossIsas) {
  auto db = small_db(21, 60'000);
  auto q = seq::generate_sequence(101, 90);
  Workspace ws;
  for (auto [isa, lanes] : isa_lane_cases()) {
    for (ScoreScheme scheme : {ScoreScheme::Matrix, ScoreScheme::Fixed}) {
      for (GapModel gaps : {GapModel::Affine, GapModel::Linear}) {
        AlignConfig cfg;
        cfg.isa = isa;
        cfg.scheme = scheme;
        cfg.gap_model = gaps;
        if (scheme == ScoreScheme::Fixed) {
          cfg.match = 3;
          cfg.mismatch = -2;
        }
        Batch32Db bdb(db, lanes);
        const std::vector<BatchCols> cols = all_cols(bdb);
        ASSERT_GE(cols.size(), 3u) << "need several batches for a meaningful group";
        const std::vector<Batch8Result> ref = per_batch(q, bdb, lanes, cfg, ws, isa);
        std::vector<Batch8Result> got(cols.size());
        batch32_align_u8_group(q, cols.data(), static_cast<int>(cols.size()), lanes,
                               cfg, ws, isa, 1, got.data());
        for (size_t b = 0; b < cols.size(); ++b)
          expect_same(got[b], ref[b], lanes, simd::isa_name(isa), b);
      }
    }
  }
}

TEST(BatchKernel, GroupRaggedCountsDecomposeExactly) {
  auto db = small_db(22, 30'000, 20, 200);
  auto q = seq::generate_sequence(102, 70);
  Workspace ws;
  AlignConfig cfg;
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  Batch32Db bdb(db, 32);
  const std::vector<BatchCols> cols = all_cols(bdb);
  const std::vector<Batch8Result> ref = per_batch(q, bdb, 32, cfg, ws, isa);
  for (int count : {1, 2, 3, 5, 7}) {
    if (count > static_cast<int>(cols.size())) break;
    std::vector<Batch8Result> got(static_cast<size_t>(count));
    batch32_align_u8_group(q, cols.data(), count, 32, cfg, ws, isa, 1, got.data());
    for (int b = 0; b < count; ++b)
      expect_same(got[static_cast<size_t>(b)], ref[static_cast<size_t>(b)], 32,
                  "ragged", static_cast<size_t>(b));
  }
}

TEST(BatchKernel, GroupSaturationMaskIsPerBatch) {
  // Plant a near-copy of the query so one lane of one batch saturates; a
  // group call must set exactly the per-batch mask bits of single calls.
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
    const std::vector<Batch8Result> ref = per_batch(q, bdb, lanes, cfg, ws, isa);
    uint64_t any_saturated = 0;
    for (const Batch8Result& r : ref) any_saturated |= r.saturated_mask;
    ASSERT_NE(any_saturated, 0u) << "setup must provoke saturation";
    std::vector<Batch8Result> got(cols.size());
    batch32_align_u8_group(q, cols.data(), static_cast<int>(cols.size()), lanes,
                           cfg, ws, isa, 1, got.data());
    for (size_t b = 0; b < cols.size(); ++b)
      expect_same(got[b], ref[b], lanes, "saturation", b);
  }
}

}  // namespace
}  // namespace swve::core
