#include "core/batch32.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/batch32_kernel.hpp"
#include "core/dispatch.hpp"

namespace swve::core {

const char* packing_policy_name(PackingPolicy p) noexcept {
  switch (p) {
    case PackingPolicy::DbOrder: return "db-order";
    case PackingPolicy::LengthSorted: return "length-sorted";
    case PackingPolicy::LengthBinned: return "length-binned";
  }
  return "?";
}

namespace {

/// Sequence order the batches are cut from, per policy.
std::vector<uint32_t> packing_order(const seq::SequenceDatabase& db,
                                    PackingPolicy policy) {
  switch (policy) {
    case PackingPolicy::LengthSorted:
      return db.by_length();  // ascending length: minimal padding
    case PackingPolicy::DbOrder: {
      std::vector<uint32_t> order(db.size());
      for (size_t s = 0; s < db.size(); ++s)
        order[s] = static_cast<uint32_t>(s);
      return order;
    }
    case PackingPolicy::LengthBinned: {
      // Geometric bins: bin b holds lengths in [2^b, 2^(b+1)), so every
      // batch mixes lengths within at most 2x. A counting pass sizes the
      // bins, then a stable scatter preserves database order inside each.
      auto bin_of = [](size_t len) {
        return len == 0 ? 0 : static_cast<int>(std::bit_width(len)) - 1;
      };
      int max_bin = 0;
      for (size_t s = 0; s < db.size(); ++s)
        max_bin = std::max(max_bin, bin_of(db[s].length()));
      std::vector<size_t> bin_start(static_cast<size_t>(max_bin) + 2, 0);
      for (size_t s = 0; s < db.size(); ++s)
        ++bin_start[static_cast<size_t>(bin_of(db[s].length())) + 1];
      for (size_t b = 1; b < bin_start.size(); ++b)
        bin_start[b] += bin_start[b - 1];
      std::vector<uint32_t> order(db.size());
      for (size_t s = 0; s < db.size(); ++s)
        order[bin_start[static_cast<size_t>(bin_of(db[s].length()))]++] =
            static_cast<uint32_t>(s);
      return order;
    }
  }
  return db.by_length();
}

}  // namespace

Batch32Db::Batch32Db(const seq::SequenceDatabase& db, int lanes,
                     PackingPolicy policy)
    : lanes_(lanes), policy_(policy) {
  if (lanes != 32 && lanes != 64)
    throw std::invalid_argument("Batch32Db: lanes must be 32 or 64");
  total_seqs_ = db.size();
  const std::vector<uint32_t> order = packing_order(db, policy);

  for (size_t start = 0; start < order.size(); start += static_cast<size_t>(lanes)) {
    const size_t count = std::min(static_cast<size_t>(lanes), order.size() - start);
    uint32_t max_len = 0;
    for (size_t k = 0; k < count; ++k)
      max_len = std::max(max_len,
                         static_cast<uint32_t>(db[order[start + k]].length()));
    if (max_len == 0) continue;  // batch of empty sequences: nothing to score

    BatchRecord meta;
    meta.column_offset = columns_.size();
    meta.index_offset = seq_index_.size();
    meta.max_len = max_len;
    meta.count = static_cast<uint32_t>(count);
    meta.real_residues = 0;

    for (size_t k = 0; k < count; ++k) {
      seq_index_.push_back(order[start + k]);
      seq_len_.push_back(static_cast<uint32_t>(db[order[start + k]].length()));
    }

    // Transpose: column j holds residue j of every lane (pad past the end).
    const size_t base = columns_.size();
    columns_.resize(base + static_cast<size_t>(max_len) * static_cast<size_t>(lanes),
                    kBatchPadCode);
    for (size_t k = 0; k < count; ++k) {
      const seq::Sequence& s = db[order[start + k]];
      const uint8_t* codes = s.data();
      for (size_t j = 0; j < s.length(); ++j)
        columns_[base + j * static_cast<size_t>(lanes) + k] = codes[j];
      meta.real_residues += s.length();
    }
    real_residues_ += meta.real_residues;
    padded_residues_ +=
        static_cast<uint64_t>(max_len) * static_cast<uint64_t>(lanes);
    batches_.push_back(meta);
  }

  columns_p_ = columns_.data();
  seq_index_p_ = seq_index_.data();
  seq_len_p_ = seq_len_.data();
  batches_p_ = batches_.data();
  batch_count_ = batches_.size();
  column_bytes_ = columns_.size();
  index_entries_ = seq_index_.size();
  plan_cost_order();
}

Batch32Db::Batch32Db(const PackedView& view)
    : lanes_(view.lanes),
      policy_(view.policy),
      view_(true),
      total_seqs_(view.total_seqs),
      real_residues_(view.real_residues),
      padded_residues_(view.padded_residues),
      columns_p_(view.columns),
      seq_index_p_(view.seq_index),
      seq_len_p_(view.seq_len),
      batches_p_(view.batches),
      batch_count_(view.batch_count) {
  if (lanes_ != 32 && lanes_ != 64)
    throw std::invalid_argument("Batch32Db: lanes must be 32 or 64");
  for (size_t b = 0; b < batch_count_; ++b) {
    const BatchRecord& r = batches_p_[b];
    column_bytes_ =
        std::max(column_bytes_,
                 static_cast<size_t>(r.column_offset) +
                     static_cast<size_t>(r.max_len) * static_cast<size_t>(lanes_));
    index_entries_ = std::max(
        index_entries_, static_cast<size_t>(r.index_offset) + r.count);
  }
  plan_cost_order();
}

void Batch32Db::plan_cost_order() {
  // Every batch costs max_len * lanes cells per query residue, so ordering
  // by max_len is ordering by cost.
  cost_order_.resize(batch_count_);
  for (size_t b = 0; b < batch_count_; ++b)
    cost_order_[b] = static_cast<uint32_t>(b);
  std::stable_sort(cost_order_.begin(), cost_order_.end(),
                   [this](uint32_t a, uint32_t b) {
                     return batches_p_[a].max_len > batches_p_[b].max_len;
                   });
}

Batch32Db::Batch Batch32Db::batch(size_t b) const noexcept {
  const BatchRecord& meta = batches_p_[b];
  return Batch{columns_p_ + meta.column_offset, meta.max_len, meta.count,
               seq_index_p_ + meta.index_offset,
               seq_len_p_ + meta.index_offset, meta.real_residues};
}

std::span<const uint8_t> Batch32Db::column_bytes() const noexcept {
  return {columns_p_, column_bytes_};
}
std::span<const uint8_t> Batch32Db::column_range(
    size_t first_batch, size_t end_batch) const noexcept {
  if (first_batch >= end_batch || end_batch > batch_count_) return {};
  const size_t begin = batches_p_[first_batch].column_offset;
  const size_t end = end_batch < batch_count_
                         ? static_cast<size_t>(batches_p_[end_batch].column_offset)
                         : column_bytes_;
  if (begin >= end || end > column_bytes_) return {};
  return {columns_p_ + begin, end - begin};
}
std::span<const uint32_t> Batch32Db::seq_index_data() const noexcept {
  return {seq_index_p_, index_entries_};
}
std::span<const uint32_t> Batch32Db::seq_len_data() const noexcept {
  return {seq_len_p_, index_entries_};
}
std::span<const BatchRecord> Batch32Db::batch_records() const noexcept {
  return {batches_p_, batch_count_};
}

double Batch32Db::packing_efficiency() const noexcept {
  return padded_residues_ == 0
             ? 0.0
             : static_cast<double>(real_residues_) /
                   static_cast<double>(padded_residues_);
}

double Batch32Db::padding_overhead() const noexcept {
  return real_residues_ == 0
             ? 0.0
             : static_cast<double>(padded_residues_) /
                       static_cast<double>(real_residues_) -
                   1.0;
}

Batch8Result batch32_u8_scalar(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                               int lanes, const AlignConfig& cfg, Workspace& ws) {
  if (lanes == 64) return batch32_kernel<EmuBatchEngine<64>>(q, columns, cols, cfg, ws);
  return batch32_kernel<EmuBatchEngine<32>>(q, columns, cols, cfg, ws);
}

namespace {

Batch8Result batch32_dispatch(seq::SeqView q, const uint8_t* columns,
                              uint32_t cols, int lanes, const AlignConfig& cfg,
                              Workspace& ws, simd::Isa isa) {
#if defined(SWVE_HAVE_AVX512_BUILD)
  if (lanes == 64 && isa == simd::Isa::Avx512 && simd::cpu_features().avx512vbmi)
    return batch32_u8_avx512(q, columns, cols, cfg, ws);
#endif
#if defined(SWVE_HAVE_AVX2_BUILD)
  if (lanes == 32 && (isa == simd::Isa::Avx2 || isa == simd::Isa::Avx512) &&
      simd::cpu_features().avx2)
    return batch32_u8_avx2(q, columns, cols, cfg, ws);
#endif
  return batch32_u8_scalar(q, columns, cols, lanes, cfg, ws);
}

}  // namespace

Batch8Result batch32_align_u8(seq::SeqView q, const Batch32Db::Batch& batch, int lanes,
                              const AlignConfig& cfg, Workspace& ws, simd::Isa isa) {
  cfg.validate();
  return batch32_dispatch(q, batch.columns, batch.max_len, lanes, cfg, ws, isa);
}

void batch32_align_u8_group(seq::SeqView q, const BatchCols* batches, int count,
                            int lanes, const AlignConfig& cfg, Workspace& ws,
                            simd::Isa isa, int /*k_interleave*/, Batch8Result* out) {
  cfg.validate();
  for (int b = 0; b < count; ++b)
    out[b] = batch32_dispatch(q, batches[b].columns, batches[b].ncols, lanes, cfg,
                              ws, isa);
}

int batch_lanes_for(simd::Isa isa) noexcept {
  return isa == simd::Isa::Avx512 && simd::cpu_features().avx512vbmi ? 64 : 32;
}

void check_batch_scan(const AlignConfig& cfg, const Batch32Db& bdb) {
  if (cfg.traceback)
    throw std::invalid_argument("batch scan: traceback is not supported; "
                                "re-align candidates with Aligner instead");
  if (cfg.band >= 0)
    throw std::invalid_argument("batch scan: banding is not supported by the "
                                "inter-sequence kernel");
  // 32 lanes run everywhere; 64 need AVX-512-VBMI or the scalar engine,
  // which emulates either width.
  const int lanes = bdb.lanes();
  const simd::Isa isa = simd::resolve_isa(cfg.isa);
  if (lanes != 32 && lanes != batch_lanes_for(isa) && isa != simd::Isa::Scalar)
    throw std::invalid_argument("batch scan: database packed for a different ISA");
}

void scan_batches(seq::SeqView q, const Batch32Db& bdb,
                  const seq::SequenceDatabase& db,
                  std::span<const uint32_t> batch_ids, const AlignConfig& cfg,
                  Workspace& ws, const PreparedQuery* prep,
                  std::vector<LaneScore>& out, BatchSearchStats& stats) {
  cfg.validate();
  const simd::Isa isa = simd::resolve_isa(cfg.isa);
  const int lanes = bdb.lanes();
  for (const uint32_t id : batch_ids) {
    const Batch32Db::Batch batch = bdb.batch(id);
    const Batch8Result r8 =
        batch32_dispatch(q, batch.columns, batch.max_len, lanes, cfg, ws, isa);
    stats.cells8 += static_cast<uint64_t>(batch.max_len) * q.length *
                    static_cast<uint64_t>(lanes);
    stats.useful_cells8 += batch.real_residues * q.length;
    for (uint32_t k = 0; k < batch.count; ++k) {
      const uint32_t seq_idx = batch.seq_index[k];
      int score = r8.max_score[k];
      if (r8.saturated_mask & (uint64_t{1} << k)) {
        // Exact re-score: the rest of the width ladder, from 16 bits.
        const seq::Sequence& s = db[seq_idx];
        score = diag_align_from(q, s, cfg, ws, Width::W16, prep).score;
        stats.rescored++;
        stats.rescored_cells += q.length * s.length();
      }
      out.push_back(LaneScore{seq_idx, score});
    }
  }
}

std::vector<int> batch_scores(seq::SeqView q, const Batch32Db& bdb,
                              const seq::SequenceDatabase& db, const AlignConfig& cfg,
                              Workspace& ws, BatchSearchStats* stats,
                              const PreparedQuery* prep) {
  cfg.validate();
  check_batch_scan(cfg, bdb);
  std::vector<LaneScore> lanes;
  lanes.reserve(bdb.sequence_count());
  BatchSearchStats local{};
  scan_batches(q, bdb, db, bdb.cost_order(), cfg, ws, prep, lanes, local);
  std::vector<int> scores(db.size(), 0);
  for (const LaneScore& l : lanes) scores[l.seq_index] = l.score;
  if (stats) *stats = local;
  return scores;
}

}  // namespace swve::core
