// AVX2 batch engine: 32 sequence lanes, matrix-row lookup via two pshufb
// halves (compiled with -mavx2).
#include <immintrin.h>

#include "core/batch32_kernel.hpp"

namespace swve::core {

namespace {

struct BatchAvx2 {
  using vec = __m256i;
  static constexpr int lanes = 32;
  static constexpr int strip = batch_strip_cols(lanes);

  // Per column: the symbol as an index into each 16-entry row half, with
  // bit 7 set (pshufb then yields 0) where the other half holds the entry.
  // Depends only on the column, so it is built once per strip.
  struct col_t {
    __m256i lo, hi;
  };
  // Per query row: the 32-byte score row, each half in both 128-bit lanes.
  struct row_t {
    __m256i lo, hi;
  };

  static vec set1(int x) { return _mm256_set1_epi8(static_cast<char>(x)); }
  static vec load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  static void store(void* p, vec a) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), a);
  }
  static vec adds(vec a, vec b) { return _mm256_adds_epi8(a, b); }
  static vec subs(vec a, vec b) { return _mm256_subs_epi8(a, b); }
  static vec max(vec a, vec b) { return _mm256_max_epi8(a, b); }
  static col_t prep_col(vec sym) {
    // sym in [0, 32): +0x70 keeps 0..15 below 0x80 and pushes 16..31 to
    // 0x80.., -0x10 maps 16..31 to 0..15 and wraps 0..15 to 0xF0...
    return {_mm256_add_epi8(sym, _mm256_set1_epi8(0x70)),
            _mm256_sub_epi8(sym, _mm256_set1_epi8(0x10))};
  }
  static row_t load_row(const int8_t* row32) {
    return {_mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(row32))),
            _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(row32 + 16)))};
  }
  static vec lookup(const row_t& row, const col_t& idx) {
    return _mm256_or_si256(_mm256_shuffle_epi8(row.lo, idx.lo),
                           _mm256_shuffle_epi8(row.hi, idx.hi));
  }
  static void prefetch(const void* p) {
    _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
  }
};

}  // namespace

Batch8Result batch32_u8_avx2(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                             const AlignConfig& cfg, Workspace& ws) {
  return batch32_kernel<BatchAvx2>(q, columns, cols, cfg, ws);
}

}  // namespace swve::core
