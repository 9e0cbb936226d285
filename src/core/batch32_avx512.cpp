// AVX-512-VBMI batch engine: 64 sequence lanes, matrix-row lookup via one
// vpermb (compiled with -mavx512bw -mavx512vbmi). Caller guarantees the CPU
// has VBMI (see batch32_align_u8).
#include <immintrin.h>

#include "core/batch32_kernel.hpp"

namespace swve::core {

namespace {

struct BatchAvx512 {
  using vec = __m512i;
  using col_t = __m512i;  // the symbols themselves index the row
  using row_t = __m512i;
  static constexpr int lanes = 64;
  static constexpr int strip = batch_strip_cols(lanes);

  static vec set1(int x) { return _mm512_set1_epi8(static_cast<char>(x)); }
  static vec load(const void* p) { return _mm512_loadu_si512(p); }
  static void store(void* p, vec a) { _mm512_storeu_si512(p, a); }
  static vec adds(vec a, vec b) { return _mm512_adds_epi8(a, b); }
  static vec subs(vec a, vec b) { return _mm512_subs_epi8(a, b); }
  static vec max(vec a, vec b) { return _mm512_max_epi8(a, b); }
  static col_t prep_col(vec sym) { return sym; }
  static row_t load_row(const int8_t* row32) {
    // The 32-byte row broadcast twice fills a zmm register; indices are in
    // [0, 32) so vpermb selects from the first copy.
    return _mm512_broadcast_i64x4(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row32)));
  }
  static vec lookup(row_t row, col_t idx) {
    return _mm512_permutexvar_epi8(idx, row);
  }
  static void prefetch(const void* p) {
    _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
  }
};

}  // namespace

Batch8Result batch32_u8_avx512(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                               const AlignConfig& cfg, Workspace& ws) {
  return batch32_kernel<BatchAvx512>(q, columns, cols, cfg, ws);
}

}  // namespace swve::core
