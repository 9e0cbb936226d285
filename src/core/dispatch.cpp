#include "core/dispatch.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace swve::core {

namespace {

// One-time per-ISA micro-calibration of Matrix-mode score delivery where
// no byte shuffle exists: gather throughput differs by an order of
// magnitude across microarchitectures (Downfall-mitigated parts make
// vpgatherdd glacial), so time both paths once on a small synthetic pair
// and cache the winner.
ScoreDelivery calibrate_delivery(simd::Isa isa) {
  constexpr int kLen = 384;
  std::vector<uint8_t> q(kLen), r(kLen);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto rnd = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (auto& c : q) c = static_cast<uint8_t>(rnd() % 20);
  for (auto& c : r) c = static_cast<uint8_t>(rnd() % 20);

  Workspace ws;
  AlignConfig cfg;
  cfg.isa = isa;
  cfg.width = Width::W16;
  DiagRequest rq;
  rq.q = q.data();
  rq.m = kLen;
  rq.r = r.data();
  rq.n = kLen;
  rq.cfg = &cfg;
  rq.ws = &ws;

  auto time_mode = [&](ScoreDelivery d) {
    cfg.delivery = d;
    run_diag_kernel(rq, isa, Width::W16);  // warm-up
    auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < 3; ++k) run_diag_kernel(rq, isa, Width::W16);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const double gather_t = time_mode(ScoreDelivery::Gather);
  return time_mode(ScoreDelivery::Fill) < gather_t ? ScoreDelivery::Fill
                                                   : ScoreDelivery::Gather;
}

int delivery_slot(simd::Isa isa) {
  return isa == simd::Isa::Avx512  ? 3
         : isa == simd::Isa::Avx2  ? 2
         : isa == simd::Isa::Sse41 ? 1
                                   : 0;
}

// Per-ISA pins (Auto == not pinned). Checked before the VBMI rule and the
// calibration cache so tests/services can force a path.
std::atomic<ScoreDelivery> g_delivery_override[4] = {
    ScoreDelivery::Auto, ScoreDelivery::Auto, ScoreDelivery::Auto,
    ScoreDelivery::Auto};

}  // namespace

ScoreDelivery resolved_delivery(simd::Isa isa) {
  const int idx = delivery_slot(isa);
  ScoreDelivery pinned = g_delivery_override[idx].load(std::memory_order_acquire);
  if (pinned != ScoreDelivery::Auto) return pinned;
  // The VBMI byte shuffle needs no timing: one lookup per 64 rows at 8 and
  // 16 bits against four gathers. A calibration timed on one rung also
  // misjudges the other: on the 16-bit rung the two are within noise, on
  // the 8-bit rung the shuffle is far faster.
  if (isa == simd::Isa::Avx512 && simd::isa_available(isa) &&
      simd::cpu_features().avx512vbmi)
    return ScoreDelivery::Shuffle;
  static std::once_flag once[4];
  static ScoreDelivery cache[4];
  std::call_once(once[idx], [&] { cache[idx] = calibrate_delivery(isa); });
  return cache[idx];
}

void set_delivery_override(simd::Isa isa, ScoreDelivery delivery) {
  g_delivery_override[delivery_slot(isa)].store(delivery,
                                                std::memory_order_release);
}

DiagOutput run_diag_kernel(const DiagRequest& rq, simd::Isa isa, Width width) {
  if (width == Width::Adaptive)
    throw std::invalid_argument("run_diag_kernel: width must be concrete");
  switch (isa) {
#if defined(SWVE_HAVE_SSE41_BUILD)
    case simd::Isa::Sse41:
      return diag_sse41(rq, width);
#endif
#if defined(SWVE_HAVE_AVX2_BUILD)
    case simd::Isa::Avx2:
      return diag_avx2(rq, width);
#endif
#if defined(SWVE_HAVE_AVX512_BUILD)
    case simd::Isa::Avx512:
      return diag_avx512(rq, width);
#endif
    case simd::Isa::Scalar:
      return diag_scalar(rq, width);
    default:
      throw std::invalid_argument("run_diag_kernel: unresolved or unbuilt ISA");
  }
}

namespace {

// The width ladder (contribution iii): rungs `first` .. `last` in order
// until one does not saturate. Every rung but the last stops as soon as it
// saturates (DiagRequest::stop_on_saturation): its result is discarded.
Alignment run_ladder(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                     Workspace& ws, const PreparedQuery* prep, Width first,
                     Width last) {
  cfg.validate();
  const simd::Isa isa = simd::resolve_isa(cfg.isa);
  AlignConfig resolved = cfg;
  if (resolved.scheme == ScoreScheme::Matrix &&
      resolved.delivery == ScoreDelivery::Auto)
    resolved.delivery = resolved_delivery(isa);
  DiagRequest rq;
  rq.q = q.data;
  rq.m = static_cast<int>(q.length);
  rq.r = r.data;
  rq.n = static_cast<int>(r.length);
  rq.cfg = &resolved;
  rq.ws = &ws;
  rq.prep = prep;

  Alignment a;
  a.isa_used = isa;
  DiagOutput o;
  // Width lists the rungs narrowest first, so w + 1 is the next rung.
  for (Width w = first;; w = static_cast<Width>(static_cast<int>(w) + 1)) {
    rq.stop_on_saturation = w != last;
    o = run_diag_kernel(rq, isa, w);
    a.width_used = w;
    a.stats += o.stats;
    if (!o.saturated) break;
    if (w == Width::W8) a.saturated_8 = true;
    if (w == Width::W16) a.saturated_16 = true;
    if (w == last) break;
  }
  a.score = o.score;
  a.end_query = o.end_query;
  a.end_ref = o.end_ref;
  a.saturated = o.saturated;

  if (cfg.traceback && o.score > 0 && !o.saturated) {
    DiagTracebackView view{static_cast<const uint8_t*>(ws.tb_dirs.data()),
                           static_cast<const uint64_t*>(ws.tb_offsets.data()),
                           rq.n, cfg.band};
    TracebackResult t = walk_traceback(view, o.end_query, o.end_ref);
    a.begin_query = t.begin_query;
    a.begin_ref = t.begin_ref;
    a.cigar = std::move(t.cigar);
  }
  return a;
}

}  // namespace

Alignment diag_align(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                     Workspace& ws, const PreparedQuery* prep) {
  if (cfg.width == Width::Adaptive)
    return run_ladder(q, r, cfg, ws, prep, Width::W8, Width::W32);
  return run_ladder(q, r, cfg, ws, prep, cfg.width, cfg.width);
}

Alignment diag_align_from(seq::SeqView q, seq::SeqView r,
                          const AlignConfig& cfg, Workspace& ws, Width first,
                          const PreparedQuery* prep) {
  if (first == Width::Adaptive)
    throw std::invalid_argument("diag_align_from: first rung must be concrete");
  return run_ladder(q, r, cfg, ws, prep, first, Width::W32);
}

Width narrowest_width(int score, const AlignConfig& cfg) {
  if (score < saturation_limit(UINT8_MAX, cfg)) return Width::W8;
  if (score < saturation_limit(UINT16_MAX, cfg)) return Width::W16;
  return Width::W32;
}

}  // namespace swve::core
