// Runtime dispatch of the diagonal kernel family: ISA resolution, the
// 8 -> 16 -> 32 bit adaptive-width ladder (contribution iii), and the
// traceback walk over the kernel's diagonal-major direction flags.
#pragma once

#include "core/diag_kernel.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "core/workspace.hpp"
#include "seq/sequence.hpp"

namespace swve::core {

// Per-ISA entry points (defined in their own translation units compiled
// with the matching -m flags). `width` must be concrete (not Adaptive).
DiagOutput diag_scalar(const DiagRequest& rq, Width width);
#if defined(SWVE_HAVE_SSE41_BUILD)
DiagOutput diag_sse41(const DiagRequest& rq, Width width);
#endif
#if defined(SWVE_HAVE_AVX2_BUILD)
DiagOutput diag_avx2(const DiagRequest& rq, Width width);
#endif
#if defined(SWVE_HAVE_AVX512_BUILD)
DiagOutput diag_avx512(const DiagRequest& rq, Width width);
#endif

/// Run one kernel at a concrete ISA and width. `isa` must already be
/// resolved (not Auto) and available on this CPU.
DiagOutput run_diag_kernel(const DiagRequest& rq, simd::Isa isa, Width width);

/// The concrete ScoreDelivery that ScoreDelivery::Auto resolves to for a
/// resolved `isa`: the per-ISA override if one is pinned; else Shuffle for
/// AVX-512 on a VBMI host (no timing); else the cached one-time Gather vs
/// Fill micro-calibration result for this machine.
ScoreDelivery resolved_delivery(simd::Isa isa);

/// Pin what Auto resolves to for `isa` (tests and the service use this to
/// fix a delivery path deterministically instead of depending on hidden
/// calibration state). Passing ScoreDelivery::Auto clears the pin.
/// Thread-safe; takes effect for subsequent calls.
void set_delivery_override(simd::Isa isa, ScoreDelivery delivery);

/// Batches per work unit of the batch scan: always 1. swvebench's
/// KernelReplay still calls it; it goes with that replay (ROADMAP item 2).
constexpr int resolved_ilp(simd::Isa) noexcept { return 1; }

/// Full alignment through the diagonal kernel family: resolves the ISA,
/// runs the adaptive width ladder (8 -> 16 -> 32 bits; a rung stops as soon
/// as it saturates, since its result is discarded) or the one fixed width,
/// and (if requested) walks the traceback.
/// This is the paper's aligner; align::Aligner wraps it for public use.
/// `prep`, when non-null, must be a PreparedQuery built from exactly `q`;
/// the kernels then skip rebuilding the per-query feed arrays (bit-identical
/// results, less per-call setup — see core::PreparedQuery).
Alignment diag_align(seq::SeqView q, seq::SeqView r, const AlignConfig& cfg,
                     Workspace& ws, const PreparedQuery* prep = nullptr);

/// diag_align's width ladder entered at rung `first` (W8, W16 or W32)
/// whatever cfg.width says, climbing to W32 as needed. For callers that
/// already know the narrower rungs are wasted: the batch rescore of a lane
/// that saturated at 8 bits starts at W16, and a re-alignment of a known
/// exact score starts at narrowest_width(score). The result is the same
/// exact alignment an Adaptive diag_align returns (saturated_8/16 record
/// only the rungs actually run).
Alignment diag_align_from(seq::SeqView q, seq::SeqView r,
                          const AlignConfig& cfg, Workspace& ws, Width first,
                          const PreparedQuery* prep = nullptr);

/// The narrowest rung of the width ladder that holds an exact score of
/// `score` under `cfg` without saturating (W8, W16 or W32).
Width narrowest_width(int score, const AlignConfig& cfg);

}  // namespace swve::core
