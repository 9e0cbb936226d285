// google-benchmark microbenchmarks of the individual kernels: the numbers
// behind every figure, at kernel granularity (ISA x width x scheme), plus
// the batch32 and baseline kernels.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>

#include "baseline/diag_basic.hpp"
#include "baseline/scan.hpp"
#include "baseline/striped.hpp"
#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

using namespace swve;

namespace {

core::Workspace& tls_ws() {
  static thread_local core::Workspace ws;
  return ws;
}

const seq::Sequence& bench_query(int len) {
  static std::map<int, seq::Sequence> cache;
  auto it = cache.find(len);
  if (it == cache.end())
    it = cache.emplace(len, seq::generate_sequence(7, static_cast<uint32_t>(len))).first;
  return it->second;
}

const seq::Sequence& bench_target() {
  static const seq::Sequence t = seq::generate_sequence(8, 2000);
  return t;
}

void report_cells(benchmark::State& state, uint64_t cells_per_iter) {
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(cells_per_iter) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

// One fixed-width kernel pass; `delivery` pins the Matrix score delivery
// (Auto: what a default AlignConfig gets on this host).
void BM_DiagKernel(benchmark::State& state, simd::Isa isa, core::Width width,
                   core::ScoreScheme scheme, core::ScoreDelivery delivery) {
  if (!simd::isa_available(isa)) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  if (delivery == core::ScoreDelivery::Shuffle && !simd::cpu_features().avx512vbmi) {
    state.SkipWithError("needs AVX-512-VBMI");  // a Shuffle pin would run Fill
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence& t = bench_target();
  core::AlignConfig cfg;
  cfg.isa = isa;
  cfg.width = width;
  cfg.scheme = scheme;
  cfg.match = 5;
  cfg.mismatch = -2;
  cfg.delivery = delivery;
  for (auto _ : state) {
    core::Alignment a = core::diag_align(q, t, cfg, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

// The whole 8 -> 16 -> 32 ladder on one pair: a homologous target (the
// query mutated at 15%, which saturates 8 bits) or the random target.
// "rungs" counts the kernel passes per call; "cells_run" the cells they
// computed per m x n cell of the pair, so the cost of a discarded narrow
// rung shows next to GCUPS.
void BM_DiagAdaptive(benchmark::State& state, simd::Isa isa, bool homolog) {
  if (!simd::isa_available(isa)) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence t = homolog ? seq::mutate(q, 11, 0.15) : bench_target();
  core::AlignConfig cfg;
  cfg.isa = isa;
  cfg.width = core::Width::Adaptive;
  core::Alignment a;
  for (auto _ : state) {
    a = core::diag_align(q, t, cfg, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  const uint64_t cells = q.length() * t.length();
  report_cells(state, cells);
  state.counters["rungs"] = 1.0 + a.saturated_8 + a.saturated_16;
  state.counters["cells_run"] =
      static_cast<double>(a.stats.cells) / static_cast<double>(cells);
}

void BM_Striped(benchmark::State& state) {
  if (!simd::isa_available(simd::Isa::Avx2)) {
    state.SkipWithError("needs AVX2");
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence& t = bench_target();
  baseline::StripedAligner striped(q, core::AlignConfig{});
  for (auto _ : state) {
    core::Alignment a = striped.align(t, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

void BM_Scan(benchmark::State& state) {
  if (!simd::isa_available(simd::Isa::Avx2)) {
    state.SkipWithError("needs AVX2");
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence& t = bench_target();
  baseline::ScanAligner scan(q, core::AlignConfig{});
  for (auto _ : state) {
    core::Alignment a = scan.align(t, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

void BM_DiagBasic(benchmark::State& state) {
  if (!simd::isa_available(simd::Isa::Avx2)) {
    state.SkipWithError("needs AVX2");
    return;
  }
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  const seq::Sequence& t = bench_target();
  baseline::DiagBasicAligner diag(q, core::AlignConfig{});
  for (auto _ : state) {
    core::Alignment a = diag.align(t, tls_ws());
    benchmark::DoNotOptimize(a.score);
  }
  report_cells(state, q.length() * t.length());
}

const seq::SequenceDatabase& bench_db() {
  static seq::SequenceDatabase db = [] {
    seq::SyntheticConfig cfg;
    cfg.seed = 9;
    cfg.target_residues = 100'000;
    cfg.min_length = 100;
    cfg.max_length = 400;
    return seq::SequenceDatabase::synthetic(cfg);
  }();
  return db;
}

void BM_Batch32(benchmark::State& state) {
  const seq::SequenceDatabase& db = bench_db();
  static core::Batch32Db bdb(db, 32);
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  core::AlignConfig cfg;
  for (auto _ : state) {
    auto scores = core::batch_scores(q, bdb, db, cfg, tls_ws());
    benchmark::DoNotOptimize(scores.data());
  }
  report_cells(state, q.length() * db.total_residues());
}

// Raw batch kernel on one forced ISA, at that ISA's batch lane count: no
// rescore ladder, no top-k. "C" is the engine's column-strip width.
void BM_Batch32Isa(benchmark::State& state, simd::Isa isa) {
  if (!simd::isa_available(isa) ||
      (isa == simd::Isa::Avx512 && core::batch_lanes_for(isa) != 64)) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const int lanes = core::batch_lanes_for(isa);
  const seq::SequenceDatabase& db = bench_db();
  const core::Batch32Db bdb(db, lanes);
  const seq::Sequence& q = bench_query(static_cast<int>(state.range(0)));
  core::AlignConfig cfg;
  cfg.isa = isa;
  for (auto _ : state) {
    for (size_t b = 0; b < bdb.batch_count(); ++b) {
      core::Batch8Result r =
          core::batch32_align_u8(q, bdb.batch(b), lanes, cfg, tls_ws(), isa);
      benchmark::DoNotOptimize(r);
    }
  }
  report_cells(state, q.length() * bdb.padded_residues());
  state.counters["C"] = core::batch_strip_cols(lanes);
}

}  // namespace

#define SWVE_REG(name, ...)                                     \
  benchmark::RegisterBenchmark(name, __VA_ARGS__)               \
      ->Arg(128)                                                \
      ->Arg(1024)                                               \
      ->Unit(benchmark::kMillisecond)

int main(int argc, char** argv) {
  using core::ScoreDelivery;
  using core::ScoreScheme;
  using core::Width;
  using simd::Isa;
  constexpr ScoreDelivery kAuto = ScoreDelivery::Auto;
  SWVE_REG("diag/scalar/w16", BM_DiagKernel, Isa::Scalar, Width::W16,
           ScoreScheme::Matrix, kAuto);
  SWVE_REG("diag/avx2/w8", BM_DiagKernel, Isa::Avx2, Width::W8, ScoreScheme::Matrix,
           kAuto);
  SWVE_REG("diag/avx2/w16", BM_DiagKernel, Isa::Avx2, Width::W16,
           ScoreScheme::Matrix, kAuto);
  SWVE_REG("diag/avx2/w32", BM_DiagKernel, Isa::Avx2, Width::W32,
           ScoreScheme::Matrix, kAuto);
  SWVE_REG("diag/avx2/w16/fixed", BM_DiagKernel, Isa::Avx2, Width::W16,
           ScoreScheme::Fixed, kAuto);
  SWVE_REG("diag/avx512/w16", BM_DiagKernel, Isa::Avx512, Width::W16,
           ScoreScheme::Matrix, kAuto);
  SWVE_REG("diag/avx512/w8", BM_DiagKernel, Isa::Avx512, Width::W8,
           ScoreScheme::Matrix, kAuto);
  // Delivery-pinned rows: the evidence for Auto = Shuffle on VBMI hosts,
  // per rung.
  for (Width w : {Width::W8, Width::W16})
    for (auto [name, d] : {std::pair{"gather", ScoreDelivery::Gather},
                           std::pair{"shuffle", ScoreDelivery::Shuffle}})
      SWVE_REG((std::string("diag/avx512/") + (w == Width::W8 ? "w8/" : "w16/") +
                name)
                   .c_str(),
               BM_DiagKernel, Isa::Avx512, w, ScoreScheme::Matrix, d);
  for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    const std::string base = std::string("diag/") + simd::isa_name(isa) + "/adaptive/";
    SWVE_REG((base + "homolog").c_str(), BM_DiagAdaptive, isa, true);
    SWVE_REG((base + "random").c_str(), BM_DiagAdaptive, isa, false);
  }
  SWVE_REG("baseline/striped", BM_Striped);
  SWVE_REG("baseline/scan", BM_Scan);
  SWVE_REG("baseline/diag", BM_DiagBasic);
  SWVE_REG("batch32", BM_Batch32);
  for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
    SWVE_REG((std::string("batch32/") + simd::isa_name(isa)).c_str(), BM_Batch32Isa,
             isa);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
