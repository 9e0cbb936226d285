// Component-cost probe for the diag kernel: long square pair (no ragged
// cost) vs database streaming; widths; schemes; ISAs. When perf_event is
// usable, each config also reports hardware-counter attribution for the
// 2048x2048 run (IPC, backend-stall fraction, effective GHz); otherwise
// those columns print "-".
//
// Also times the batch kernel per batch ISA: `--ilp=1,2,4` picks the
// interleave depths to print a row for (every depth runs the same
// column-strip kernel, one batch at a time; K is only the scan grain), and
// `--json` emits machine-readable rows (GCUPS, IPC, backend-stall % per
// ISA x K) instead of the tables — the bench-smoke CI artifact.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "obs/pmu.hpp"
#include "perf/gcups.hpp"
#include "perf/timer.hpp"
#include "seq/database.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

using namespace swve;

struct RunResult {
  double gcups = 0;
  obs::PmuDelta pmu{};
};

static RunResult run(const seq::Sequence& q, const seq::Sequence& t,
                     core::AlignConfig cfg, core::Workspace& ws, int reps) {
  core::diag_align(q, t, cfg, ws);
  obs::PmuSession& pmu = obs::PmuSession::instance();
  obs::PmuReading start = pmu.read();
  perf::Stopwatch sw;
  for (int k = 0; k < reps; ++k) core::diag_align(q, t, cfg, ws);
  double seconds = sw.seconds();
  RunResult r;
  r.pmu = obs::PmuSession::delta(start, pmu.read());
  r.gcups = perf::gcups(
      static_cast<uint64_t>(q.length()) * t.length() * reps, seconds);
  return r;
}

struct IlpRow {
  const char* isa_name;
  int lanes;
  int k;
  double gcups = 0;
  obs::PmuDelta pmu{};
};

/// Time the batch kernel over a synthetic packed database at each requested
/// interleave depth, per available batch ISA (same batches, same query).
static std::vector<IlpRow> sweep_interleave(const std::vector<int>& depths) {
  seq::SyntheticConfig scfg;
  scfg.seed = 11;
  scfg.target_residues = 400'000;
  scfg.min_length = 100;
  scfg.max_length = 400;
  const seq::SequenceDatabase db = seq::SequenceDatabase::synthetic(scfg);
  const seq::Sequence q = seq::generate_sequence(1, 256);
  core::AlignConfig cfg;
  core::Workspace ws;
  obs::PmuSession& pmu = obs::PmuSession::instance();

  struct IsaCase {
    const char* name;
    simd::Isa isa;
    int lanes;
  };
  std::vector<IsaCase> cases = {{"scalar", simd::Isa::Scalar, 32}};
  if (simd::isa_available(simd::Isa::Avx2))
    cases.push_back({"avx2", simd::Isa::Avx2, 32});
  if (simd::isa_available(simd::Isa::Avx512) && simd::cpu_features().avx512vbmi)
    cases.push_back({"avx512", simd::Isa::Avx512, 64});

  std::vector<IlpRow> rows;
  for (const IsaCase& c : cases) {
    core::Batch32Db bdb(db, c.lanes);
    std::vector<core::BatchCols> cols(bdb.batch_count());
    for (size_t b = 0; b < bdb.batch_count(); ++b) {
      const core::Batch32Db::Batch batch = bdb.batch(b);
      cols[b] = core::BatchCols{batch.columns, batch.max_len};
    }
    std::vector<core::Batch8Result> out(bdb.batch_count());
    const uint64_t cells_per_pass = bdb.padded_residues() * q.length();
    // Keep the sweep quick for the scalar reference, thorough for SIMD.
    const int reps = c.isa == simd::Isa::Scalar ? 1 : 6;
    for (int k : depths) {
      auto pass = [&] {
        core::batch32_align_u8_group(q, cols.data(),
                                     static_cast<int>(cols.size()), c.lanes,
                                     cfg, ws, c.isa, k, out.data());
      };
      pass();  // warm-up
      obs::PmuReading start = pmu.read();
      perf::Stopwatch sw;
      for (int r = 0; r < reps; ++r) pass();
      const double seconds = sw.seconds();
      IlpRow row;
      row.isa_name = c.name;
      row.lanes = c.lanes;
      row.k = k;
      row.pmu = obs::PmuSession::delta(start, pmu.read());
      row.gcups = perf::gcups(cells_per_pass * static_cast<uint64_t>(reps),
                              seconds);
      rows.push_back(row);
    }
  }
  return rows;
}

static void print_ilp_json(const std::vector<IlpRow>& rows) {
  std::printf("{\"prefetch_cols\":%u,\"rows\":[\n",
              core::batch_prefetch_distance());
  for (size_t i = 0; i < rows.size(); ++i) {
    const IlpRow& r = rows[i];
    std::printf("{\"kernel\":\"batch32\",\"isa\":\"%s\",\"lanes\":%d,"
                "\"ilp\":%d,\"gcups\":%.3f,\"pmu\":%s,\"ipc\":%.3f,"
                "\"backend_stall_pct\":%.2f,\"eff_ghz\":%.3f}%s\n",
                r.isa_name, r.lanes, r.k, r.gcups,
                r.pmu.hw ? "true" : "false", r.pmu.ipc(),
                100.0 * r.pmu.backend_stall_fraction(),
                r.pmu.effective_ghz(), i + 1 < rows.size() ? "," : "");
  }
  std::printf("]}\n");
}

static void print_ilp_table(const std::vector<IlpRow>& rows) {
  std::printf("\nbatch32 interleave sweep (prefetch %u cols)\n",
              core::batch_prefetch_distance());
  std::printf("%-8s %6s %4s %10s %6s %8s %7s\n", "isa", "lanes", "K", "GCUPS",
              "ipc", "be-stall", "GHz");
  for (const IlpRow& r : rows) {
    if (r.pmu.hw && r.pmu.cycles > 0) {
      std::printf("%-8s %6d %4d %10.2f %6.2f %7.1f%% %7.2f\n", r.isa_name,
                  r.lanes, r.k, r.gcups, r.pmu.ipc(),
                  100.0 * r.pmu.backend_stall_fraction(),
                  r.pmu.effective_ghz());
    } else {
      std::printf("%-8s %6d %4d %10.2f %6s %8s %7s\n", r.isa_name, r.lanes,
                  r.k, r.gcups, "-", "-", "-");
    }
  }
}

int main(int argc, char** argv) {
  std::vector<int> depths = {1, 2, 4};
  bool json = false;
  bool ilp_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      ilp_only = true;
    } else if (std::strncmp(argv[i], "--ilp=", 6) == 0) {
      ilp_only = true;
      depths.clear();
      for (const char* p = argv[i] + 6; *p != '\0';) {
        depths.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (std::strncmp(argv[i], "--prefetch=", 11) == 0) {
      core::set_batch_prefetch_distance(
          static_cast<uint32_t>(std::atoi(argv[i] + 11)));
    } else {
      std::fprintf(stderr,
                   "usage: kernel_profile [--ilp=1,2,4] [--prefetch=N] "
                   "[--json]\n");
      return 2;
    }
  }
  if (ilp_only) {
    const std::vector<IlpRow> rows = sweep_interleave(depths);
    if (json)
      print_ilp_json(rows);
    else
      print_ilp_table(rows);
    return 0;
  }

  core::Workspace ws;
  auto q = seq::generate_sequence(1, 2048);
  auto t = seq::generate_sequence(2, 2048);
  auto t_small = seq::generate_sequence(3, 300);

  struct Cfg {
    const char* name;
    simd::Isa isa;
    core::Width w;
    core::ScoreScheme s;
  };
  const Cfg cfgs[] = {
      {"avx2 w16 matrix", simd::Isa::Avx2, core::Width::W16, core::ScoreScheme::Matrix},
      {"avx2 w16 fixed ", simd::Isa::Avx2, core::Width::W16, core::ScoreScheme::Fixed},
      {"avx2 w8  matrix", simd::Isa::Avx2, core::Width::W8, core::ScoreScheme::Matrix},
      {"avx2 w8  fixed ", simd::Isa::Avx2, core::Width::W8, core::ScoreScheme::Fixed},
      {"avx2 w32 matrix", simd::Isa::Avx2, core::Width::W32, core::ScoreScheme::Matrix},
      {"a512 w16 matrix", simd::Isa::Avx512, core::Width::W16, core::ScoreScheme::Matrix},
      {"a512 w8  matrix", simd::Isa::Avx512, core::Width::W8, core::ScoreScheme::Matrix},
      {"a512 w8  fixed ", simd::Isa::Avx512, core::Width::W8, core::ScoreScheme::Fixed},
  };
  obs::PmuSession& pmu = obs::PmuSession::instance();
  if (!pmu.available())
    std::printf("pmu: unavailable (%s); counter columns print \"-\"\n",
                pmu.unavailable_reason());
  std::printf("%-18s %10s %10s %6s %8s %7s\n", "config", "2048x2048",
              "2048x300", "ipc", "be-stall", "GHz");
  for (const Cfg& c : cfgs) {
    core::AlignConfig cfg;
    cfg.isa = c.isa;
    cfg.width = c.w;
    cfg.scheme = c.s;
    cfg.match = 5;
    cfg.mismatch = -2;
    RunResult big = run(q, t, cfg, ws, 3);
    RunResult small = run(q, t_small, cfg, ws, 20);
    if (big.pmu.hw && big.pmu.cycles > 0) {
      std::printf("%-18s %10.2f %10.2f %6.2f %7.1f%% %7.2f\n", c.name,
                  big.gcups, small.gcups, big.pmu.ipc(),
                  100.0 * big.pmu.backend_stall_fraction(),
                  big.pmu.effective_ghz());
    } else {
      std::printf("%-18s %10.2f %10.2f %6s %8s %7s\n", c.name, big.gcups,
                  small.gcups, "-", "-", "-");
    }
  }
  print_ilp_table(sweep_interleave(depths));
  return 0;
}
