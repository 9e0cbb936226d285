#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdarg>
#include <fstream>
#include <random>

#include "core/dispatch.hpp"
#include "perf/freq_monitor.hpp"
#include "seq/alphabet.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swvebench {

using namespace swve;

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const Span& s : spans_)
    f << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
      << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << (s.replayed ? 1 : 0)
      << '\n';
  return static_cast<bool>(f);
}

void Json::sep(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + key + "\":";
}

Json& Json::num(const std::string& key, double v) {
  sep(key);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  body_ += buf;
  return *this;
}

Json& Json::integer(const std::string& key, uint64_t v) {
  sep(key);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& key, const std::string& v) {
  sep(key);
  body_ += "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n' || c == '\t') ? ' ' : c;
  }
  body_ += "\"";
  return *this;
}

Json& Json::raw(const std::string& key, const std::string& json) {
  sep(key);
  body_ += json.empty() ? "{}" : json;
  return *this;
}

Json& Json::array(const std::string& key, const std::vector<double>& v) {
  sep(key);
  body_ += "[";
  char buf[40];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
    body_ += buf;
  }
  body_ += "]";
  return *this;
}

std::string Phase::to_json() const {
  Json j;
  j.integer("traced", traced ? 1 : 0)
      .num("wall_s", wall_s)
      .integer("ops", ops)
      .integer("failed", failed)
      .integer("useful_cells", useful_cells)
      .num("pool_busy_s", pool_busy_s)
      .integer("pool_threads", pool_threads)
      .raw("extra", extra)
      .array("latency_ms", latency_ms);
  return j.done();
}

std::string host_json() {
  using namespace swve;
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  const core::ScoreDelivery d = core::resolved_delivery(isa);
  const char* delivery = d == core::ScoreDelivery::Gather  ? "gather"
                         : d == core::ScoreDelivery::Fill  ? "fill"
                         : d == core::ScoreDelivery::Shuffle ? "shuffle"
                                                             : "auto";
  const int vector_bits = isa == simd::Isa::Avx512 ? 512
                          : isa == simd::Isa::Avx2 ? 256
                          : isa == simd::Isa::Sse41 ? 128
                                                    : 0;
  Json j;
  j.num("ghz", perf::measure_frequency(30).ghz)
      .str("isa", simd::isa_name(isa))
      .integer("vector_bits", static_cast<uint64_t>(vector_bits))
      .str("delivery", delivery)
      .integer("delivery_id", static_cast<uint64_t>(d))
      .integer("ilp_k", static_cast<uint64_t>(core::resolved_ilp(isa)))
      .integer("nproc", simd::cpu_features().hardware_threads);
  return j.done();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

swve::seq::SequenceDatabase make_database(uint64_t residues) {
  seq::SyntheticConfig cfg;
  cfg.target_residues = residues;
  return seq::SequenceDatabase::synthetic(cfg);
}

std::vector<swve::seq::Sequence> make_ladder(const swve::seq::SequenceDatabase& db,
                                       uint64_t seed, int count,
                                       uint32_t min_len, uint32_t max_len) {
  std::vector<seq::Sequence> ladder =
      seq::make_query_ladder(seed, count, min_len, max_len);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (size_t i = 2; i < ladder.size(); i += 3) {
    // Every third rung carries a homologous domain: half its length copied
    // from a database sequence and mutated, so it scores above the 8-bit
    // ceiling against that sequence and its planted relatives.
    std::vector<uint8_t> codes(ladder[i].codes().begin(),
                               ladder[i].codes().end());
    const seq::Sequence& src = db[rng() % db.size()];
    const seq::Sequence donor = seq::mutate(src, rng(), 0.15);
    const size_t span = std::min(codes.size() / 2, donor.length());
    const size_t at = rng() % (codes.size() - span + 1);
    for (size_t k = 0; k < span; ++k) codes[at + k] = donor.codes()[k];
    ladder[i] = seq::Sequence(ladder[i].id(), std::move(codes),
                              seq::Alphabet::protein());
  }
  return ladder;
}

bool RawResult::write(const Options& opt) const {
  std::string ph = "[";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i) ph += ',';
    ph += phases[i].to_json();
  }
  ph += "]";
  std::string notes = "[";
  for (size_t i = 0; i < mismatch_notes.size() && i < 20; ++i) {
    Json n;
    n.str("note", mismatch_notes[i]);
    if (i) notes += ',';
    notes += n.done();
  }
  notes += "]";
  Json j;
  j.str("workload", opt.workload)
      .integer("seed", opt.seed)
      .num("setup_s", setup_s)
      .raw("host", host_json())
      .num("peak_rss_mb", peak_rss_mb)
      .raw("phases", ph)
      .raw("counts", counts)
      .raw("layer", layer)
      .integer("checked", checked)
      .integer("mismatches", mismatches)
      .raw("mismatch_notes", notes);
  std::ofstream f(opt.out);
  f << j.done() << "\n";
  return static_cast<bool>(f);
}

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

}  // namespace swvebench
