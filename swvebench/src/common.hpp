// Shared pieces of the swve benchmark executable: command-line options,
// the in-memory span recorder, host context, and the raw-result JSON
// writer. Every workload writes raw measurements (samples, counts, check
// outcomes, spans); run.py turns them into the reported metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "seq/database.hpp"
#include "seq/sequence.hpp"

namespace swvebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;       ///< add the traced phase after the untraced one
  std::string part;         ///< serve: "ladder" or "nominal"
  std::string out;          ///< raw-result JSON path
  std::string spans_out;    ///< span TSV path (traced runs)
};

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written out when the run ends. A span wraps
/// one call the benchmark makes into a layer's public function. A child
/// that cannot nest inside its parent call is timed as a separate call on
/// the same inputs and flagged `replayed`.
class Tracer {
 public:
  struct Span {
    uint32_t id;
    uint32_t parent;  ///< 0 = root
    uint64_t request;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    bool replayed;
  };

  /// Recording starts off; a traced phase turns it on.
  void enable(bool on) {
    on_ = on;
    if (on_) spans_.reserve(1 << 16);
  }

  /// Open a span; returns its id (0 when tracing is off).
  uint32_t open(const char* name, uint32_t parent, uint64_t request,
                bool replayed = false) {
    if (!on_) return 0;
    spans_.push_back(Span{static_cast<uint32_t>(spans_.size() + 1), parent,
                          request, name, now_ns(), 0, replayed});
    return spans_.back().id;
  }
  void close(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }
  /// Record a span whose interval was measured elsewhere.
  uint32_t add(const char* name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns, bool replayed = false) {
    if (!on_) return 0;
    spans_.push_back(Span{static_cast<uint32_t>(spans_.size() + 1), parent,
                          request, name, start_ns, end_ns, replayed});
    return spans_.back().id;
  }
  /// TSV: id parent request name start_ns end_ns replayed.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

/// Minimal JSON object builder for the raw result.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, uint64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& raw(const std::string& key, const std::string& json);
  Json& array(const std::string& key, const std::vector<double>& v);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void sep(const std::string& key);
  std::string body_;
};

/// One timed phase of a workload (untraced, or traced).
struct Phase {
  bool traced = false;
  double wall_s = 0;
  uint64_t ops = 0;           ///< operations attempted
  uint64_t failed = 0;        ///< failed, refused or timed out
  uint64_t useful_cells = 0;  ///< query length x target length, summed
  std::vector<double> latency_ms;
  double pool_busy_s = 0;     ///< ThreadPool busy seconds during the phase
  unsigned pool_threads = 0;
  std::string extra;          ///< workload-specific JSON members
  std::string to_json() const;
};

/// Host context recorded with every run: effective clock, resolved ISA,
/// score-delivery path, batch interleave depth and hardware threads.
std::string host_json();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// The workload database: Swiss-Prot-shaped synthetic data from
/// seq::SyntheticConfig's defaults (its fixed seed, the one swve_server
/// serves), sized to `residues`. Only the requests depend on the run seed,
/// so runs of different seeds scan the same database.
swve::seq::SequenceDatabase make_database(uint64_t residues);

/// The paper's log-spaced query ladder, with a seeded third of the rungs
/// turned into mutated copies of database sequences so long queries hit
/// real homologs and exercise the rescore ladder.
std::vector<swve::seq::Sequence> make_ladder(const swve::seq::SequenceDatabase& db,
                                       uint64_t seed, int count,
                                       uint32_t min_len, uint32_t max_len);

/// Everything run.py needs from one process: written to opt.out.
struct RawResult {
  double setup_s = 0;
  double peak_rss_mb = 0;  ///< at the end of the timed phases, before checks
  std::vector<Phase> phases;
  std::string counts;  ///< JSON object of exact per-layer counts
  std::string layer;   ///< JSON object of service-side values (serve)
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> mismatch_notes;
  bool write(const Options& opt) const;
};

/// Format helper for mismatch notes.
std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

}  // namespace swvebench
