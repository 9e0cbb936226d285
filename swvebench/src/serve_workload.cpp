// `serve`: protocol v1 over loopback against an AlignService + net::Server
// configured with swve_server's defaults (ephemeral port, trace sink,
// logger). Load is open-loop Poisson from this process over nproc
// connections, at a fixed ladder of offered rates. Each request's due
// (scheduled send), send and completion times are written out; run.py times
// it from its due time, so a stalled server is charged for the requests
// queued behind it, and the generator's lateness is recorded.
//
// The mix: Batch-mode searches, a fixed share of them fresh queries (cache
// misses that insert) and the rest repeats drawn Zipf-popular from the
// first queries sent (cache hits), so the hit share stays the same through
// a run; bursts of one fresh query sent from half the connections at once
// (singleflight); and distinct pairwise aligns with traceback.
//
// One process runs either the rate ladder (--part ladder) or the nominal
// rate (--part nominal). The traced run is a nominal one in which every
// other connection sends traced: the ServerTiming trailer splits each RPC
// into queue wait, execution and serialization; the rest of the round trip
// is the wire.
#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include "align/db_search.hpp"
#include "core/scalar_ref.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"
#include "simd/cpu.hpp"
#include "workloads.hpp"

namespace swvebench {

namespace {

using namespace swve;

constexpr uint64_t kDbResidues = 200'000;
// The request mix below is chosen for the benchmark, not measured from a
// service's traffic: unverified (README.md, "Workloads").
constexpr double kZipfS = 1.0;
constexpr double kSearchShare = 0.85, kAlignShare = 0.10;  // rest: bursts
constexpr double kFreshShare = 0.10;  ///< of searches
/// Search queries are all one length, so a cache miss costs the same
/// whichever query misses, and the tail measures queueing, not which long
/// queries a seed happened to draw.
constexpr uint32_t kQueryLength = 256;
constexpr size_t kPopular = 64;       ///< repeats are drawn from the first
                                      ///< kPopular queries, which stay cached
/// Generator lateness at which a step is cut: past the 300 ms latency
/// limit by more than a factor of three.
constexpr std::chrono::nanoseconds kCutLag = std::chrono::milliseconds(1000);
constexpr size_t kTopK = 10;
/// Offered rates (arrivals/s; a burst arrival is several requests): the
/// ladder that brackets the latency limit for qps_at_slo, and the nominal
/// rate, where latency percentiles and the traced run are measured. The
/// ladder reaches down to 500/s so that the limit stays bracketed when a
/// busy host cuts the service's capacity (about 1,050/s on a quiet
/// reference host) to below 700/s. Mirrored in README.md and BENCHMARK.json.
constexpr double kNominalRate = 150;
const std::vector<double> kRates = {500, 750, 1000, 1250, 1500};
/// A nominal-rate process first primes the result cache with this much
/// load, kept out of the metrics, so its percentiles see the steady state.
constexpr double kPrimeSeconds = 1.0;

enum Kind : uint8_t { kSearch = 0, kAlign = 1, kBurst = 2 };

struct Req {
  int64_t due_ns = 0;  ///< offset from the step start
  Kind kind = kSearch;
  uint32_t item = 0;   ///< search query or align pair index
  bool repeat = false; ///< search query already requested in this run
};

struct Outcome {
  int64_t send_ns = 0, done_ns = 0;  ///< offsets from the step start
  bool sent = false;  ///< false: the step was cut before this was due
  bool ok = false;
  bool traced = false;
  uint8_t flags = 0;
  net::ServerTiming timing{};
  bool has_timing = false;
  std::vector<align::Hit> hits;
  core::Alignment alignment;
};

struct Inputs {
  seq::SequenceDatabase db;
  std::vector<seq::Sequence> queries;  ///< every search query, in first-use order
  std::vector<double> zipf_cdf;        ///< unnormalized: Zipf mass of ranks 0..i
  std::vector<std::pair<seq::Sequence, seq::Sequence>> pairs;

  uint32_t add_query(seq::Sequence q) {
    queries.push_back(std::move(q));
    const double mass = std::pow(static_cast<double>(queries.size()), -kZipfS);
    zipf_cdf.push_back((zipf_cdf.empty() ? 0.0 : zipf_cdf.back()) + mass);
    return static_cast<uint32_t>(queries.size() - 1);
  }
};

/// Connections a burst uses: half of them, so a burst never blocks the
/// whole generator, and at least two, so there is something to coalesce.
unsigned burst_width(unsigned conns) { return std::max(2u, conns / 2); }

uint32_t log_uniform(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> u(std::log(lo), std::log(hi));
  return static_cast<uint32_t>(std::exp(u(rng)));
}

/// Poisson arrivals at `rate` for `seconds`; payloads are generated here
/// so the timed loop only sends.
std::vector<Req> make_schedule(Inputs& in, std::mt19937_64& rng, double rate,
                               double seconds, unsigned conns) {
  std::vector<Req> out;
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> u(0, 1);
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    const int64_t due = static_cast<int64_t>(t * 1e9);
    const double k = u(rng);
    if (k < kSearchShare) {
      if (in.queries.empty() || u(rng) < kFreshShare) {
        const uint32_t item =
            in.add_query(seq::generate_sequence(rng(), kQueryLength));
        out.push_back(Req{due, kSearch, item, false});
      } else {  // the earliest queries are the popular ones
        const size_t n = std::min(kPopular, in.queries.size());
        const double x = u(rng) * in.zipf_cdf[n - 1];
        const auto it = std::lower_bound(in.zipf_cdf.begin(), in.zipf_cdf.begin() + n, x);
        const uint32_t item = static_cast<uint32_t>(
            std::min<size_t>(static_cast<size_t>(it - in.zipf_cdf.begin()), n - 1));
        out.push_back(Req{due, kSearch, item, true});
      }
    } else if (k < kSearchShare + kAlignShare) {
      const bool homolog = u(rng) < 1.0 / 3;
      seq::Sequence q = seq::generate_sequence(rng(), log_uniform(rng, 64, 512));
      seq::Sequence r = homolog ? seq::mutate(q, rng(), 0.15)
                                : seq::generate_sequence(rng(), log_uniform(rng, 64, 512));
      in.pairs.emplace_back(std::move(q), std::move(r));
      out.push_back(Req{due, kAlign, static_cast<uint32_t>(in.pairs.size() - 1), false});
    } else {
      const uint32_t item =
          in.add_query(seq::generate_sequence(rng(), kQueryLength));
      for (unsigned c = 0; c < burst_width(conns); ++c)
        out.push_back(Req{due, kBurst, item, false});
    }
  }
  return out;
}

class Load {
 public:
  Load(uint16_t port, unsigned conns) : conns_(conns) {
    for (unsigned c = 0; c < conns; ++c) {
      auto cl = net::Client::connect("127.0.0.1", port);
      if (!cl.ok()) {
        std::fprintf(stderr, "swvebench: connect: %s\n", cl.error().message.c_str());
        return;
      }
      clients_.push_back(std::move(cl.value()));
    }
  }
  explicit operator bool() const { return clients_.size() == conns_; }

  /// One request on connection `c`; fills `o` (send/done stay untouched).
  void send(unsigned c, const Inputs& in, const Req& r, Outcome& o) {
    net::Client& cl = *clients_[c];
    if (r.kind == kAlign) {
      service::AlignRequest rq;
      rq.query = in.pairs[r.item].first;
      rq.reference = in.pairs[r.item].second;
      rq.options.traceback = true;
      auto res = cl.align(rq);
      o.ok = res.ok() && res.response.has_value();
      o.flags = res.flags;
      if (res.timing) o.timing = *res.timing, o.has_timing = true;
      if (o.ok) o.alignment = std::move(res.response->alignment);
    } else {
      service::SearchRequest rq;
      rq.query = in.queries[r.item];
      rq.mode = align::SearchMode::Batch;
      rq.options.top_k = kTopK;
      auto res = cl.search(rq);
      o.ok = res.ok() && res.response.has_value() && !res.response->result.truncated;
      o.flags = res.flags;
      if (res.timing) o.timing = *res.timing, o.has_timing = true;
      if (o.ok) o.hits = std::move(res.response->result.hits);
    }
  }

  /// Run a schedule open-loop: each connection takes the next request due
  /// and sends it at its due time, or as soon as it is free if it is late.
  /// `traced` marks which connections send traced. Once the generator runs
  /// more than kCutLag behind, the offered rate has failed for good and the
  /// rest of the step is not sent.
  std::vector<Outcome> run(const Inputs& in, const std::vector<Req>& sched,
                           const std::vector<bool>& traced) {
    std::vector<Outcome> out(sched.size());
    std::atomic<size_t> next{0};
    std::atomic<bool> cut{false};
    const int64_t t0 = now_ns() + 2'000'000;  // first due time 2 ms ahead
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < clients_.size(); ++c) {
      clients_[c]->enable_tracing(traced[c]);
      workers.emplace_back([&, c] {
        for (size_t i; !cut.load() && (i = next.fetch_add(1)) < sched.size();) {
          const int64_t due = t0 + sched[i].due_ns;
          const int64_t wait = due - now_ns();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
          if (-wait > kCutLag.count()) {
            cut.store(true);
            break;
          }
          Outcome& o = out[i];
          o.sent = true;
          o.traced = traced[c];
          o.send_ns = now_ns() - t0;
          send(c, in, sched[i], o);
          o.done_ns = now_ns() - t0;
        }
      });
    }
    for (auto& w : workers) w.join();
    return out;
  }

 private:
  unsigned conns_;
  std::vector<std::unique_ptr<net::Client>> clients_;
};

std::string step_json(const std::vector<Req>& sched, const std::vector<Outcome>& res,
                      double rate, const char* role, bool traced_only, bool untraced_only) {
  std::vector<double> due, send, done, kind, flags, repeat, rtt, queue, exec, ser, src;
  for (size_t i = 0; i < sched.size(); ++i) {
    const Outcome& o = res[i];
    if (!o.sent || (traced_only && !o.traced) || (untraced_only && o.traced)) continue;
    due.push_back(static_cast<double>(sched[i].due_ns) * 1e-6);
    send.push_back(static_cast<double>(o.send_ns) * 1e-6);
    done.push_back(o.ok ? static_cast<double>(o.done_ns) * 1e-6 : -1);
    kind.push_back(sched[i].kind);
    flags.push_back(o.flags);
    repeat.push_back(sched[i].repeat ? 1 : 0);
    if (traced_only) {
      rtt.push_back(static_cast<double>(o.done_ns - o.send_ns) * 1e-6);
      queue.push_back(o.has_timing ? o.timing.queue_us * 1e-3 : -1);
      exec.push_back(o.has_timing ? o.timing.exec_us * 1e-3 : -1);
      ser.push_back(o.has_timing ? o.timing.serialize_us * 1e-3 : -1);
      src.push_back(o.has_timing ? o.timing.source : -1);
    }
  }
  Json j;
  size_t unsent = 0;
  for (const Outcome& o : res) unsent += o.sent ? 0 : 1;
  j.num("rate", rate).str("role", role).integer("unsent", unsent).array("due_ms", due).array("send_ms", send)
      .array("done_ms", done).array("kind", kind).array("flags", flags).array("repeat", repeat);
  if (traced_only)
    j.array("rtt_ms", rtt).array("queue_ms", queue).array("exec_ms", exec)
        .array("serialize_ms", ser).array("source", src);
  return j.done();
}

Phase make_phase(const std::vector<Req>& sched, const std::vector<Outcome>& res,
                 double rate, const char* role, double wall_s, bool traced, bool split) {
  Phase ph;
  ph.traced = traced;
  ph.wall_s = wall_s;
  for (size_t i = 0; i < sched.size(); ++i) {
    const Outcome& o = res[i];
    if (!o.sent || (split && o.traced != traced)) continue;
    ++ph.ops;
    if (!o.ok) ++ph.failed;
  }
  // Latency is left to run.py: due_ms to done_ms (-1: failed), per request.
  ph.extra = step_json(sched, res, rate, role, split && traced, split && !traced);
  return ph;
}

/// Spans of the traced requests: the RPC from its due time, the
/// generator's lateness, and the server-side children from the
/// ServerTiming trailer, laid end to end from the send.
void record_spans(Tracer& tr, const std::vector<Req>& sched,
                  const std::vector<Outcome>& res) {
  for (size_t i = 0; i < sched.size(); ++i) {
    const Outcome& o = res[i];
    // Coalesced waiters carry their leader's server timing, which started
    // before they were sent; they are left out of the span trees.
    if (!o.sent || !o.traced || !o.ok || !o.has_timing || o.timing.source == 2) continue;
    const uint64_t rid = i + 1;
    const uint32_t root = tr.add("serve.request", 0, rid, sched[i].due_ns, o.done_ns);
    tr.add("serve.gen_lag", root, rid, sched[i].due_ns, o.send_ns);
    int64_t t = o.send_ns;
    const int64_t q = int64_t{o.timing.queue_us} * 1000;
    const int64_t e = int64_t{o.timing.exec_us} * 1000;
    const int64_t z = int64_t{o.timing.serialize_us} * 1000;
    tr.add("service.queue_wait", root, rid, t, t + q);
    tr.add("service.exec", root, rid, t + q, t + q + e);
    tr.add("net.serialize", root, rid, t + q + e, t + q + e + z);
  }
}

}  // namespace

bool run_serve(const Options& opt, RawResult& out) {
  const unsigned conns = std::max(1u, simd::cpu_features().hardware_threads);
  std::mt19937_64 rng(opt.seed * 7 + 13);
  Inputs in;
  in.db = make_database(kDbResidues);
  // --part ladder: the rate ladder, climbing, --seconds split evenly.
  // --part nominal: priming (kept out of the metrics), then --seconds at
  // the nominal rate.
  struct Step {
    double rate;
    const char* role;  ///< "ladder", "prime" or "nominal"
    std::vector<Req> sched;
  };
  std::vector<Step> steps;
  if (opt.part == "ladder") {
    const double step_s = opt.seconds / static_cast<double>(kRates.size());
    for (double rate : kRates)
      steps.push_back({rate, "ladder", make_schedule(in, rng, rate, step_s, conns)});
  } else {
    steps.push_back({kNominalRate, "prime",
                     make_schedule(in, rng, kNominalRate, kPrimeSeconds, conns)});
    steps.push_back({kNominalRate, "nominal",
                     make_schedule(in, rng, kNominalRate, opt.seconds, conns)});
  }
  const seq::Sequence warm_q = seq::generate_sequence(rng(), 256);

  // swve_server's defaults: a structured logger, a trace sink, and
  // ServiceOptions as constructed, on an ephemeral port.
  const int64_t t_setup = now_ns();
  obs::LoggerOptions logopt;
  logopt.fd = -1;
  logopt.path = opt.out + ".log";
  obs::Logger logger(logopt);
  obs::Logger::install_global(&logger);
  obs::TraceSink sink(8192);
  service::ServiceOptions sopt;
  sopt.serve.port = 0;
  sopt.obs.trace_sink = &sink;
  bool ok = true;
  {
    service::AlignService svc(in.db, sopt);
    auto started = net::Server::start(svc);
    if (!started.ok()) {
      std::fprintf(stderr, "swvebench: server start: %s\n",
                   started.error().message.c_str());
      ok = false;
    } else {
      net::Server& server = *started.value();
      Load load(server.port(), conns);
      ok = static_cast<bool>(load);
      if (ok) {
        // Warm-up: one search and one align no schedule sends again.
        const uint32_t warm = in.add_query(warm_q);
        in.pairs.emplace_back(warm_q, warm_q);
        Outcome w;
        load.send(0, in, Req{0, kSearch, warm, false}, w);
        load.send(0, in, Req{0, kAlign, static_cast<uint32_t>(in.pairs.size() - 1), false}, w);
        out.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
      }
      if (ok) {
        Tracer tracer;
        tracer.enable(opt.trace);
        std::vector<std::vector<Outcome>> results;
        for (const Step& step : steps) {
          const bool trace = opt.trace && std::string(step.role) == "nominal";
          std::vector<bool> traced(conns, false);
          if (trace)
            for (unsigned c = 0; c < conns; c += 2) traced[c] = true;
          const int64_t t0 = now_ns();
          results.push_back(load.run(in, step.sched, traced));
          const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
          const std::vector<Outcome>& res = results.back();
          if (trace) {
            record_spans(tracer, step.sched, res);
            out.phases.push_back(make_phase(step.sched, res, step.rate, step.role, wall, false, true));
            out.phases.push_back(make_phase(step.sched, res, step.rate, step.role, wall, true, true));
          } else {
            out.phases.push_back(
                make_phase(step.sched, res, step.rate, step.role, wall, false, false));
          }
        }
        if (opt.trace && !tracer.write(opt.spans_out)) ok = false;
        out.peak_rss_mb = peak_rss_mb();
        const perf::MetricsSnapshot snap = server.metrics();
        Json layer;
        layer.integer("rejected_queue_full", snap.rejected_queue_full)
            .num("service_gcups", snap.aggregate_gcups());
        out.layer = layer.done();

        // Golden model: every wire answer against the in-process search
        // engine (searches) or the scalar reference (aligns).
        parallel::ThreadPool pool(conns);
        align::DatabaseSearch ref(in.db, sopt.config, align::SearchMode::Batch);
        std::vector<std::vector<align::Hit>> query_ref(in.queries.size());
        std::vector<bool> need(in.queries.size(), false);
        for (const Step& step : steps)
          for (const Req& r : step.sched)
            if (r.kind != kAlign) need[r.item] = true;
        for (size_t i = 0; i < in.queries.size(); ++i)
          if (need[i]) query_ref[i] = ref.search(in.queries[i], kTopK, &pool).hits;
        core::AlignConfig tb = sopt.config;
        tb.traceback = true;
        std::vector<core::Alignment> pair_ref(in.pairs.size());
        pool.parallel_chunks(in.pairs.size(), [&](size_t i, unsigned) {
          pair_ref[i] = core::ref_align(in.pairs[i].first, in.pairs[i].second, tb);
        });
        for (size_t s = 0; s < steps.size(); ++s)
          for (size_t i = 0; i < steps[s].sched.size(); ++i) {
            const Req& r = steps[s].sched[i];
            const Outcome& o = results[s][i];
            if (!o.sent || !o.ok) continue;  // unsent, or counted as failed
            ++out.checked;
            bool same = true;
            if (r.kind == kAlign) {
              const core::Alignment& a = o.alignment;
              const core::Alignment& e = pair_ref[r.item];
              same = a.score == e.score && a.end_query == e.end_query &&
                     a.end_ref == e.end_ref && a.begin_query == e.begin_query &&
                     a.begin_ref == e.begin_ref && a.cigar == e.cigar;
            } else {
              const auto& e = query_ref[r.item];
              same = o.hits.size() == e.size();
              for (size_t h = 0; same && h < e.size(); ++h)
                same = o.hits[h].seq_index == e[h].seq_index &&
                       o.hits[h].score == e[h].score &&
                       o.hits[h].end_query == e[h].end_query &&
                       o.hits[h].end_ref == e[h].end_ref;
            }
            if (!same) {
              ++out.mismatches;
              out.mismatch_notes.push_back(
                  fmt("step %zu request %zu (kind %d): wire answer differs", s, i,
                      static_cast<int>(r.kind)));
            }
          }
      }
      server.shutdown();
      server.join();
    }
  }
  obs::Logger::install_global(nullptr);
  return ok;
}

}  // namespace swvebench
