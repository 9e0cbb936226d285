// swvebench: drives one workload against the swve library and writes its
// raw measurements as JSON. Normally started by run.py, which builds this
// program, runs it in several fresh processes and computes the metrics.
//
//   swvebench --workload search|batch|pairs|serve --seed N --seconds S
//             --out RAW.json [--trace 0|1 --spans SPANS.tsv]
//             [--part ladder|nominal]   (serve: which half of its load)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

using namespace swvebench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "swvebench: %s\nusage: swvebench --workload NAME --seed N "
               "--seconds S --out FILE [--trace 0|1] [--spans FILE] "
               "[--part ladder|nominal]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(next().c_str());
    else if (a == "--trace") opt.trace = next() == "1";
    else if (a == "--out") opt.out = next();
    else if (a == "--spans") opt.spans_out = next();
    else if (a == "--part") opt.part = next();
    else usage(("unknown option " + a).c_str());
  }
  if (opt.out.empty()) usage("--out is required");
  if (opt.seconds <= 0) usage("--seconds must be positive");
  if (opt.trace && opt.spans_out.empty()) usage("--trace 1 needs --spans");
  if (opt.workload == "serve" && opt.part != "ladder" && opt.part != "nominal")
    usage("serve needs --part ladder or --part nominal");
  if (opt.workload != "serve" && !opt.part.empty()) usage("--part is for serve");
  if (opt.trace && opt.part == "ladder") usage("the traced run is --part nominal");

  RawResult raw;
  bool ok = false;
  if (opt.workload == "search") ok = run_search(opt, raw);
  else if (opt.workload == "batch") ok = run_batch(opt, raw);
  else if (opt.workload == "pairs") ok = run_pairs(opt, raw);
  else if (opt.workload == "serve") ok = run_serve(opt, raw);
  else usage(("unknown workload " + opt.workload).c_str());
  if (!ok) return 1;
  if (!raw.write(opt)) {
    std::fprintf(stderr, "swvebench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}
