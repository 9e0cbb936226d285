// The four workloads. Each fills a RawResult; returns false on a setup
// failure (the run then exits non-zero without a result).
#pragma once

#include "common.hpp"

namespace swvebench {

bool run_search(const Options& opt, RawResult& out);
bool run_batch(const Options& opt, RawResult& out);
bool run_pairs(const Options& opt, RawResult& out);
bool run_serve(const Options& opt, RawResult& out);

}  // namespace swvebench
