// Per-layer rollup of one traced operation.
//
// Every span belongs to a layer (a module name), by its name prefix: the
// benchmark's own spans are named "<layer>.<call>_call", the program's
// existing spans keep their names ("ga.search" is core, "planner.plan_batch"
// is service, "lab.actual_run" is nas because its body is one NasApp::run).
// A span's self time is its duration minus the part of it its direct
// children cover; the operation's root span ("bench.op") keeps only what no
// layer span covers.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// The layer of a span name; "" for the root and for unknown names.
std::string layer_of(const std::string& span_name);

/// The layers a rollup reports, in print order.
const std::vector<std::string>& layer_names();

struct Rollup {
  std::map<std::string, double> self_s;   ///< by layer
  std::map<std::string, double> total_s;  ///< inclusive, by span name
  std::map<std::string, double> count;    ///< spans, by span name
  double root_s = 0.0;       ///< duration of the "bench.op" span
  double uncovered_s = 0.0;  ///< root self time
  std::vector<std::string> unknown;  ///< span names no layer claims
};

Rollup rollup(const std::vector<swapp::obs::TraceEvent>& events);

}  // namespace perfbench
