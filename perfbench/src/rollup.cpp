#include "rollup.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::string layer_of(const std::string& span_name) {
  // Program spans whose prefix is not their module (or whose body belongs
  // to another layer), then the module prefixes themselves.
  static const std::vector<std::pair<std::string, std::string>> kExact = {
      {"lab.collect_app_profile", "nas"},
      {"lab.actual_run", "nas"},
      {"lab.collect_spec_library", "spec"},
  };
  static const std::vector<std::pair<std::string, std::string>> kPrefix = {
      {"nas.", "nas"},         {"imb.", "imb"},
      {"spec.", "spec"},       {"ga.", "core"},
      {"projector.", "core"},  {"compute.", "core"},
      {"comm.", "core"},       {"spec_index.", "core"},
      {"service.", "service"}, {"planner.", "service"},
      {"sweep.", "sweep"},     {"experiments.", "experiments"},
      {"lab.", "experiments"},
  };
  for (const auto& [name, layer] : kExact) {
    if (span_name == name) return layer;
  }
  for (const auto& [prefix, layer] : kPrefix) {
    if (span_name.rfind(prefix, 0) == 0) return layer;
  }
  return "";
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> kLayers = {
      "nas", "imb", "spec", "core", "service", "sweep", "experiments"};
  return kLayers;
}

Rollup rollup(const std::vector<swapp::obs::TraceEvent>& events) {
  using swapp::obs::TraceEvent;
  std::unordered_map<std::uint64_t, std::vector<const TraceEvent*>> children;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEvent::Kind::kSpan && e.parent != 0) {
      children[e.parent].push_back(&e);
    }
  }

  Rollup out;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::kSpan) continue;
    // Union of the direct children's intervals, clipped to this span (pool
    // workers' spans run beside each other and may overlap).
    std::vector<std::pair<double, double>> spans;
    const double end = e.start_us + e.dur_us;
    for (const TraceEvent* c : children[e.id]) {
      const double lo = std::max(c->start_us, e.start_us);
      const double hi = std::min(c->start_us + c->dur_us, end);
      if (hi > lo) spans.emplace_back(lo, hi);
    }
    std::sort(spans.begin(), spans.end());
    double covered = 0.0;
    double reach = e.start_us;
    for (const auto& [lo, hi] : spans) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    const double self_s = (e.dur_us - covered) * 1e-6;

    out.total_s[e.name] += e.dur_us * 1e-6;
    out.count[e.name] += 1.0;
    if (e.name == "bench.op") {
      out.root_s += e.dur_us * 1e-6;
      out.uncovered_s += self_s;
      continue;
    }
    const std::string layer = layer_of(e.name);
    if (layer.empty()) {
      if (std::find(out.unknown.begin(), out.unknown.end(), e.name) ==
          out.unknown.end()) {
        out.unknown.push_back(e.name);
      }
      out.uncovered_s += self_s;
      continue;
    }
    out.self_s[layer] += self_s;
  }
  return out;
}

}  // namespace perfbench
