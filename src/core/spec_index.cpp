#include "core/spec_index.h"

#include <algorithm>
#include <map>
#include <utility>

#include "support/error.h"

namespace swapp::core {
namespace {

/// Builds the decomposition from suite-ordered ST metric vectors.
SuiteIntensity compute_suite_intensity(
    const std::vector<machine::MetricVector>& vectors) {
  SuiteIntensity out;
  const std::size_t n = vectors.size();
  // Per-metric normalisation scale: the suite mean (guards against zero).
  out.scale.fill(0.0);
  for (const machine::MetricVector& v : vectors) {
    for (std::size_t i = 0; i < machine::kMetricCount; ++i) {
      out.scale[i] += v.values[i];
    }
  }
  for (double& s : out.scale) {
    s = std::max(s / static_cast<double>(n), 1e-12);
  }
  out.bench.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::array<double, machine::kMetricGroupCount>& g = out.bench[k];
    g.fill(0.0);
    for (std::size_t i = 0; i < machine::kMetricCount; ++i) {
      const auto group =
          static_cast<std::size_t>(machine::MetricVector::group_of(i));
      g[group] += vectors[k].values[i] / out.scale[i];
    }
  }
  return out;
}

}  // namespace

SpecIndex::SpecIndex(const SpecData& view, std::string target)
    : target_machine(std::move(target)), names(view.names) {
  SWAPP_REQUIRE(!names.empty(), "empty benchmark suite");
  const std::map<std::string, Seconds>* target_runtime = nullptr;
  if (!view.target_runtime.empty()) {
    const auto it = view.target_runtime.find(target_machine);
    if (it == view.target_runtime.end()) {
      throw NotFound("no benchmark runtimes for machine: " + target_machine);
    }
    target_runtime = &it->second;
  }
  const std::size_t n = names.size();
  bench_st.reserve(n);
  bench_smt.reserve(n);
  base_time.reserve(n);
  target_time.reserve(n);
  for (const std::string& name : names) {
    bench_st.push_back(
        machine::MetricVector::from_counters(view.base_counters_st.at(name)));
    bench_smt.push_back(
        machine::MetricVector::from_counters(view.base_counters_smt.at(name)));
    base_time.push_back(view.base_runtime.at(name));
    if (target_runtime == nullptr) {
      target_time.push_back(base_time.back());
      continue;
    }
    const auto it = target_runtime->find(name);
    if (it == target_runtime->end()) {
      throw NotFound("no runtime of " + name + " on " + target_machine);
    }
    target_time.push_back(it->second);
  }
  intensity = compute_suite_intensity(bench_st);
}

SpecIndex SpecIndex::build(const SpecLibrary& lib,
                           const std::string& target_machine,
                           int base_occupancy, int target_occupancy) {
  return SpecIndex(lib.view(base_occupancy, target_machine, target_occupancy),
                   target_machine);
}

SpecIndex SpecIndex::for_demand(const SpecLibrary& lib,
                                int base_cores_per_node,
                                const std::string& target_machine,
                                int demand) {
  const auto target_it = lib.targets.find(target_machine);
  if (target_it == lib.targets.end()) {
    throw NotFound("SpecLibrary has no target: " + target_machine);
  }
  return build(lib, target_machine,
               SpecLibrary::occupancy_for(demand, base_cores_per_node),
               SpecLibrary::occupancy_for(demand,
                                          target_it->second.cores_per_node));
}

}  // namespace swapp::core
