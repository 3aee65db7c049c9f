// The benchmark view the compute projection reads.
//
// A projection compares the application against SPEC-style benchmark data at
// one (base occupancy, target occupancy) pair (paper §2.3 step 1).  A
// `SpecIndex` holds that data in suite-ordered arrays: the ranking's step 4,
// the GA surrogate search and Eq. 2 all read it, and nothing else.  Every
// index comes from one constructor over a flat `SpecData` view, so the
// metric-vector conversions and the suite intensity decomposition are done
// once per index, never per stage.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/profiles.h"
#include "machine/counters.h"

namespace swapp::core {

/// Suite-wide intensity decomposition consumed by ranking step 4
/// (`adjust_weights_to_target`): the per-metric normalisation scale (suite
/// mean, floored) plus each benchmark's per-group normalised intensity.  A
/// pure function of the suite's ST metric vectors — independent of the
/// application and of the target runtimes — so the index computes it once
/// and every adjustment against the index runs only the speedup-weighted
/// pass.
struct SuiteIntensity {
  std::array<double, machine::kMetricCount> scale{};
  /// bench[k][g] = Σ over metrics i in group g of vectors[k][i] / scale[i].
  std::vector<std::array<double, machine::kMetricGroupCount>> bench;

  std::size_t size() const noexcept { return bench.size(); }
};

struct SpecIndex {
  std::string target_machine;

  // Suite-ordered arrays: slot k is benchmark names[k].
  std::vector<std::string> names;
  std::vector<machine::MetricVector> bench_st;
  std::vector<machine::MetricVector> bench_smt;
  std::vector<double> base_time;
  std::vector<double> target_time;

  /// Ranking-step-4 decomposition over `bench_st` (see SuiteIntensity).
  SuiteIntensity intensity;

  /// The one constructor: indexes `view` against `target_machine`'s
  /// runtimes.  A view with no target runtimes at all (a hand-built
  /// synthetic suite) takes its base runtimes as the target.
  SpecIndex(const SpecData& view, std::string target_machine);

  std::size_t size() const noexcept { return base_time.size(); }

  /// The index over `lib.view(base_occupancy, target_machine,
  /// target_occupancy)`.
  static SpecIndex build(const SpecLibrary& lib,
                         const std::string& target_machine, int base_occupancy,
                         int target_occupancy);

  /// The index a projection onto `target_machine` reads when the job
  /// occupies `demand` hardware threads (tasks · threads per task) under
  /// block placement: each machine's occupancy is the demand capped at its
  /// node size.
  static SpecIndex for_demand(const SpecLibrary& lib, int base_cores_per_node,
                              const std::string& target_machine, int demand);
};

}  // namespace swapp::core
