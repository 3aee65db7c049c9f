// Metric-group ranking and target adjustment (paper §2.3 steps 2–4).
//
// Step 2 relates each metric group to runtime on the base machine: every
// group's contribution is expressed in cycles-per-instruction attributable
// to that group, derived from the base architecture's cost parameters.
// Step 3 ranks groups by that contribution.  Step 4 adjusts the ranking for
// the target using only benchmark data: benchmarks whose signatures are
// heavy in a group reveal, through their base→target speedups, how much that
// group matters on the target.  A group whose heavy benchmarks speed up
// *less* than average gains weight on the target (it will dominate runtime
// there); one whose heavy benchmarks speed up more loses weight.
#pragma once

#include <array>

#include "core/spec_index.h"
#include "machine/counters.h"
#include "machine/machine.h"

namespace swapp::core {

/// Normalised per-group importance weights (sum to 1), ordered G1..G6.
struct GroupWeights {
  std::array<double, machine::kMetricGroupCount> weight{};

  double operator[](machine::MetricGroup g) const {
    return weight[static_cast<std::size_t>(g)];
  }
  /// 1-based rank (1 = most important) of each group.
  std::array<int, machine::kMetricGroupCount> ranks() const;
};

/// Step 2+3: group contributions to runtime on the base machine, from the
/// application's counters and the base processor's cost parameters.
GroupWeights base_group_weights(const machine::PmuCounters& app,
                                const machine::Machine& base);

/// Step 4: adjusts base weights to the index's target machine using the
/// benchmarks' counter signatures (base) and runtimes (base and target).
GroupWeights adjust_weights_to_target(const GroupWeights& base_weights,
                                      const SpecIndex& index);

}  // namespace swapp::core
