#include "core/ranking.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/error.h"

namespace swapp::core {

std::array<int, machine::kMetricGroupCount> GroupWeights::ranks() const {
  std::array<std::size_t, machine::kMetricGroupCount> order{};
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    return a < b;
  });
  std::array<int, machine::kMetricGroupCount> out{};
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    out[order[pos]] = static_cast<int>(pos) + 1;
  }
  return out;
}

GroupWeights base_group_weights(const machine::PmuCounters& app,
                                const machine::Machine& base) {
  const machine::ProcessorConfig& p = base.processor;

  // Per-group runtime contributions in cycles per instruction.  G1/G2 are
  // CPI components directly; G3–G6 are re-expressed in cycles through the
  // base machine's architectural cost parameters (paper: "the two steps
  // follow directly from the architectural specifications of the base").
  std::array<double, machine::kMetricGroupCount> contribution{};
  contribution[0] = app.cpi_completion;  // G1
  contribution[1] = app.cpi_stall_fp + app.cpi_stall_mem +
                    app.cpi_stall_branch + app.cpi_stall_other;  // G2
  contribution[2] = app.fp_per_instr / std::max(p.fp_per_cycle, 1e-9);  // G3
  contribution[3] = app.erat_miss_rate * p.erat_penalty_cycles +
                    app.slb_miss_rate * p.slb_penalty_cycles +
                    app.tlb_miss_rate * p.tlb_penalty_cycles;  // G4

  double reload_cycles = 0.0;  // G5: latency-weighted reload traffic
  for (const auto& level : base.caches.levels()) {
    if (level.name == "L2") {
      reload_cycles += app.data_from_l2_per_instr * level.latency_cycles;
    } else if (level.name == "L3") {
      reload_cycles += app.data_from_l3_per_instr * level.latency_cycles;
    }
  }
  reload_cycles += app.data_from_local_mem_per_instr *
                   base.caches.memory().latency_cycles;
  reload_cycles += app.data_from_remote_mem_per_instr *
                   base.caches.memory().remote_latency_cycles;
  contribution[4] = reload_cycles;

  // G6: cycles per instruction spent at the bandwidth ceiling if this
  // application's bandwidth demand were served alone.
  const double node_bw = base.caches.memory().node_bandwidth_gbs;
  contribution[5] =
      app.memory_bandwidth_gbs / std::max(node_bw, 1e-9) * app.total_cpi();

  const double total =
      std::accumulate(contribution.begin(), contribution.end(), 0.0);
  SWAPP_ASSERT(total > 0.0, "all metric-group contributions are zero");

  GroupWeights out;
  for (std::size_t g = 0; g < contribution.size(); ++g) {
    out.weight[g] = contribution[g] / total;
  }
  return out;
}

GroupWeights adjust_weights_to_target(const GroupWeights& base_weights,
                                      const SpecIndex& index) {
  // The suite decomposition is target-independent and precomputed by the
  // index; only the speedup-weighted pass below depends on the target.
  const std::size_t n = index.size();

  // Suite-wide mean speedup and per-group intensity-weighted mean speedup.
  double mean_speedup = 0.0;
  std::array<double, machine::kMetricGroupCount> weighted_speedup{};
  std::array<double, machine::kMetricGroupCount> intensity_sum{};
  for (std::size_t k = 0; k < n; ++k) {
    const double speedup = index.base_time[k] / index.target_time[k];
    mean_speedup += speedup;
    const std::array<double, machine::kMetricGroupCount>& intensity =
        index.intensity.bench[k];
    for (std::size_t g = 0; g < machine::kMetricGroupCount; ++g) {
      weighted_speedup[g] += intensity[g] * speedup;
      intensity_sum[g] += intensity[g];
    }
  }
  mean_speedup /= static_cast<double>(n);

  // Groups whose heavy benchmarks speed up less than average grow in
  // importance on the target; cap the correction to keep it a re-weighting,
  // not a replacement, of the base analysis.
  GroupWeights out;
  double total = 0.0;
  for (std::size_t g = 0; g < machine::kMetricGroupCount; ++g) {
    double factor = 1.0;
    if (intensity_sum[g] > 1e-12 && mean_speedup > 0.0) {
      const double group_speedup = weighted_speedup[g] / intensity_sum[g];
      factor = std::clamp(mean_speedup / std::max(group_speedup, 1e-12),
                          0.5, 2.0);
    }
    out.weight[g] = base_weights.weight[g] * factor;
    total += out.weight[g];
  }
  SWAPP_ASSERT(total > 0.0, "adjusted weights vanished");
  for (double& w : out.weight) w /= total;
  return out;
}

}  // namespace swapp::core
