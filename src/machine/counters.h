// Hardware performance-counter abstraction.
//
// The paper's compute projection (§2.1) characterises applications and
// benchmarks through six groups of PMU metrics collected with HPMCOUNT on the
// POWER5+ base machine:
//   G1 — CPI completion cycles
//   G2 — CPI stall cycles (by cause)
//   G3 — floating-point instructions
//   G4 — address-translation (ERAT / SLB / TLB) miss rates
//   G5 — data-cache reloads: data from L2 / L3 / local / remote memory per
//        instruction (m5,1 … m5,4 — the inputs of the ACSM model, §3.1)
//   G6 — memory bandwidth
// PmuCounters is the simulated equivalent: the processor model fills every
// field from first principles when it executes a kernel.
#pragma once

#include <array>
#include <string>

#include "support/units.h"

namespace swapp::machine {

/// One execution's worth of simulated PMU data.
struct PmuCounters {
  double instructions = 0.0;
  double cycles = 0.0;
  Seconds seconds = 0.0;

  // G1 — completion component of CPI.
  double cpi_completion = 0.0;

  // G2 — stall components of CPI, split by cause.
  double cpi_stall_fp = 0.0;
  double cpi_stall_mem = 0.0;
  double cpi_stall_branch = 0.0;
  double cpi_stall_other = 0.0;

  // G3 — floating point.
  double fp_per_instr = 0.0;
  double fp_vector_fraction = 0.0;

  // G4 — address translation miss rates (per instruction).
  double erat_miss_rate = 0.0;
  double slb_miss_rate = 0.0;
  double tlb_miss_rate = 0.0;

  // G5 — data reload sources (per instruction): m5,1 … m5,4.
  double data_from_l2_per_instr = 0.0;
  double data_from_l3_per_instr = 0.0;
  double data_from_local_mem_per_instr = 0.0;
  double data_from_remote_mem_per_instr = 0.0;

  // G6 — memory bandwidth actually consumed, GB/s.
  double memory_bandwidth_gbs = 0.0;

  double total_cpi() const noexcept {
    return cpi_completion + cpi_stall_fp + cpi_stall_mem + cpi_stall_branch +
           cpi_stall_other;
  }

  /// Accumulates another sample, weighting rates by instruction counts so the
  /// result describes the combined execution.
  void accumulate(const PmuCounters& other);
};

/// Number of scalar metrics exported to the projection layer.
inline constexpr std::size_t kMetricCount = 16;

/// Metric-group ids G1..G6 (0-based).
enum class MetricGroup : int {
  kCpiCompletion = 0,
  kCpiStall = 1,
  kFloatingPoint = 2,
  kTranslation = 3,
  kDataReloads = 4,
  kMemoryBandwidth = 5,
};
inline constexpr std::size_t kMetricGroupCount = 6;

/// Flattened metric vector in a fixed order, with each entry tagged by its
/// group.  This is the representation the surrogate search operates on.
struct MetricVector {
  std::array<double, kMetricCount> values{};

  static MetricVector from_counters(const PmuCounters& c);
  /// Group of the i-th metric.
  static MetricGroup group_of(std::size_t index);
  /// Human-readable metric name (for reports and tests).
  static std::string name_of(std::size_t index);
};

}  // namespace swapp::machine
