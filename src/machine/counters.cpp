#include "machine/counters.h"

#include "support/error.h"

namespace swapp::machine {

void PmuCounters::accumulate(const PmuCounters& other) {
  const double total_instr = instructions + other.instructions;
  if (total_instr <= 0.0) return;
  const double w0 = instructions / total_instr;
  const double w1 = other.instructions / total_instr;

  const auto blend = [&](double a, double b) { return w0 * a + w1 * b; };

  cpi_completion = blend(cpi_completion, other.cpi_completion);
  cpi_stall_fp = blend(cpi_stall_fp, other.cpi_stall_fp);
  cpi_stall_mem = blend(cpi_stall_mem, other.cpi_stall_mem);
  cpi_stall_branch = blend(cpi_stall_branch, other.cpi_stall_branch);
  cpi_stall_other = blend(cpi_stall_other, other.cpi_stall_other);
  fp_per_instr = blend(fp_per_instr, other.fp_per_instr);
  fp_vector_fraction = blend(fp_vector_fraction, other.fp_vector_fraction);
  erat_miss_rate = blend(erat_miss_rate, other.erat_miss_rate);
  slb_miss_rate = blend(slb_miss_rate, other.slb_miss_rate);
  tlb_miss_rate = blend(tlb_miss_rate, other.tlb_miss_rate);
  data_from_l2_per_instr = blend(data_from_l2_per_instr,
                                 other.data_from_l2_per_instr);
  data_from_l3_per_instr = blend(data_from_l3_per_instr,
                                 other.data_from_l3_per_instr);
  data_from_local_mem_per_instr =
      blend(data_from_local_mem_per_instr, other.data_from_local_mem_per_instr);
  data_from_remote_mem_per_instr = blend(data_from_remote_mem_per_instr,
                                         other.data_from_remote_mem_per_instr);

  // Bandwidth is time-weighted, not instruction-weighted.
  const Seconds total_time = seconds + other.seconds;
  if (total_time > 0.0) {
    memory_bandwidth_gbs =
        (memory_bandwidth_gbs * seconds +
         other.memory_bandwidth_gbs * other.seconds) /
        total_time;
  }

  instructions = total_instr;
  cycles += other.cycles;
  seconds += other.seconds;
}

MetricVector MetricVector::from_counters(const PmuCounters& c) {
  MetricVector v;
  v.values = {
      c.cpi_completion,                  // 0  G1
      c.cpi_stall_fp,                    // 1  G2
      c.cpi_stall_mem,                   // 2  G2
      c.cpi_stall_branch,                // 3  G2
      c.cpi_stall_other,                 // 4  G2
      c.fp_per_instr,                    // 5  G3
      c.fp_vector_fraction,              // 6  G3
      c.erat_miss_rate,                  // 7  G4
      c.slb_miss_rate,                   // 8  G4
      c.tlb_miss_rate,                   // 9  G4
      c.data_from_l2_per_instr,          // 10 G5 (m5,1)
      c.data_from_l3_per_instr,          // 11 G5 (m5,2)
      c.data_from_local_mem_per_instr,   // 12 G5 (m5,3)
      c.data_from_remote_mem_per_instr,  // 13 G5 (m5,4)
      c.memory_bandwidth_gbs,            // 14 G6
      // Derived: memory traffic per instruction (bytes).  Under bandwidth
      // saturation the raw GB/s counter clips at the machine's ceiling and
      // stops discriminating; traffic intensity does not.
      c.instructions > 0.0
          ? c.memory_bandwidth_gbs * 1e9 * c.seconds / c.instructions
          : 0.0,                         // 15 G6
  };
  return v;
}

MetricGroup MetricVector::group_of(std::size_t index) {
  SWAPP_REQUIRE(index < kMetricCount, "metric index out of range");
  if (index == 0) return MetricGroup::kCpiCompletion;
  if (index <= 4) return MetricGroup::kCpiStall;
  if (index <= 6) return MetricGroup::kFloatingPoint;
  if (index <= 9) return MetricGroup::kTranslation;
  if (index <= 13) return MetricGroup::kDataReloads;
  return MetricGroup::kMemoryBandwidth;  // 14 and 15
}

std::string MetricVector::name_of(std::size_t index) {
  static const std::array<const char*, kMetricCount> kNames = {
      "cpi_completion",    "cpi_stall_fp",     "cpi_stall_mem",
      "cpi_stall_branch",  "cpi_stall_other",  "fp_per_instr",
      "fp_vector_frac",    "erat_miss_rate",   "slb_miss_rate",
      "tlb_miss_rate",     "data_from_l2",     "data_from_l3",
      "data_from_lmem",    "data_from_rmem",   "mem_bandwidth_gbs",
      "mem_bytes_per_instr",
  };
  SWAPP_REQUIRE(index < kMetricCount, "metric index out of range");
  return kNames[index];
}

}  // namespace swapp::machine
