// Input data models for the SWAPP projection pipeline.
//
// The paper's information hygiene is encoded in these types: a projection
// consumes (a) application profiles measured on the BASE machine only —
// hardware counters at a few core counts Ci and MPI profiles at core counts
// Cj — and (b) benchmark data (SPEC-style runtimes, IMB-style tables) for
// base AND target.  Nothing here ever holds a target-machine application
// measurement.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "machine/counters.h"
#include "mpi/profile.h"
#include "support/units.h"

namespace swapp::core {

/// Application data collected on the base system (paper Fig. 1, left side).
struct AppBaseData {
  std::string app;
  std::string base_machine;
  /// OpenMP threads per MPI task (1 = pure MPI).  Hybrid profiles must be
  /// collected with the same thread count the projection targets so node
  /// occupancy matches between application and benchmarks.
  int threads_per_rank = 1;

  /// MPI profiles at each profiled task count Cj (paper §2.4 step 1).
  std::map<int, mpi::MpiProfile> mpi_profiles;

  /// Hardware counters at each counter-collection count Ci (n ≤ 4 suffices
  /// per §3.1), in single-thread and SMT modes (§4's ST/SMT methodology).
  std::map<int, machine::PmuCounters> counters_st;
  std::map<int, machine::PmuCounters> counters_smt;

  /// Mean per-task compute seconds at each Cj (input to CCSM).
  std::map<int, Seconds> mean_compute;

  const mpi::MpiProfile& profile_at(int cores) const;
  /// Profiled task counts in ascending order.
  std::vector<int> profiled_core_counts() const;
  std::vector<int> counter_core_counts() const;
};

/// SPEC-style benchmark data at one fixed node occupancy per machine: the
/// flat view a `SpecIndex` is constructed from.
struct SpecData {
  std::vector<std::string> names;
  std::map<std::string, machine::PmuCounters> base_counters_st;
  std::map<std::string, machine::PmuCounters> base_counters_smt;
  std::map<std::string, Seconds> base_runtime;
  /// machine name -> benchmark name -> runtime.
  std::map<std::string, std::map<std::string, Seconds>> target_runtime;
};

/// The full benchmark library: SPEC-style throughput ("rate") data at every
/// published copy count (node occupancy), for the base and each target.
///
/// SPEC rate results are published per copy count; an application running Ck
/// tasks occupies min(Ck, cores/node) cores of each node, and the projection
/// must compare against benchmark data at that same occupancy — otherwise
/// shared-cache and memory-bandwidth pressure differ between benchmark and
/// application and the surrogate's base→target speedups are systematically
/// wrong for partially-filled nodes.
struct SpecLibrary {
  std::vector<std::string> names;
  std::string base_machine;
  int base_cores_per_node = 0;

  /// occupancy (copies per node) -> benchmark -> data, on the base machine.
  std::map<int, std::map<std::string, machine::PmuCounters>> base_counters_st;
  std::map<int, std::map<std::string, machine::PmuCounters>> base_counters_smt;
  std::map<int, std::map<std::string, Seconds>> base_runtime;

  struct TargetInfo {
    int cores_per_node = 0;
    /// occupancy -> benchmark -> runtime.
    std::map<int, std::map<std::string, Seconds>> runtime;
  };
  std::map<std::string, TargetInfo> targets;

  /// Node occupancy of an application with `ck` tasks on a machine with
  /// `cores_per_node` cores (block placement).
  static int occupancy_for(int ck, int cores_per_node);

  /// Flattens the library to the (base, target) occupancy pair relevant for
  /// a projection at Ck.  Uses the nearest collected occupancy when the
  /// exact one is absent.
  SpecData view(int base_occupancy, const std::string& target_machine,
                int target_occupancy) const;
};

}  // namespace swapp::core
