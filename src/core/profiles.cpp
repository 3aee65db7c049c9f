#include "core/profiles.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace swapp::core {

const mpi::MpiProfile& AppBaseData::profile_at(int cores) const {
  const auto it = mpi_profiles.find(cores);
  if (it == mpi_profiles.end()) {
    throw NotFound("no MPI profile for " + app + " at " +
                   std::to_string(cores) + " tasks");
  }
  return it->second;
}

std::vector<int> AppBaseData::profiled_core_counts() const {
  std::vector<int> out;
  out.reserve(mpi_profiles.size());
  for (const auto& [cores, profile] : mpi_profiles) out.push_back(cores);
  return out;
}

std::vector<int> AppBaseData::counter_core_counts() const {
  std::vector<int> out;
  out.reserve(counters_st.size());
  for (const auto& [cores, counters] : counters_st) out.push_back(cores);
  return out;
}

int SpecLibrary::occupancy_for(int ck, int cores_per_node) {
  SWAPP_REQUIRE(ck >= 1 && cores_per_node >= 1,
                "occupancy_for needs positive arguments");
  return std::min(ck, cores_per_node);
}

namespace {

/// Nearest key in a map (exact when present).
template <typename Map>
const typename Map::mapped_type& nearest_occupancy(const Map& by_occupancy,
                                                   int occupancy,
                                                   const char* what) {
  if (by_occupancy.empty()) {
    throw NotFound(std::string("SpecLibrary has no data for ") + what);
  }
  const auto exact = by_occupancy.find(occupancy);
  if (exact != by_occupancy.end()) return exact->second;
  const typename Map::mapped_type* best = nullptr;
  int best_distance = 0;
  for (const auto& [occ, data] : by_occupancy) {
    const int d = std::abs(occ - occupancy);
    if (best == nullptr || d < best_distance) {
      best = &data;
      best_distance = d;
    }
  }
  return *best;
}

}  // namespace

SpecData SpecLibrary::view(int base_occupancy,
                           const std::string& target_machine,
                           int target_occupancy) const {
  const auto target_it = targets.find(target_machine);
  if (target_it == targets.end()) {
    throw NotFound("SpecLibrary has no target: " + target_machine);
  }
  SpecData out;
  out.names = names;
  out.base_counters_st =
      nearest_occupancy(base_counters_st, base_occupancy, "base ST counters");
  out.base_counters_smt = nearest_occupancy(base_counters_smt, base_occupancy,
                                            "base SMT counters");
  out.base_runtime =
      nearest_occupancy(base_runtime, base_occupancy, "base runtimes");
  out.target_runtime[target_machine] = nearest_occupancy(
      target_it->second.runtime, target_occupancy, "target runtimes");
  return out;
}

}  // namespace swapp::core
