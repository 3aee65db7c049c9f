#include "service/planner.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace swapp::service {

std::size_t BatchPlan::artifact_count(const std::string& kind) const {
  std::size_t n = 0;
  for (const PlannedArtifact& a : artifacts) n += a.kind == kind;
  return n;
}

std::string BatchPlan::describe() const {
  std::ostringstream os;
  os << "batch plan: " << requests << " request(s), " << apps.size()
     << " app(s), " << targets.size() << " target(s)\n";
  os << "  spec-library task counts:";
  for (const int c : task_counts) os << ' ' << c;
  os << "\n  shared artifacts: " << artifact_count("spec-index")
     << " spec index(es), " << artifact_count("surrogate-search")
     << " shared surrogate search(es)\n";
  os << "  GA searches: " << searches << " (naive: " << naive_searches
     << ")\n";
  return os.str();
}

BatchPlan plan_batch(const std::vector<ServiceRequest>& requests,
                     const machine::Machine& base,
                     const std::map<std::string, machine::Machine>& targets) {
  SWAPP_SPAN("planner.plan_batch");
  BatchPlan plan;
  plan.requests = requests.size();

  std::set<std::string> seen_apps;
  std::set<std::string> seen_targets;
  std::set<int> demands;
  std::map<std::string, std::size_t> artifact_slots;

  const auto note_artifact = [&](const std::string& kind,
                                 const std::string& key) {
    const auto [it, inserted] =
        artifact_slots.emplace(kind + "\n" + key, plan.artifacts.size());
    if (inserted) plan.artifacts.push_back(PlannedArtifact{kind, key, 0});
    ++plan.artifacts[it->second].uses;
    return inserted;
  };

  for (const ServiceRequest& r : requests) {
    SWAPP_REQUIRE(r.cores >= 1, "request needs cores >= 1");
    SWAPP_REQUIRE(r.threads >= 1, "request needs threads >= 1");
    const auto target_it = targets.find(r.target);
    if (target_it == targets.end()) {
      throw NotFound("batch target not configured: " + r.target);
    }
    if (seen_apps.insert(r.app).second) plan.apps.push_back(r.app);
    if (seen_targets.insert(r.target).second) plan.targets.push_back(r.target);

    const int reference = r.options.compute.surrogate_reference_cores;
    const int search_ck = reference > 0 ? reference : r.cores;
    demands.insert(r.cores * r.threads);
    demands.insert(search_ck * r.threads);

    // Mirror of the engine's planning keys: the indexed view is shared per
    // (target, occupancy pair); the search per (app, target, reference,
    // options) group when a reference count pins it.
    const int demand = search_ck * r.threads;
    const int base_occ =
        core::SpecLibrary::occupancy_for(demand, base.cores_per_node);
    const int target_occ = core::SpecLibrary::occupancy_for(
        demand, target_it->second.cores_per_node);
    note_artifact("spec-index",
                  core::SpecIndex::key_of(r.target, base_occ, target_occ));

    ++plan.naive_searches;
    if (reference > 0) {
      std::ostringstream key;
      key << r.app << '|' << r.target << '|' << r.threads << '|'
          << core::compute_options_key(r.options.compute);
      if (note_artifact("surrogate-search", key.str())) ++plan.searches;
    } else {
      ++plan.searches;
    }
  }

  plan.task_counts.assign(demands.begin(), demands.end());
  SWAPP_COUNT("planner.requests", plan.requests);
  SWAPP_COUNT("planner.searches", plan.searches);
  SWAPP_COUNT("planner.naive_searches", plan.naive_searches);
  return plan;
}

}  // namespace swapp::service
