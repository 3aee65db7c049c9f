#include "service/planner.h"

#include <set>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace swapp::service {

BatchPlan plan_batch(const std::vector<ServiceRequest>& requests,
                     const std::map<std::string, machine::Machine>& targets) {
  SWAPP_SPAN("planner.plan_batch");
  BatchPlan plan;
  plan.requests = requests.size();
  plan.naive_searches = requests.size();

  std::set<std::string> seen_apps;
  std::set<std::string> seen_targets;
  std::set<int> demands;
  std::map<std::string, std::size_t> search_slots;

  for (const ServiceRequest& r : requests) {
    SWAPP_REQUIRE(r.cores >= 1, "request needs cores >= 1");
    SWAPP_REQUIRE(r.threads >= 1, "request needs threads >= 1");
    if (targets.find(r.target) == targets.end()) {
      throw NotFound("batch target not configured: " + r.target);
    }
    if (seen_apps.insert(r.app).second) plan.apps.push_back(r.app);
    if (seen_targets.insert(r.target).second) plan.targets.push_back(r.target);

    const int reference = r.options.compute.surrogate_reference_cores;
    const int search_ck = reference > 0 ? reference : r.cores;
    demands.insert(r.cores * r.threads);
    demands.insert(search_ck * r.threads);

    std::ostringstream key;
    key << r.app << '\n' << r.target << '\n' << search_ck << '\n'
        << r.threads << '\n' << core::compute_options_key(r.options.compute);
    const auto [it, inserted] =
        search_slots.emplace(key.str(), plan.searches.size());
    if (inserted) {
      plan.searches.push_back(BatchPlan::Search{
          r.app, r.target, search_ck, r.threads, r.options.compute, 0});
    }
    ++plan.searches[it->second].uses;
    plan.search_of.push_back(it->second);
  }

  plan.task_counts.assign(demands.begin(), demands.end());
  SWAPP_COUNT("planner.requests", plan.requests);
  SWAPP_COUNT("planner.searches", plan.searches.size());
  SWAPP_COUNT("planner.naive_searches", plan.naive_searches);
  return plan;
}

}  // namespace swapp::service
