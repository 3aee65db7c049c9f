#include "service/service.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::service {
namespace {

constexpr ResolverNames kNames{"service", "service.spec_library",
                               "service.imb_databases",
                               "service.app_profiles", "service.searches"};

}  // namespace

ProjectionService::ProjectionService(machine::Machine base,
                                     std::vector<machine::Machine> targets,
                                     ServiceConfig config)
    : ArtifactResolver(std::move(base), config),
      targets_(std::move(targets)),
      spec_task_counts_(std::move(config.spec_task_counts)) {
  SWAPP_REQUIRE(!targets_.empty(), "service needs at least one target");
  for (const machine::Machine& t : targets_) {
    targets_by_name_.emplace(t.name, t);
  }
}

ProjectionService::BatchReport ProjectionService::run(
    const std::vector<ServiceRequest>& requests) {
  SWAPP_SPAN("service.run");
  SWAPP_COUNT("service.batches", 1);
  BatchReport report;
  Run run(*this, kNames, report);
  report.plan = plan_batch(requests, targets_by_name_);
  for (const std::string& app : report.plan.apps) {
    if (!has_app(app)) throw NotFound("app not registered: " + app);
  }
  run.end_phase("plan");

  // --- Resolve the shared inputs --------------------------------------------
  const std::vector<Library> spec = run.spec_libraries(
      {{targets_, "spec library"}},
      spec_task_counts_.empty() ? report.plan.task_counts : spec_task_counts_);
  run.end_phase("spec-library");

  // IMB databases, base first then targets in configuration order.
  std::vector<machine::Machine> machines{base()};
  machines.insert(machines.end(), targets_.begin(), targets_.end());
  const std::vector<std::shared_ptr<const imb::ImbDatabase>> imb =
      run.imb_databases(machines);
  std::map<std::string, const imb::ImbDatabase*> target_imb;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    target_imb.emplace(targets_[i].name, imb[i + 1].get());
  }
  run.end_phase("imb-databases");

  // Application base profiles, in plan (first-appearance) order.
  const std::vector<App> apps = run.app_profiles(report.plan.apps);
  std::map<std::string, const App*> app_of;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    app_of.emplace(report.plan.apps[i], &apps[i]);
  }
  run.end_phase("app-profiles");

  // --- The planned searches, then every request from its search -------------
  std::vector<SearchJob> jobs;
  for (const BatchPlan::Search& s : report.plan.searches) {
    const App& app = *app_of.at(s.app);
    SWAPP_REQUIRE(app.data->threads_per_rank == s.threads,
                  "request thread count does not match the profile of " +
                      s.app);
    jobs.push_back(SearchJob{&spec.front(), &app, s.app, s.target,
                             s.search_ck, s.threads, s.options});
  }
  const std::vector<std::shared_ptr<const core::ComputeProjection>>
      surrogates = run.searches(jobs);
  report.results.resize(requests.size());
  {
    SWAPP_SPAN("service.project_requests");
    parallel_for(requests.size(), [&](std::size_t i) {
      const ServiceRequest& r = requests[i];
      const std::size_t s = report.plan.search_of[i];
      report.results[i] = project_from_surrogate(
          *app_of.at(r.app)->data, r.target, r.cores,
          report.plan.searches[s].search_ck, *surrogates[s], *imb.front(),
          *target_imb.at(r.target), r.options);
    });
  }
  run.end_phase("projection");

  run.finish();
  return report;
}

ProjectionService::CoalescedReport ProjectionService::run_coalesced(
    const std::vector<std::vector<ServiceRequest>>& batches) {
  SWAPP_SPAN("service.run_coalesced");
  std::vector<ServiceRequest> combined;
  for (const std::vector<ServiceRequest>& batch : batches) {
    combined.insert(combined.end(), batch.begin(), batch.end());
  }
  CoalescedReport report;
  report.combined = run(combined);
  std::size_t next = 0;
  for (const std::vector<ServiceRequest>& batch : batches) {
    report.slices.emplace_back(
        report.combined.results.begin() + static_cast<std::ptrdiff_t>(next),
        report.combined.results.begin() +
            static_cast<std::ptrdiff_t>(next + batch.size()));
    next += batch.size();
  }
  return report;
}

}  // namespace swapp::service
