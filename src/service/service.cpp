#include "service/service.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace swapp::service {
namespace {

constexpr ResolverNames kNames{"service",
                               "service.spec_library",
                               "service.imb_databases",
                               "service.app_profiles",
                               "service.searches",
                               "service.project_requests"};

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

  const std::vector<Library> spec = run.spec_libraries(
      {{targets_, "spec library"}},
      spec_task_counts_.empty() ? report.plan.task_counts : spec_task_counts_);
  run.end_phase("spec-library");
  report.results =
      run.project_batch(report.plan, requests, spec.front(), targets_);
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
