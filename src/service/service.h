// Batch projection service: the collect-once / project-many workflow as one
// subsystem.
//
// A `ProjectionService` owns the machines and, through its
// `ArtifactResolver` (resolver.h), the collectors and the artifact cache.
// `run` takes a batch of `ServiceRequest` rows, plans them (planner.h),
// resolves the shared inputs and every planned GA search through the
// content-addressed cache (artifact_cache.h) — so a warm cache directory
// satisfies a whole batch with zero simulation and zero searches — and
// projects each request from its search.  Results are byte-identical to
// sequential `Projector::project` calls at every thread count.
//
// The service depends only on core/io/imb/machine: application profiling and
// SPEC-library collection are injected as functions, so callers (CLI,
// daemon) decide where those come from without this layer linking the
// simulator harness.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/projector.h"
#include "machine/machine.h"
#include "service/planner.h"
#include "service/resolver.h"

namespace swapp::service {

struct ServiceConfig : CacheConfig {
  /// Task-count grid for the SPEC library; empty derives the grid from each
  /// batch's requests.  Fixing it keeps the library artifact (and the
  /// surrogates keyed by it) shared across batches with different request
  /// mixes.
  std::vector<int> spec_task_counts;
};

class ProjectionService : public ArtifactResolver {
 public:
  /// `targets` are the candidate machines this service projects onto (the
  /// SPEC library and one IMB database are collected for all of them).
  ProjectionService(machine::Machine base,
                    std::vector<machine::Machine> targets,
                    ServiceConfig config = {});

  /// Phases in execution order: plan, spec-library, imb-databases,
  /// app-profiles, projection (which runs the searches).
  struct BatchReport : RunReport {
    /// results[i] corresponds to requests[i] (input order).
    std::vector<core::ProjectionResult> results;
    BatchPlan plan;
  };

  /// Plans, acquires artifacts, searches, projects.  Throws NotFound for
  /// requests naming unregistered apps or unconfigured targets.
  BatchReport run(const std::vector<ServiceRequest>& requests);

  /// Several independent batches planned and executed as one run, so the
  /// planner's dedup (shared GA searches) works across them — the server's
  /// coalescing entry point, where each slice is one client's batch.
  struct CoalescedReport {
    BatchReport combined;  ///< the one planned run over every slice
    /// slices[i] holds the results for batches[i], in that batch's order.
    std::vector<std::vector<core::ProjectionResult>> slices;
  };
  CoalescedReport run_coalesced(
      const std::vector<std::vector<ServiceRequest>>& batches);

 private:
  std::vector<machine::Machine> targets_;
  std::map<std::string, machine::Machine> targets_by_name_;
  std::vector<int> spec_task_counts_;
};

}  // namespace swapp::service
