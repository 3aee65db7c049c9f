// Request planner for batched projections.
//
// A batch of projection requests shares most of its expensive inputs: one
// SPEC library and one IMB database per machine serve every request, and
// one GA surrogate search serves every request that agrees on (app, target,
// search count, threads, compute options) — when `surrogate_reference_cores`
// is set, the search count is that reference and every core count of the
// group rides one search.  `plan_batch` makes that sharing explicit before
// any work runs, and `ArtifactResolver::Run::project_batch` (the executor
// of the batch service and the experiment Lab) runs the plan as it stands:
// it resolves each planned search through the artifact cache (a warm cache
// replays it from disk) and projects every request from its search.  Tests
// assert the dedup on the plan alone, without running it.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/projector.h"
#include "machine/machine.h"

namespace swapp::service {

/// One row of a batch, by registered-artifact name (the service resolves
/// `app` to collected base data before projecting).
struct ServiceRequest {
  std::string app;
  std::string target;
  int cores = 0;
  int threads = 1;  ///< OpenMP threads per task; must match the app profile
  core::ProjectionOptions options;
};

struct BatchPlan {
  /// One GA surrogate search and the requests it serves.
  struct Search {
    std::string app;
    std::string target;
    int search_ck = 0;  ///< the pinned reference count, else the request's
    int threads = 1;
    core::ComputeProjectionOptions options;
    std::size_t uses = 0;
  };

  std::size_t requests = 0;
  std::vector<std::string> apps;     ///< distinct, first-appearance order
  std::vector<std::string> targets;  ///< distinct, first-appearance order
  /// Ascending union of the task-count demands (cores × threads, plus the
  /// surrogate reference demands) — what the SPEC library must cover.
  std::vector<int> task_counts;
  /// The searches the batch runs after dedup, first-appearance order.
  std::vector<Search> searches;
  /// For each request (input order), the index of its search.
  std::vector<std::size_t> search_of;
  /// Searches N independent `project` calls would have run.
  std::size_t naive_searches = 0;
};

/// Plans the batch against the machines it will run on (`targets` must hold
/// every machine named by a request; throws NotFound otherwise).
BatchPlan plan_batch(const std::vector<ServiceRequest>& requests,
                     const std::map<std::string, machine::Machine>& targets);

}  // namespace swapp::service
