// Sweep executor: drives a planned sweep through the artifact resolver
// (service/resolver.h, shared with the batch service) and the core
// projection APIs, materialising each equivalence class of the plan exactly
// once.  A sweep's points name *different machines*, so the runner works
// from the planner's side classification —
//
//   * per compute class it collects one SPEC library for a canonical
//     "spec representative" (the class's machine with its comm-side fields
//     reset to the original target's, so the artifact key is independent of
//     which member happened to come first);
//   * per (compute class, search count) it runs one GA surrogate search,
//     cached persistently, and every member point is built by
//     `core::project_from_surrogate` — the search's surrogate as-is or
//     `core::rescale_reference`d, the exact rescale `Projector::project`
//     applies, so identity points are byte-identical to a direct projection;
//   * per comm class it acquires one IMB database for a "comm
//     representative" (compute-side fields reset), feeding the point's
//     communication projection.
//
// Classes whose side configuration equals the unmodified target keep its
// machine name, so their artifacts are the very same cache entries an
// ordinary `swapp batch`/`swapp project` run reads and writes.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/projector.h"
#include "machine/machine.h"
#include "service/resolver.h"
#include "sweep/planner.h"
#include "sweep/result.h"
#include "sweep/sweep.h"

namespace swapp::sweep {

struct SweepConfig : service::CacheConfig {
  /// Hard cap on the expanded point count; `run` throws InvalidArgument
  /// beyond it (a typo'd range axis should fail fast, not enumerate 10^9
  /// machines).
  std::size_t max_points = 4096;
};

/// Collectors and apps register through the `ArtifactResolver` base, the
/// same surface `ProjectionService` exposes.  The spec collector is called
/// once per compute class with that class's representative as the only
/// target — representatives carry variant names, so it must honour the
/// machine *configuration* it receives.
class SweepRunner : public service::ArtifactResolver {
 public:
  /// `targets` are the machines sweeps may perturb (a spec's `target` must
  /// name one of them).
  SweepRunner(machine::Machine base, std::vector<machine::Machine> targets,
              SweepConfig config = {});

  /// Streamed per point as its projection is finalised, in index order.
  using PointCallback = std::function<void(const SweepPoint& point,
                                           const core::ProjectionResult&)>;

  /// Phases in execution order: plan, spec-libraries, imb-databases,
  /// app-profile, projection.
  struct SweepReport : service::RunReport {
    std::vector<SweepPoint> points;
    SweepPlan plan;
    /// results[i] corresponds to points[i]; `target` carries the variant
    /// machine name.
    std::vector<core::ProjectionResult> results;
  };

  /// Expands, plans, acquires class artifacts, projects every point.
  /// Requires `spec.options.decouple_components` (the factoring splits the
  /// pipelines along exactly that seam).  Throws NotFound for unregistered
  /// apps/targets and InvalidArgument for invalid specs.
  SweepReport run(const SweepSpec& spec, const PointCallback& on_point = {});

 private:
  std::map<std::string, machine::Machine> targets_by_name_;
  std::size_t max_points_;
};

/// Assembles the machine-readable result document from a finished run.
SweepResultDoc make_sweep_result(const SweepSpec& spec,
                                 const SweepRunner::SweepReport& report);

}  // namespace swapp::sweep
