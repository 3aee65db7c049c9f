// The SWAPP facade: combined compute + communication projection (paper §3.3).
//
// Quickstart:
//
//   using namespace swapp;
//   core::Projector projector(base_machine, spec_library, base_imb);
//   projector.add_target("IBM POWER6 575", p6_imb);
//   core::ProjectionResult r =
//       projector.project(app_base_data, "IBM POWER6 575", /*ck=*/128);
//   std::cout << r.total_target() << "\n";
//
// `spec_library` must contain benchmark runtimes for every added target (the
// "published data" of §2.3 step 1); `app_base_data` holds only base-machine
// application profiles.  The projector never touches a target-machine
// application run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/comm_projection.h"
#include "core/compute_projection.h"
#include "core/profiles.h"
#include "core/spec_index.h"
#include "imb/suite.h"
#include "machine/machine.h"

namespace swapp::core {

struct ProjectionOptions {
  ComputeProjectionOptions compute;
  CommProjectionOptions comm;
  /// Ablation: couple the components — scale the base total runtime by the
  /// compute speedup alone, ignoring the separate communication projection.
  bool decouple_components = true;
};

/// A full application projection at one task count on one target.
struct ProjectionResult {
  std::string app;
  std::string target;
  int cores = 0;

  ComputeProjection compute;
  CommProjection comm;

  /// Projected per-task compute + communication time — the quantity the
  /// paper compares against measured runtimes.
  Seconds total_target() const {
    return compute.target_compute + comm.target_total();
  }
  /// The application's base-machine total at the same count (diagnostics).
  Seconds total_base() const {
    return compute.base_compute + comm.base_total();
  }
};

/// Canonical key of the compute options that shape a surrogate search —
/// requests agree on it iff a shared search is valid between them.  Used by
/// the batch planner and the sweep planner to key shared-search artifacts.
std::string compute_options_key(const ComputeProjectionOptions& options);

/// Rescales a reference-count compute projection to task count `ck`: the
/// CCSM anchor at `ck` replaces the reference anchor, and the surrogate's
/// weights (and hence its Eq. 2 target runtime) scale by the same γ factor.
/// This is the exact function `project_from_surrogate` applies when the
/// search count differs from the request's.
ComputeProjection rescale_reference(const ComputeProjection& at_reference,
                                    const AppBaseData& app, int reference_ck,
                                    int ck);

/// The projection of `app` at `ck` tasks onto `target` from the surrogate
/// searched at `search_ck`: the surrogate as-is at its own count, else
/// `rescale_reference`d to `ck`; then the communication component fed by
/// the projected compute scale — the decoupled WaitTime-model projection
/// against the base and target IMB tables, or, when
/// `options.decouple_components` is off, the coupled ablation that scales
/// the whole communication budget by the compute speedup.  Every
/// `ProjectionResult` is built here: `Projector::project`, the batch
/// service, the sweep runner and the experiment Lab.
ProjectionResult project_from_surrogate(const AppBaseData& app,
                                        const std::string& target, int ck,
                                        int search_ck,
                                        const ComputeProjection& surrogate,
                                        const imb::ImbDatabase& base_imb,
                                        const imb::ImbDatabase& target_imb,
                                        const ProjectionOptions& options);

class Projector {
 public:
  Projector(machine::Machine base, SpecLibrary spec, imb::ImbDatabase base_imb);

  /// Registers a target's IMB tables.  Benchmark runtimes for the target
  /// must already be present in the SpecLibrary passed at construction.
  void add_target(const std::string& machine_name, imb::ImbDatabase imb);

  const machine::Machine& base() const noexcept { return base_; }
  const SpecLibrary& spec() const noexcept { return spec_; }

  /// Projects `app` onto `target_machine` at task count `ck`.
  /// Searches at the options' reference count when one is pinned, else at
  /// `ck`, and builds the result with `project_from_surrogate`.
  ProjectionResult project(const AppBaseData& app,
                           const std::string& target_machine, int ck,
                           const ProjectionOptions& options = {}) const;

 private:
  machine::Machine base_;
  SpecLibrary spec_;
  imb::ImbDatabase base_imb_;
  std::map<std::string, imb::ImbDatabase> target_imb_;
};

}  // namespace swapp::core
