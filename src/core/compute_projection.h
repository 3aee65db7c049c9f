// Compute-component performance projection (paper §2.3 + §3.1/§3.2).
//
// Pipeline: select/synthesise the application's counter profile for the
// requested task count Ck (ACSM), derive metric-group weights on the base
// and adjust them to the target (ranking), search for a surrogate (GA), and
// apply Eq. 2/Eq. 7: the projected per-task compute time on the target is
// the surrogate's weighted runtime there.  The CCSM scaling factor γ is
// folded into the base-runtime anchor: the GA constrains the surrogate to
// the application's per-task compute time *at Ck* (measured when Ck was
// profiled, CCSM-fitted otherwise), which is exactly γ · T(C_ref).
#pragma once

#include <string>

#include "core/acsm.h"
#include "core/ccsm.h"
#include "core/ga.h"
#include "core/profiles.h"
#include "core/ranking.h"
#include "core/spec_index.h"
#include "machine/machine.h"

namespace swapp::core {

struct ComputeProjectionOptions {
  GaOptions ga;
  bool use_acsm = true;             ///< ablation: counter extrapolation
  bool use_rank_adjustment = true;  ///< ablation: step-4 target adjustment
  /// If > 0, the GA surrogate search runs once at this reference task count
  /// and every other count reuses that surrogate with its weights rescaled
  /// by the CCSM anchor ratio (Eq. 7's γ folded into the Eq. 2 scale) — the
  /// paper's collect-once / project-many shape applied to the search itself.
  /// `Projector::project` honours it per call, and the batch planner
  /// (service/planner.h) runs one shared search per group of requests, so
  /// batched and sequential results stay byte-identical.  0 (default)
  /// searches at every count.  (`project_compute` itself always searches at
  /// the count it is given; `core::project_from_surrogate` applies the
  /// reference indirection.)
  int surrogate_reference_cores = 0;
};

struct ComputeProjection {
  /// Projected per-task compute seconds on the target at Ck.
  Seconds target_compute = 0.0;
  /// The application's per-task compute anchor on the base at Ck.
  Seconds base_compute = 0.0;

  Surrogate surrogate;
  GroupWeights base_weights;
  GroupWeights adjusted_weights;
  double hyper_scaling_cores = 0.0;  ///< ACSM Ch
  double gamma = 1.0;                ///< CCSM factor, diagnostics
  bool extrapolated_counters = false;

  /// Target/base compute-speed ratio — the compute scale the WaitTime model
  /// consumes (paper §2.4 step 4).
  double compute_scale() const {
    return base_compute > 0.0 ? target_compute / base_compute : 1.0;
  }
};

ComputeProjection project_compute(const AppBaseData& app, const SpecData& spec,
                                  const machine::Machine& base,
                                  const std::string& target_machine, int ck,
                                  const ComputeProjectionOptions& options);

/// Same projection over a prebuilt `SpecIndex` (shared, read-only): skips
/// the per-call benchmark-table setup.  Bit-identical to the `SpecData`
/// overload built from the same library view.
ComputeProjection project_compute(const AppBaseData& app,
                                  const SpecIndex& index,
                                  const machine::Machine& base,
                                  const std::string& target_machine, int ck,
                                  const ComputeProjectionOptions& options);

}  // namespace swapp::core
