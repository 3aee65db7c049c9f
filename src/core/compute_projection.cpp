#include "core/compute_projection.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "support/error.h"

namespace swapp::core {
namespace {

/// Nearest sampled counter profile in log-core-count space.
const machine::PmuCounters& nearest_counters(
    const std::map<int, machine::PmuCounters>& samples, int ck) {
  SWAPP_REQUIRE(!samples.empty(), "no counter samples");
  const machine::PmuCounters* best = nullptr;
  double best_distance = 1e300;
  for (const auto& [cores, counters] : samples) {
    const double d = std::abs(std::log(static_cast<double>(cores)) -
                              std::log(static_cast<double>(ck)));
    if (d < best_distance) {
      best_distance = d;
      best = &counters;
    }
  }
  return *best;
}

}  // namespace

ComputeProjection project_compute(const AppBaseData& app,
                                  const SpecIndex& index,
                                  const machine::Machine& base, int ck,
                                  const ComputeProjectionOptions& options) {
  SWAPP_REQUIRE(!app.counters_st.empty(), "no ST counter profiles collected");
  SWAPP_REQUIRE(!app.counters_smt.empty(),
                "no SMT counter profiles collected");
  SWAPP_REQUIRE(!app.mean_compute.empty(), "no compute-time profiles");

  SWAPP_SPAN("compute.project");
  ComputeProjection out;

  // --- ACSM: counter profile for Ck ----------------------------------------
  machine::PmuCounters counters_st;
  machine::PmuCounters counters_smt;
  {
    SWAPP_SPAN("compute.acsm");
    if (options.use_acsm && app.counters_st.size() >= 2) {
      const AcsmModel acsm_st(app.counters_st, base);
      const AcsmModel acsm_smt(app.counters_smt, base);
      out.hyper_scaling_cores = acsm_st.hyper_scaling_cores();
      out.extrapolated_counters = acsm_st.needs_extrapolation(ck);
      counters_st = acsm_st.counters_at(ck);
      counters_smt = acsm_smt.counters_at(ck);
    } else {
      counters_st = nearest_counters(app.counters_st, ck);
      counters_smt = nearest_counters(app.counters_smt, ck);
      out.hyper_scaling_cores = std::numeric_limits<double>::infinity();
    }
  }

  // --- CCSM: base compute anchor at Ck --------------------------------------
  {
    SWAPP_SPAN("compute.ccsm");
    const CcsmModel ccsm(app.mean_compute);
    const auto exact = app.mean_compute.find(ck);
    out.base_compute =
        exact != app.mean_compute.end() ? exact->second : ccsm.predict(ck);
    SWAPP_REQUIRE(out.base_compute > 0.0, "non-positive base compute anchor");
    out.gamma = ccsm.gamma(app.mean_compute.begin()->first, ck);
  }

  // --- Ranking: steps 2–4 -----------------------------------------------------
  {
    SWAPP_SPAN("compute.ranking");
    out.base_weights = base_group_weights(counters_st, base);
    out.adjusted_weights =
        options.use_rank_adjustment
            ? adjust_weights_to_target(out.base_weights, index)
            : out.base_weights;
  }

  // --- GA surrogate + Eq. 2 ---------------------------------------------------
  {
    SWAPP_SPAN("compute.surrogate_search");
    out.surrogate = find_surrogate(counters_st, counters_smt,
                                   out.adjusted_weights, index,
                                   out.base_compute, options.ga);
  }
  {
    SWAPP_SPAN("compute.combine");
    out.target_compute = out.surrogate.project_runtime(index);
  }
  SWAPP_ASSERT(out.target_compute > 0.0,
               "surrogate projected non-positive compute time");
  return out;
}

}  // namespace swapp::core
