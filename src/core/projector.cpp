#include "core/projector.h"

#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace swapp::core {
namespace {

/// Communication component fed by the projected compute scale.
CommProjection project_comm_component(const AppBaseData& app, int ck,
                                      const imb::ImbDatabase& base_imb,
                                      const imb::ImbDatabase& target_imb,
                                      double compute_scale,
                                      const ProjectionOptions& options) {
  SWAPP_SPAN("comm.project");
  const mpi::MpiProfile& profile = app.profile_at(ck);
  if (options.decouple_components) {
    // Step 2 of §3.3: communication projection with the WaitTime model fed
    // by the projected compute speedup.
    return project_communication(profile, ck, base_imb, target_imb,
                                 compute_scale, options.comm);
  }
  // Coupled ablation: the whole communication budget follows the compute
  // speedup — the strategy the paper's decomposition improves upon.
  CommProjection coupled;
  for (const auto& [routine, rp] : profile.routines) {
    ClassProjection& acc = coupled.by_class[mpi::routine_class(routine)];
    const Seconds elapsed =
        rp.total_elapsed / static_cast<double>(profile.ranks);
    acc.base_elapsed += elapsed;
    acc.target_transfer += elapsed * compute_scale;
  }
  return coupled;
}

}  // namespace

std::string compute_options_key(const ComputeProjectionOptions& o) {
  std::ostringstream ss;
  ss.precision(17);
  ss << o.ga.population << '|' << o.ga.generations << '|' << o.ga.restarts
     << '|' << o.ga.max_terms << '|' << o.ga.runtime_penalty << '|'
     << o.ga.seed << '|' << o.use_acsm << '|' << o.use_rank_adjustment << '|'
     << o.surrogate_reference_cores;
  return ss.str();
}

ComputeProjection rescale_reference(const ComputeProjection& at_reference,
                                    const AppBaseData& app, int reference_ck,
                                    int ck) {
  ComputeProjection out = at_reference;
  const CcsmModel ccsm(app.mean_compute);
  const auto exact = app.mean_compute.find(ck);
  out.base_compute =
      exact != app.mean_compute.end() ? exact->second : ccsm.predict(ck);
  SWAPP_REQUIRE(out.base_compute > 0.0, "non-positive base compute anchor");
  SWAPP_ASSERT(at_reference.base_compute > 0.0,
               "reference projection has no base compute anchor");
  const double factor = out.base_compute / at_reference.base_compute;
  out.target_compute = at_reference.target_compute * factor;
  for (SurrogateTerm& t : out.surrogate.terms) t.weight *= factor;
  out.gamma = ccsm.gamma(reference_ck, ck);
  return out;
}

ProjectionResult project_from_surrogate(const AppBaseData& app,
                                        const std::string& target, int ck,
                                        int search_ck,
                                        const ComputeProjection& surrogate,
                                        const imb::ImbDatabase& base_imb,
                                        const imb::ImbDatabase& target_imb,
                                        const ProjectionOptions& options) {
  ProjectionResult out;
  out.app = app.app;
  out.target = target;
  out.cores = ck;
  // Step 1+2 of §3.3: compute projection with CCSM/ACSM scaling, then the
  // communication projection fed by its speedup.
  out.compute = ck == search_ck
                    ? surrogate
                    : rescale_reference(surrogate, app, search_ck, ck);
  out.comm = project_comm_component(app, ck, base_imb, target_imb,
                                    out.compute.compute_scale(), options);
  return out;
}

Projector::Projector(machine::Machine base, SpecLibrary spec,
                     imb::ImbDatabase base_imb)
    : base_(std::move(base)),
      spec_(std::move(spec)),
      base_imb_(std::move(base_imb)) {
  SWAPP_REQUIRE(!spec_.names.empty(), "SpecLibrary has no benchmarks");
}

void Projector::add_target(const std::string& machine_name,
                           imb::ImbDatabase imb) {
  SWAPP_REQUIRE(spec_.targets.count(machine_name) != 0,
                "SpecLibrary has no benchmark runtimes for " + machine_name);
  target_imb_.emplace(machine_name, std::move(imb));
}

SpecData Projector::spec_view(const std::string& target_machine, int ck,
                              int threads_per_rank) const {
  SWAPP_REQUIRE(threads_per_rank >= 1, "threads_per_rank must be >= 1");
  const auto target_it = spec_.targets.find(target_machine);
  if (target_it == spec_.targets.end()) {
    throw NotFound("SpecLibrary has no target: " + target_machine);
  }
  // A hybrid job occupies ck · threads hardware threads under block
  // placement, capped by the node size on each machine.
  const int demand = ck * threads_per_rank;
  return spec_.view(
      SpecLibrary::occupancy_for(demand, base_.cores_per_node), target_machine,
      SpecLibrary::occupancy_for(demand, target_it->second.cores_per_node));
}

ProjectionResult Projector::project(const AppBaseData& app,
                                    const std::string& target_machine, int ck,
                                    const ProjectionOptions& options) const {
  SWAPP_SPAN("projector.project");
  SWAPP_COUNT("projector.projections", 1);
  const auto imb_it = target_imb_.find(target_machine);
  if (imb_it == target_imb_.end()) {
    throw NotFound("target not registered: " + target_machine);
  }
  // With a pinned reference count the search runs there and the result is
  // γ-rescaled to ck.
  const int reference = options.compute.surrogate_reference_cores;
  const int search_ck = reference > 0 ? reference : ck;
  const SpecData view =
      spec_view(target_machine, search_ck, app.threads_per_rank);
  return project_from_surrogate(
      app, target_machine, ck, search_ck,
      project_compute(app, view, base_, target_machine, search_ck,
                      options.compute),
      base_imb_, imb_it->second, options);
}

}  // namespace swapp::core
