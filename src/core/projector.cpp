#include "core/projector.h"

#include <numeric>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::core {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

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

std::pair<int, int> Projector::occupancies_for(
    const std::string& target_machine, int ck, int threads_per_rank) const {
  SWAPP_REQUIRE(threads_per_rank >= 1, "threads_per_rank must be >= 1");
  const auto target_it = spec_.targets.find(target_machine);
  if (target_it == spec_.targets.end()) {
    throw NotFound("SpecLibrary has no target: " + target_machine);
  }
  // A hybrid job occupies ck · threads hardware threads under block
  // placement, capped by the node size on each machine.
  const int demand = ck * threads_per_rank;
  const int base_occ = SpecLibrary::occupancy_for(demand, base_.cores_per_node);
  const int target_occ =
      SpecLibrary::occupancy_for(demand, target_it->second.cores_per_node);
  return {base_occ, target_occ};
}

SpecData Projector::spec_view(const std::string& target_machine, int ck,
                              int threads_per_rank) const {
  const auto [base_occ, target_occ] =
      occupancies_for(target_machine, ck, threads_per_rank);
  return spec_.view(base_occ, target_machine, target_occ);
}

ComputeProjection Projector::compute_component(
    const AppBaseData& app, const std::string& target_machine, int ck,
    const ComputeProjectionOptions& options, const SpecIndex* index,
    const ComputeProjection* shared_reference) const {
  const int reference = options.surrogate_reference_cores;
  if (reference > 0 && reference != ck) {
    // Search once at the reference count, then γ-rescale to ck.  The
    // memoised batch entry and a freshly-computed reference are the same
    // pure function of (app, target, options).
    if (shared_reference) {
      return rescale_reference(*shared_reference, app, reference, ck);
    }
    const SpecData view =
        spec_view(target_machine, reference, app.threads_per_rank);
    return rescale_reference(
        project_compute(app, view, base_, target_machine, reference, options),
        app, reference, ck);
  }
  if (shared_reference) return *shared_reference;  // ck == reference count
  if (index) {
    return project_compute(app, *index, base_, target_machine, ck, options);
  }
  const SpecData view = spec_view(target_machine, ck, app.threads_per_rank);
  return project_compute(app, view, base_, target_machine, ck, options);
}

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

CommProjection Projector::comm_component(const AppBaseData& app,
                                         const std::string& target_machine,
                                         int ck, double compute_scale,
                                         const ProjectionOptions& options)
    const {
  const auto imb_it = target_imb_.find(target_machine);
  if (imb_it == target_imb_.end()) {
    throw NotFound("target not registered: " + target_machine);
  }
  return project_comm_component(app, ck, base_imb_, imb_it->second,
                                compute_scale, options);
}

ProjectionResult Projector::project(const AppBaseData& app,
                                    const std::string& target_machine, int ck,
                                    const ProjectionOptions& options) const {
  SWAPP_SPAN("projector.project");
  SWAPP_COUNT("projector.projections", 1);
  if (target_imb_.find(target_machine) == target_imb_.end()) {
    throw NotFound("target not registered: " + target_machine);
  }

  ProjectionResult result;
  result.app = app.app;
  result.target = target_machine;
  result.cores = ck;

  // Step 1+2 of §3.3: compute projection with CCSM/ACSM scaling, against
  // benchmark data at the occupancy Ck implies on each machine.
  result.compute =
      compute_component(app, target_machine, ck, options.compute,
                        /*index=*/nullptr, /*shared_reference=*/nullptr);
  result.comm = comm_component(app, target_machine, ck,
                               result.compute.compute_scale(), options);
  return result;
}

std::vector<ProjectionResult> Projector::project_many(
    const std::vector<ProjectionRequest>& requests) const {
  SWAPP_SPAN("projector.project_many");
  SWAPP_COUNT("projector.batch_requests", requests.size());
  // --- Plan (serial): shared intermediate artifacts ------------------------
  // Node kinds: spec indexes keyed by (target, occupancy pair) and shared
  // surrogate searches keyed by (app, target, reference count, options).
  // Both maps record first-appearance order, so the artifact vectors — and
  // with them every downstream merge — are a pure function of the request
  // list, independent of thread count.
  struct IndexJob {
    std::string target;
    int base_occ = 0;
    int target_occ = 0;
  };
  struct SharedJob {
    const AppBaseData* app = nullptr;
    std::string target;
    int reference = 0;
    ComputeProjectionOptions options;
    std::size_t index_slot = kNone;
  };
  struct Cell {
    std::size_t index_slot = kNone;
    std::size_t shared_slot = kNone;
  };

  std::map<std::string, std::size_t> index_slots;
  std::vector<IndexJob> index_jobs;
  std::map<std::string, std::size_t> shared_slots;
  std::vector<SharedJob> shared_jobs;
  std::vector<Cell> cells(requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ProjectionRequest& r = requests[i];
    SWAPP_REQUIRE(r.app != nullptr, "ProjectionRequest has no app data");
    if (target_imb_.find(r.target) == target_imb_.end()) {
      throw NotFound("target not registered: " + r.target);
    }
    const int reference = r.options.compute.surrogate_reference_cores;
    const int search_ck = reference > 0 ? reference : r.cores;
    const auto [base_occ, target_occ] =
        occupancies_for(r.target, search_ck, r.app->threads_per_rank);

    const std::string view_key =
        SpecIndex::key_of(r.target, base_occ, target_occ);
    const auto [view_it, view_is_new] =
        index_slots.emplace(view_key, index_jobs.size());
    if (view_is_new) {
      index_jobs.push_back(IndexJob{r.target, base_occ, target_occ});
    }
    cells[i].index_slot = view_it->second;

    if (reference > 0) {
      std::ostringstream key;
      key << static_cast<const void*>(r.app) << '|' << r.target << '|'
          << reference << '|' << r.app->threads_per_rank << '|'
          << compute_options_key(r.options.compute);
      const auto [shared_it, shared_is_new] =
          shared_slots.emplace(key.str(), shared_jobs.size());
      if (shared_is_new) {
        shared_jobs.push_back(SharedJob{r.app, r.target, reference,
                                        r.options.compute,
                                        view_it->second});
      }
      cells[i].shared_slot = shared_it->second;
    }
  }

  // --- Execute: fan each artifact tier out over the pool -------------------
  // Tier 1: spec indexes (independent flattenings).
  std::vector<SpecIndex> indexes;
  {
    SWAPP_SPAN("projector.build_spec_indexes");
    indexes = parallel_map(index_jobs, [&](const IndexJob& job) {
      SWAPP_SPAN("spec_index.build");
      return SpecIndex::build(spec_, job.target, job.base_occ,
                              job.target_occ);
    });
  }
  // Tier 2: shared surrogate searches (independent; the GA's own restart
  // fan-out degrades to serial inside this region).
  std::vector<ComputeProjection> shared;
  {
    SWAPP_SPAN("projector.shared_searches");
    shared = parallel_map(shared_jobs, [&](const SharedJob& job) {
      return project_compute(*job.app, indexes[job.index_slot], base_,
                             job.target, job.reference, job.options);
    });
  }
  // Tier 3: the requests themselves, merged in input order.
  SWAPP_SPAN("projector.project_requests");
  std::vector<std::size_t> ids(requests.size());
  std::iota(ids.begin(), ids.end(), 0);
  return parallel_map(ids, [&](std::size_t i) {
    const ProjectionRequest& r = requests[i];
    ProjectionResult out;
    out.app = r.app->app;
    out.target = r.target;
    out.cores = r.cores;
    const SpecIndex* index = &indexes[cells[i].index_slot];
    const ComputeProjection* reference =
        cells[i].shared_slot != kNone ? &shared[cells[i].shared_slot]
                                      : nullptr;
    out.compute = compute_component(*r.app, r.target, r.cores,
                                    r.options.compute, index, reference);
    out.comm = comm_component(*r.app, r.target, r.cores,
                              out.compute.compute_scale(), r.options);
    return out;
  });
}

}  // namespace swapp::core
