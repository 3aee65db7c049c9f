#include "sweep/runner.h"

#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::sweep {
namespace {

/// Canonical machine for a compute class: the class's compute-side fields
/// with the original target's comm side.  Every member of the class maps to
/// the same representative, so artifact keys are independent of member
/// order; a class matching the original IS the original (name included),
/// sharing its artifacts with ordinary batch runs.
machine::Machine spec_representative(const machine::Machine& member,
                                     const machine::Machine& original,
                                     bool matches_original) {
  if (matches_original) return original;
  machine::Machine rep = member;
  rep.network = original.network;
  rep.mpi = original.mpi;
  rep.name = original.name + "~c" + machine::config_fingerprint(rep);
  return rep;
}

/// Canonical machine for a comm class: comm side kept, compute side reset.
machine::Machine imb_representative(const machine::Machine& member,
                                    const machine::Machine& original,
                                    bool matches_original) {
  if (matches_original) return original;
  machine::Machine rep = member;
  rep.processor = original.processor;
  rep.caches = original.caches;
  rep.memory_per_core = original.memory_per_core;
  rep.name = original.name + "~m" + machine::config_fingerprint(rep);
  return rep;
}

constexpr service::ResolverNames kNames{"sweep",
                                        "sweep.spec_libraries",
                                        "sweep.imb_databases",
                                        "sweep.app_profile",
                                        "sweep.searches",
                                        "sweep.project_points"};

}  // namespace

SweepRunner::SweepRunner(machine::Machine base,
                         std::vector<machine::Machine> targets,
                         SweepConfig config)
    : service::ArtifactResolver(std::move(base), config),
      max_points_(config.max_points) {
  SWAPP_REQUIRE(!targets.empty(), "sweep runner needs at least one target");
  for (const machine::Machine& t : targets) targets_by_name_.emplace(t.name, t);
}

SweepRunner::SweepReport SweepRunner::run(const SweepSpec& spec,
                                          const PointCallback& on_point) {
  SWAPP_SPAN("sweep.run");
  SWAPP_REQUIRE(spec.options.decouple_components,
                "sweep requires decoupled components (the delta-aware plan "
                "factors the pipelines along that seam)");
  SWAPP_REQUIRE(
      spec.options.compute.surrogate_reference_cores == spec.reference,
      "sweep options disagree with the spec's reference count");
  if (!has_app(spec.app)) throw NotFound("app not registered: " + spec.app);
  const auto target_it = targets_by_name_.find(spec.target);
  if (target_it == targets_by_name_.end()) {
    throw NotFound("target not configured: " + spec.target);
  }
  const machine::Machine& original = target_it->second;

  SweepReport report;
  Run run(*this, kNames, report);

  // --- Expand and plan -------------------------------------------------------
  report.points = expand(spec, original);
  if (report.points.size() > max_points_) {
    std::ostringstream os;
    os << "sweep expands to " << report.points.size()
       << " points, over the cap of " << max_points_;
    throw InvalidArgument(os.str());
  }
  report.plan = plan_sweep(spec, original, report.points);
  SWAPP_COUNT("sweep.points", report.points.size());
  run.end_phase("plan");

  // --- One SPEC library per compute class ------------------------------------
  std::vector<LibraryJob> library_jobs;
  for (const SweepPlan::Class& c : report.plan.compute_classes) {
    machine::Machine rep = spec_representative(report.points[c.rep].machine,
                                               original, c.matches_original);
    std::string label = "spec library (" + rep.name + ")";
    library_jobs.push_back(LibraryJob{{std::move(rep)}, std::move(label)});
  }
  const std::vector<Library> libraries =
      run.spec_libraries(library_jobs, report.plan.task_counts);
  run.end_phase("spec-libraries");

  // --- IMB databases: the base once, then one per comm class -----------------
  std::vector<machine::Machine> imb_machines{base()};
  for (const SweepPlan::Class& c : report.plan.comm_classes) {
    imb_machines.push_back(imb_representative(report.points[c.rep].machine,
                                              original, c.matches_original));
  }
  const std::vector<std::shared_ptr<const imb::ImbDatabase>> imb =
      run.imb_databases(imb_machines);
  run.end_phase("imb-databases");

  // --- The application's base profile ----------------------------------------
  const App app = run.app_profiles({spec.app}).front();
  SWAPP_REQUIRE(app.data->threads_per_rank == spec.threads,
                "sweep thread count does not match the profile of " +
                    spec.app);
  run.end_phase("app-profile");

  // --- Projection: one GA search per search class, then every point ----------
  std::vector<SearchJob> search_jobs;
  for (const SweepPlan::Search& s : report.plan.searches) {
    search_jobs.push_back(SearchJob{
        &libraries[s.compute_class], &app, spec.app,
        library_jobs[s.compute_class].targets.front().name, s.search_ck,
        spec.threads, spec.options.compute});
  }
  const std::vector<std::shared_ptr<const core::ComputeProjection>>
      surrogates = run.searches(search_jobs);
  SWAPP_COUNT("sweep.searches_run", report.searches_run);

  {
    SWAPP_SPAN(kNames.project_span);
    report.results = parallel_map(
        report.points, [&](const SweepPoint& point) {
          const std::size_t s = report.plan.search_of[point.index];
          return core::project_from_surrogate(
              *app.data, point.machine.name, point.tasks,
              report.plan.searches[s].search_ck, *surrogates[s], *imb.front(),
              *imb[report.plan.comm_class_of[point.index] + 1], spec.options);
        });
  }
  if (on_point) {
    for (std::size_t i = 0; i < report.points.size(); ++i) {
      on_point(report.points[i], report.results[i]);
    }
  }
  run.end_phase("projection");

  run.finish();
  return report;
}

SweepResultDoc make_sweep_result(const SweepSpec& spec,
                                 const SweepRunner::SweepReport& report) {
  SweepResultDoc doc;
  doc.app = spec.app;
  doc.target = spec.target;
  doc.tasks = spec.tasks;
  doc.threads = spec.threads;
  doc.reference = spec.reference;
  doc.points = report.points.size();

  doc.compute_classes = report.plan.compute_classes.size();
  doc.comm_classes = report.plan.comm_classes.size();
  doc.searches = report.plan.searches.size();
  doc.naive_spec_targets = report.plan.naive_spec_targets;
  doc.naive_searches = report.plan.naive_searches;
  doc.naive_imb_databases = report.plan.naive_imb_databases;

  for (const Axis& axis : spec.axes) {
    doc.axes.push_back(
        {axis.field, to_string(axis.mode), axis.values.size()});
  }
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const SweepPoint& point = report.points[i];
    const core::ProjectionResult& r = report.results[i];
    SweepResultDoc::PointRow row;
    row.index = point.index;
    row.machine = point.machine.name;
    row.tasks = point.tasks;
    row.compute_s = r.compute.target_compute;
    row.comm_s = r.comm.target_total();
    row.total_s = r.total_target();
    row.coords = point.coords;
    doc.rows.push_back(std::move(row));
  }
  for (const SweepRunner::PhaseTime& p : report.phases) {
    doc.phases.push_back({p.phase, p.seconds});
  }
  for (const SweepRunner::ArtifactNote& note : report.artifacts) {
    doc.artifacts.push_back({note.name, service::to_string(note.source)});
  }
  return doc;
}

}  // namespace swapp::sweep
