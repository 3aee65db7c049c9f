#include "experiments/lab.h"

#include <algorithm>
#include <set>

#include "obs/trace.h"
#include "service/artifact_cache.h"
#include "service/planner.h"
#include "spec/suite.h"
#include "support/error.h"
#include "support/parallel.h"
#include "support/stats.h"

namespace swapp::experiments {

const std::vector<int>& bt_sp_core_counts() {
  static const std::vector<int> kCounts = {16, 32, 64, 128};
  return kCounts;
}

const std::vector<int>& bt_sp_counter_counts() {
  // Counters at n = 3 counts; projecting at 128 exercises ACSM
  // extrapolation, exactly the situation §3.1 describes.
  static const std::vector<int> kCounts = {16, 32, 64};
  return kCounts;
}

const std::vector<int>& lu_core_counts() {
  static const std::vector<int> kCounts = {4, 8, 16};
  return kCounts;
}

core::AppBaseData collect_base_data(const nas::NasApp& app,
                                    const machine::Machine& base,
                                    const std::vector<int>& mpi_counts,
                                    const std::vector<int>& counter_counts) {
  SWAPP_SPAN("lab.collect_app_profile");
  core::AppBaseData data;
  data.app = app.name();
  data.base_machine = base.name;
  for (const int c : mpi_counts) {
    const auto world = app.run(base, c, machine::SmtMode::kSingleThread);
    data.mpi_profiles.emplace(c, world->profile());
    data.mean_compute.emplace(c, world->profile().mean_compute());
    // ST counters come for free from the same run.
    if (std::find(counter_counts.begin(), counter_counts.end(), c) !=
        counter_counts.end()) {
      data.counters_st.emplace(c, world->counters());
    }
  }
  for (const int c : counter_counts) {
    if (data.counters_st.find(c) == data.counters_st.end()) {
      const auto world = app.run(base, c, machine::SmtMode::kSingleThread);
      data.counters_st.emplace(c, world->counters());
    }
    const auto world = app.run(base, c, machine::SmtMode::kSmt);
    data.counters_smt.emplace(c, world->counters());
  }
  return data;
}

ActualRun run_actual(const nas::NasApp& app, const machine::Machine& m,
                     int ranks) {
  SWAPP_SPAN("lab.actual_run");
  const auto world = app.run(m, ranks, machine::SmtMode::kSingleThread);
  const mpi::MpiProfile& profile = world->profile();
  ActualRun out;
  out.wall = world->wall_time();
  out.mean_compute = profile.mean_compute();
  out.mean_comm = profile.mean_communication();
  for (const auto cls : {mpi::RoutineClass::kPointToPointBlocking,
                         mpi::RoutineClass::kPointToPointNonblocking,
                         mpi::RoutineClass::kCollective}) {
    out.class_elapsed[cls] = profile.mean_class_elapsed(cls);
  }
  return out;
}

core::SpecLibrary collect_spec_library(
    const machine::Machine& base, const std::vector<machine::Machine>& targets,
    const std::vector<int>& task_counts) {
  SWAPP_SPAN("lab.collect_spec_library");
  core::SpecLibrary lib;
  lib.base_machine = base.name;
  lib.base_cores_per_node = base.cores_per_node;
  for (const spec::Benchmark& b : spec::suite()) lib.names.push_back(b.name());

  const auto occupancies_for = [&](const machine::Machine& m) {
    std::set<int> occ;
    for (const int c : task_counts) {
      occ.insert(core::SpecLibrary::occupancy_for(c, m.cores_per_node));
    }
    return occ;
  };

  // One job per (machine, SMT mode, occupancy): full-suite runs are
  // independent of each other, so they fan out over the thread pool.  The
  // merge below consumes results keyed by (machine, occupancy), so the
  // library is identical for every thread count.
  struct SuiteJob {
    const machine::Machine* m = nullptr;
    machine::SmtMode mode = machine::SmtMode::kSingleThread;
    int occ = 0;
    bool on_base = false;
  };
  std::vector<SuiteJob> jobs;
  for (const int occ : occupancies_for(base)) {
    jobs.push_back({&base, machine::SmtMode::kSingleThread, occ, true});
    jobs.push_back({&base, machine::SmtMode::kSmt, occ, true});
  }
  for (const machine::Machine& target : targets) {
    core::SpecLibrary::TargetInfo& info = lib.targets[target.name];
    info.cores_per_node = target.cores_per_node;
    for (const int occ : occupancies_for(target)) {
      jobs.push_back({&target, machine::SmtMode::kSingleThread, occ, false});
    }
  }
  const std::vector<std::vector<spec::BenchmarkRun>> results =
      parallel_map(jobs, [](const SuiteJob& job) {
        return spec::run_suite(*job.m, job.mode, job.occ);
      });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SuiteJob& job = jobs[i];
    for (const spec::BenchmarkRun& run : results[i]) {
      if (!job.on_base) {
        lib.targets[job.m->name].runtime[job.occ].emplace(run.name,
                                                          run.runtime);
      } else if (job.mode == machine::SmtMode::kSingleThread) {
        lib.base_counters_st[job.occ].emplace(run.name, run.counters);
        lib.base_runtime[job.occ].emplace(run.name, run.runtime);
      } else {
        lib.base_counters_smt[job.occ].emplace(run.name, run.counters);
      }
    }
  }
  return lib;
}

// ---------------------------------------------------------------------------
// Lab
// ---------------------------------------------------------------------------

namespace {

constexpr service::ResolverNames kNames{"lab",
                                        "lab.spec_library",
                                        "lab.imb_databases",
                                        "lab.app_profiles",
                                        "lab.searches",
                                        "lab.project_rows"};

}  // namespace

std::string Lab::power6_name() { return machine::make_power6_575().name; }
std::string Lab::bluegene_name() { return machine::make_bluegene_p().name; }
std::string Lab::westmere_name() {
  return machine::make_westmere_x5670().name;
}

Lab::Lab(std::vector<std::string> target_names,
         std::filesystem::path cache_dir)
    : service::ArtifactResolver(
          machine::make_power5_hydra(),
          service::CacheConfig{.cache_dir = std::move(cache_dir)}) {
  if (target_names.empty()) {
    target_names = {power6_name(), bluegene_name(), westmere_name()};
  }
  target_names_ = target_names;
  for (const std::string& name : target_names_) {
    targets_.emplace(name, machine::machine_by_name(name));
  }
  set_spec_collector(&collect_spec_library);
  // Every app the Lab can profile, registered under its NAS name.
  for (const auto b :
       {nas::Benchmark::kBT, nas::Benchmark::kSP, nas::Benchmark::kLU}) {
    const bool is_lu = (b == nas::Benchmark::kLU);
    const std::vector<int>& mpi_counts =
        is_lu ? lu_core_counts() : bt_sp_core_counts();
    const std::vector<int>& counter_counts =
        is_lu ? lu_core_counts() : bt_sp_counter_counts();
    for (const auto c : {nas::ProblemClass::kC, nas::ProblemClass::kD}) {
      const std::string name = nas::NasApp(b, c).name();
      add_app(name,
              service::describe_app_inputs(name, base(), 1, mpi_counts,
                                           counter_counts),
              [this, b, c, &mpi_counts, &counter_counts] {
                return collect_base_data(nas::NasApp(b, c), base(),
                                         mpi_counts, counter_counts);
              });
    }
  }
}

const machine::Machine& Lab::target(const std::string& name) const {
  const auto it = targets_.find(name);
  if (it == targets_.end()) throw NotFound("target not prepared: " + name);
  return it->second;
}

service::ArtifactResolver::Library Lab::spec_library(Run& run) {
  std::vector<machine::Machine> target_list;
  target_list.reserve(targets_.size());
  for (const auto& [name, m] : targets_) target_list.push_back(m);
  // All task counts any experiment uses (union of BT/SP and LU grids).
  std::vector<int> task_counts = bt_sp_core_counts();
  task_counts.insert(task_counts.end(), lu_core_counts().begin(),
                     lu_core_counts().end());
  return run.spec_libraries({{target_list, "spec library"}}, task_counts)
      .front();
}

const core::Projector& Lab::projector() {
  if (projector_) return *projector_;
  service::RunReport report;
  Run run(*this, kNames, report);
  const Library spec = spec_library(run);
  std::vector<machine::Machine> machines{base()};
  for (const auto& [name, m] : targets_) machines.push_back(m);
  const std::vector<std::shared_ptr<const imb::ImbDatabase>> imb =
      run.imb_databases(machines);
  projector_ = std::make_unique<core::Projector>(base(), *spec.data, *imb[0]);
  for (std::size_t i = 1; i < machines.size(); ++i) {
    projector_->add_target(machines[i].name, *imb[i]);
  }
  return *projector_;
}

const core::AppBaseData& Lab::base_data(nas::Benchmark b,
                                        nas::ProblemClass c) {
  const std::string name = nas::NasApp(b, c).name();
  {
    std::lock_guard<std::mutex> lock(app_data_mutex_);
    const auto it = app_data_.find(name);
    if (it != app_data_.end()) return *it->second;
  }
  // Collection runs outside the Lab lock (the cache dedups concurrent
  // requests to one stored value); with a cache directory the profile is
  // loaded instead of re-simulated.
  service::RunReport report;
  Run run(*this, kNames, report);
  std::shared_ptr<const core::AppBaseData> data =
      run.app_profiles({name}).front().data;
  std::lock_guard<std::mutex> lock(app_data_mutex_);
  return *app_data_.emplace(name, std::move(data)).first->second;
}

const ActualRun& Lab::actual(nas::Benchmark b, nas::ProblemClass c,
                             const std::string& machine_name, int ranks) {
  const nas::NasApp app(b, c);
  const std::string key =
      app.name() + "@" + machine_name + "#" + std::to_string(ranks);
  {
    std::lock_guard<std::mutex> lock(actuals_mutex_);
    const auto it = actuals_.find(key);
    if (it != actuals_.end()) return it->second;
  }
  // The ground-truth simulation runs outside the lock so distinct
  // configurations (one per figure row) execute concurrently; emplace
  // resolves the unlikely same-key race by keeping the first insert.
  ActualRun run = run_actual(app, target(machine_name), ranks);
  std::lock_guard<std::mutex> lock(actuals_mutex_);
  return actuals_.emplace(key, std::move(run)).first->second;
}

namespace {

double component_error(Seconds projected, Seconds actual) {
  if (actual <= 0.0) return 0.0;  // component absent from the application
  return percent_error(projected, actual);
}

ErrorRow make_error_row(const core::ProjectionResult& projection,
                        const ActualRun& truth, int ranks,
                        nas::ProblemClass c) {
  ErrorRow row;
  row.cores = ranks;
  row.cls = c;
  row.p2p_nb = component_error(
      projection.comm.of(mpi::RoutineClass::kPointToPointNonblocking)
          .target_total(),
      truth.class_elapsed.at(mpi::RoutineClass::kPointToPointNonblocking));
  row.p2p_b = component_error(
      projection.comm.of(mpi::RoutineClass::kPointToPointBlocking)
          .target_total(),
      truth.class_elapsed.at(mpi::RoutineClass::kPointToPointBlocking));
  row.collectives = component_error(
      projection.comm.of(mpi::RoutineClass::kCollective).target_total(),
      truth.class_elapsed.at(mpi::RoutineClass::kCollective));
  row.overall_comm =
      component_error(projection.comm.target_total(), truth.mean_comm);
  row.computation =
      component_error(projection.compute.target_compute, truth.mean_compute);
  row.combined = component_error(projection.total_target(), truth.wall);
  row.combined_signed =
      signed_percent_error(projection.total_target(), truth.wall);
  return row;
}

}  // namespace

ErrorRow Lab::error_row(nas::Benchmark b, nas::ProblemClass c,
                        const std::string& target_name, int ranks,
                        const core::ProjectionOptions& options) {
  return error_rows({RowQuery{b, c, target_name, ranks}}, options).front();
}

std::vector<ErrorRow> Lab::error_rows(const std::vector<RowQuery>& queries,
                                      const core::ProjectionOptions& options) {
  SWAPP_SPAN("lab.error_rows");
  service::RunReport report;
  Run run(*this, kNames, report);
  std::vector<service::ServiceRequest> requests;
  requests.reserve(queries.size());
  for (const RowQuery& q : queries) {
    requests.push_back({nas::NasApp(q.bench, q.cls).name(), q.target,
                        q.ranks, 1, options});
  }
  const service::BatchPlan plan = service::plan_batch(requests, targets_);
  std::vector<machine::Machine> targets;
  for (const std::string& name : plan.targets) targets.push_back(target(name));
  const std::vector<core::ProjectionResult> projections =
      run.project_batch(plan, requests, spec_library(run), targets);
  // Ground truth is independent per row; parallel_map preserves row order.
  std::vector<ActualRun> truths;
  {
    SWAPP_SPAN("lab.actual_runs");
    truths = parallel_map(queries, [&](const RowQuery& q) {
      return actual(q.bench, q.cls, q.target, q.ranks);
    });
  }

  std::vector<ErrorRow> rows;
  rows.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    rows.push_back(make_error_row(projections[i], truths[i],
                                  queries[i].ranks, queries[i].cls));
  }
  return rows;
}

core::ProjectionResult Lab::project(nas::Benchmark b, nas::ProblemClass c,
                                    const std::string& target_name, int ranks,
                                    const core::ProjectionOptions& options) {
  return projector().project(base_data(b, c), target_name, ranks, options);
}

FigureData Lab::figure(nas::Benchmark b, const std::string& target_name,
                       const core::ProjectionOptions& options) {
  FigureData fig;
  fig.app = nas::to_string(b);
  fig.target = target_name;
  fig.title = fig.app + " results on " + target_name;

  const bool is_lu = (b == nas::Benchmark::kLU);
  const std::vector<int> counts =
      is_lu ? std::vector<int>{16} : bt_sp_core_counts();

  // All rows go through the batched comparison path: one planned batch of
  // projections, ground-truth runs fanned out over the pool.
  std::vector<RowQuery> queries;
  queries.reserve(counts.size() * 2);
  for (const int ranks : counts) {
    for (const auto cls : {nas::ProblemClass::kC, nas::ProblemClass::kD}) {
      queries.push_back(RowQuery{b, cls, target_name, ranks});
    }
  }
  fig.rows = error_rows(queries, options);
  return fig;
}

TextTable FigureData::to_table() const {
  TextTable table({"Cores/Class", "P2P-NB", "P2P-B", "COLLECTIVES",
                   "Overall Comm", "Computation", "Combined"});
  table.set_title(title + "  (percent error magnitude vs. measured)");
  for (const ErrorRow& row : rows) {
    table.add_row({std::to_string(row.cores) + "/" + nas::to_string(row.cls),
                   TextTable::num(row.p2p_nb), TextTable::num(row.p2p_b),
                   TextTable::num(row.collectives),
                   TextTable::num(row.overall_comm),
                   TextTable::num(row.computation),
                   TextTable::num(row.combined)});
  }
  return table;
}

}  // namespace swapp::experiments
