// The four benchmark workloads and the wrapped collectors they inject.
#include <chrono>
#include <cstdio>
#include <sstream>

#include "bench.h"
#include "experiments/lab.h"
#include "nas/nas_app.h"
#include "obs/trace.h"
#include "service/batch_format.h"
#include "service/service.h"
#include "support/error.h"
#include "sweep/runner.h"

namespace perfbench {

namespace experiments = swapp::experiments;
namespace service = swapp::service;
namespace sweep = swapp::sweep;
namespace fs = std::filesystem;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Deterministic Fisher-Yates over splitmix64, so a seed names the same
/// order on every platform.  Seed 0 keeps the listed order.
template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  if (seed == 0) return;
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[next() % i]);
  }
}

OutputRow projection_row(const core::ProjectionResult& r) {
  std::string values = render({r.compute.target_compute,
                               r.compute.base_compute, r.comm.target_total(),
                               r.total_target(), r.compute.surrogate.fitness});
  for (const core::SurrogateTerm& term : r.compute.surrogate.terms) {
    values += " " + term.benchmark + "*" + render({term.weight});
  }
  return {r.app + "|" + r.target + "|" + std::to_string(r.cores), values};
}

/// The cache counters an entry point reports, as exact counts.
void add_cache_counts(OpOutput& out, const service::CacheStats& cache) {
  out.counts["service.cache_memory_hits"] =
      static_cast<double>(cache.memory_hits);
  out.counts["service.cache_disk_hits"] = static_cast<double>(cache.disk_hits);
  out.counts["service.cache_misses"] = static_cast<double>(cache.misses);
  out.counts["service.cache_lock_waits"] =
      static_cast<double>(cache.lock_waits);
}

/// Bytes held by the cache's artifact files.
double artifact_bytes(const fs::path& dir) {
  double bytes = 0.0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".swapp") {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

/// Mirrors the CLI's NAS app registration (same task-count grids, same cache
/// keys), with the profiling collector routed through the probe.
template <typename Engine>
void register_app(Engine& engine, Probe& probe, const machine::Machine& base,
                  const std::string& app) {
  if (engine.has_app(app)) return;
  const std::string bench_name = app.substr(0, app.find('/'));
  const nas::Benchmark bench = bench_name == "BT"   ? nas::Benchmark::kBT
                               : bench_name == "SP" ? nas::Benchmark::kSP
                                                    : nas::Benchmark::kLU;
  const nas::ProblemClass cls = app.substr(app.find('/') + 1) == "C"
                                    ? nas::ProblemClass::kC
                                    : nas::ProblemClass::kD;
  const std::vector<int> counts = bench == nas::Benchmark::kLU
                                      ? std::vector<int>{4, 8, 16}
                                      : std::vector<int>{16, 32, 64, 128};
  engine.add_app(app,
                 service::describe_app_inputs(nas::NasApp(bench, cls).name(),
                                              base, 1, counts, counts),
                 [&probe, bench, cls, counts] {
                   return probe.profile_app(bench, cls, 1, counts);
                 });
}

template <typename Engine>
void install_collectors(Engine& engine, Probe& probe) {
  engine.set_spec_collector([&probe](const machine::Machine& b,
                                     const std::vector<machine::Machine>& t,
                                     const std::vector<int>& counts) {
    return probe.collect_spec(b, t, counts);
  });
  engine.set_imb_collector(
      [&probe](const machine::Machine& m) { return probe.measure_imb(m); });
}

// --- service workloads -------------------------------------------------------

/// Runs a batch through a fresh ProjectionService over `cache_dir`, the way
/// `swapp batch --cache-dir` does.
class ServiceWorkload : public Workload {
 protected:
  ServiceWorkload(std::vector<service::BatchRow> rows, fs::path cache_dir,
                  Probe& probe)
      : rows_(std::move(rows)), cache_dir_(std::move(cache_dir)),
        probe_(probe) {}

  void reset_cache_dir() {
    fs::remove_all(cache_dir_);
    fs::create_directories(cache_dir_);
  }

  OpOutput run_batch() {
    const double bytes_before = artifact_bytes(cache_dir_);
    const double collectors_before = probe_.collector_seconds();

    std::vector<machine::Machine> targets;
    for (const service::BatchRow& row : rows_) {
      bool known = false;
      for (const machine::Machine& t : targets) known |= t.name == row.target;
      if (!known) targets.push_back(machine::machine_by_name(row.target));
    }
    service::ServiceConfig config;
    config.cache_dir = cache_dir_;
    service::ProjectionService svc(base_, targets, config);
    install_collectors(svc, probe_);
    std::vector<service::ServiceRequest> requests;
    for (const service::BatchRow& row : rows_) {
      register_app(svc, probe_, base_, row.app);
      requests.push_back(service::to_service_request(row));
    }
    service::ProjectionService::BatchReport report;
    {
      const swapp::obs::Span span("service.run_call");
      report = svc.run(requests);
    }

    OpOutput out;
    for (const core::ProjectionResult& r : report.results) {
      out.rows.push_back(projection_row(r));
    }
    double acquisition_s = 0.0;
    for (const service::ProjectionService::PhaseTime& p : report.phases) {
      out.metrics["service.phase_s." + p.phase] = p.seconds;
      if (p.phase != "plan" && p.phase != "projection") {
        acquisition_s += p.seconds;
      }
    }
    out.metrics["service.cache_overhead_s"] =
        acquisition_s - (probe_.collector_seconds() - collectors_before);
    const double bytes_after = artifact_bytes(cache_dir_);
    out.metrics["io.bytes_written"] = bytes_after - bytes_before;
    out.metrics["io.bytes_read"] =
        report.cache.disk_hits > 0 ? bytes_before : 0.0;
    add_cache_counts(out, report.cache);
    out.counts["io.bytes_written"] = bytes_after - bytes_before;
    return out;
  }

  const machine::Machine base_ = machine::make_power5_hydra();
  std::vector<service::BatchRow> rows_;
  fs::path cache_dir_;
  Probe& probe_;
};

/// The first answer a user gets: one projection from empty caches.
class ColdProject final : public ServiceWorkload {
 public:
  ColdProject(const fs::path& work_dir, Probe& probe)
      : ServiceWorkload({{"BT/C", "IBM POWER6 575", 64, 1, 0}},
                        work_dir / "cold-cache", probe) {}

  OpOutput setup() override {
    before_op();
    return run_op();
  }
  void before_op() override { reset_cache_dir(); }
  OpOutput run_op() override { return run_batch(); }
};

/// A repeated batch over a cache directory the set-up filled.
class WarmBatch final : public ServiceWorkload {
 public:
  WarmBatch(std::uint64_t seed, const fs::path& work_dir, Probe& probe)
      : ServiceWorkload(rows_for(seed), work_dir / "warm-cache", probe) {}

  OpOutput setup() override {
    reset_cache_dir();
    OpOutput out = run_batch();
    cold_.clear();
    for (const OutputRow& row : out.rows) cold_[row.key] = row.values;
    return out;
  }

  OpOutput run_op() override {
    OpOutput out = run_batch();
    if (out.counts.at("service.cache_misses") != 0.0) {
      out.problems.push_back("warm batch computed an artifact");
    }
    std::map<std::string, std::string> warm;
    for (const OutputRow& row : out.rows) warm[row.key] = row.values;
    if (warm != cold_) out.problems.push_back("warm rows differ from cold");
    return out;
  }

 private:
  static std::vector<service::BatchRow> rows_for(std::uint64_t seed) {
    const std::string p6 = "IBM POWER6 575";
    std::vector<service::BatchRow> rows = {
        {"BT/C", p6, 16, 1, 0},  {"BT/C", p6, 32, 1, 0},
        {"BT/C", p6, 64, 1, 0},  {"BT/C", p6, 128, 1, 0},
        {"SP/C", p6, 16, 1, 0},  {"SP/C", p6, 64, 1, 0},
        {"LU/C", p6, 8, 1, 0},   {"LU/C", p6, 16, 1, 0},
        {"BT/C", "IBM BlueGene/P", 64, 1, 0},
        {"SP/C", "IBM iDataPlex (Westmere X5670)", 64, 1, 0}};
    shuffle(rows, seed);
    return rows;
  }

  std::map<std::string, std::string> cold_;
};

// --- sweep -------------------------------------------------------------------

/// An 18-point comm-only what-if sweep from empty caches.
class CommSweep final : public Workload {
 public:
  CommSweep(std::uint64_t seed, Probe& probe)
      : spec_text_(spec_for(seed)), probe_(probe) {}

  OpOutput setup() override { return run_op(); }

  OpOutput run_op() override {
    std::istringstream in(spec_text_);
    const sweep::SweepSpec spec = sweep::read_sweep_spec(in);
    const double collectors_before = probe_.collector_seconds();
    const machine::Machine base = machine::make_power5_hydra();
    sweep::SweepRunner runner(base, {machine::machine_by_name(spec.target)});
    install_collectors(runner, probe_);
    register_app(runner, probe_, base, spec.app);
    sweep::SweepRunner::SweepReport report;
    {
      const swapp::obs::Span span("sweep.run_call");
      report = runner.run(spec);
    }

    OpOutput out;
    for (std::size_t i = 0; i < report.points.size(); ++i) {
      // Key by coordinates in field order, so any axis order names a point
      // the same way.
      std::map<std::string, double> coords;
      for (const sweep::Coordinate& c : report.points[i].coords) {
        coords[c.field] = c.value;
      }
      std::string key;
      for (const auto& [field, value] : coords) {
        key += (key.empty() ? "" : "|") + field + "=" + format_number(value);
      }
      const core::ProjectionResult& r = report.results[i];
      out.rows.push_back({key, render({r.compute.target_compute,
                                       r.comm.target_total(),
                                       r.total_target()})});
    }
    double acquisition_s = 0.0;
    for (const sweep::SweepRunner::PhaseTime& p : report.phases) {
      out.metrics["sweep.phase_s." + p.phase] = p.seconds;
      if (p.phase != "plan" && p.phase != "projection") {
        acquisition_s += p.seconds;
      }
    }
    out.metrics["service.cache_overhead_s"] =
        acquisition_s - (probe_.collector_seconds() - collectors_before);
    const sweep::SweepPlan& plan = report.plan;
    out.counts["sweep.points"] = static_cast<double>(plan.points);
    out.counts["sweep.spec_targets"] =
        static_cast<double>(plan.compute_classes.size());
    out.counts["sweep.imb_databases"] =
        static_cast<double>(plan.comm_classes.size());
    out.counts["sweep.naive_imb_databases"] =
        static_cast<double>(plan.naive_imb_databases);
    out.counts["core.ga_searches"] = static_cast<double>(report.searches_run);
    out.metrics["sweep.searches_run"] = out.counts["core.ga_searches"];
    add_cache_counts(out, report.cache);
    return out;
  }

 private:
  static std::string spec_for(std::uint64_t seed) {
    struct AxisText {
      std::string field, mode;
      std::vector<std::string> values;
    };
    std::vector<AxisText> axes = {
        {"network.link_bandwidth_gbs", "scale", {"0.5", "1", "2"}},
        {"mpi.eager_threshold_kib", "list", {"16", "64"}},
        {"tasks", "list", {"4", "8", "16"}}};
    shuffle(axes, seed);
    std::string text =
        "#swapp \"swapp-sweep\" v1\n"
        "base \"LU/C\" \"IBM iDataPlex (Westmere X5670)\" 16 1 16\n";
    for (std::size_t i = 0; i < axes.size(); ++i) {
      shuffle(axes[i].values, seed == 0 ? 0 : seed + i + 1);
      text += "axis \"" + axes[i].field + "\" " + axes[i].mode;
      for (const std::string& v : axes[i].values) text += " " + v;
      text += "\n";
    }
    return text;
  }

  std::string spec_text_;
  Probe& probe_;
};

// --- paper reproduction ------------------------------------------------------

/// Figure 6's six LU-MZ bar groups from a fresh Lab, with ground truth.
class PaperLu final : public Workload {
 public:
  explicit PaperLu(std::uint64_t seed) {
    for (const std::string& target :
         {experiments::Lab::power6_name(), experiments::Lab::bluegene_name(),
          experiments::Lab::westmere_name()}) {
      for (const nas::ProblemClass cls :
           {nas::ProblemClass::kC, nas::ProblemClass::kD}) {
        queries_.push_back({nas::Benchmark::kLU, cls, target, 16});
      }
    }
    shuffle(queries_, seed);
  }

  OpOutput setup() override { return run_op(); }

  OpOutput run_op() override {
    experiments::Lab lab;
    {
      // Lab::projector() acquires the SPEC library (its own span) and the
      // four IMB databases, so the rest of this span is IMB measurement.
      const swapp::obs::Span span("imb.lab_projector_call");
      lab.projector();
    }
    std::vector<experiments::ErrorRow> rows;
    {
      const swapp::obs::Span span("experiments.error_rows_call");
      rows = lab.error_rows(queries_);
    }

    OpOutput out;
    double sum = 0.0;
    double max = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const experiments::ErrorRow& e = rows[i];
      out.rows.push_back(
          {"LU-MZ." + nas::to_string(queries_[i].cls) + "|" +
               queries_[i].target + "|" + std::to_string(queries_[i].ranks),
           render({e.p2p_nb, e.p2p_b, e.collectives, e.overall_comm,
                   e.computation, e.combined, e.combined_signed})});
      sum += e.combined;
      max = std::max(max, e.combined);
    }
    out.metrics["experiments.proj_err_mean_pct"] =
        sum / static_cast<double>(rows.size());
    out.metrics["experiments.proj_err_max_pct"] = max;

    // NasApp::run is internal to the Lab; count its runs from the profiles
    // it returns (ST runs per MPI count, extra ST counter runs, SMT runs)
    // plus one ground-truth run per row.
    double runs = static_cast<double>(rows.size());
    for (const nas::ProblemClass cls :
         {nas::ProblemClass::kC, nas::ProblemClass::kD}) {
      const core::AppBaseData& data = lab.base_data(nas::Benchmark::kLU, cls);
      runs += static_cast<double>(data.mpi_profiles.size() +
                                  data.counters_smt.size());
      for (const auto& entry : data.counters_st) {
        runs += data.mpi_profiles.count(entry.first) == 0 ? 1.0 : 0.0;
      }
    }
    out.counts["nas.runs"] = runs;
    out.counts["experiments.rows"] = static_cast<double>(rows.size());
    return out;
  }

 private:
  std::vector<experiments::Lab::RowQuery> queries_;
};

}  // namespace

// --- Probe -------------------------------------------------------------------

core::AppBaseData Probe::profile_app(nas::Benchmark bench,
                                     nas::ProblemClass cls, int threads,
                                     const std::vector<int>& counts) {
  const auto start = std::chrono::steady_clock::now();
  const machine::Machine base = machine::make_power5_hydra();
  const nas::NasApp app(bench, cls);
  ProbeTotals delta;
  const auto run = [&](int c, machine::SmtMode mode) {
    const swapp::obs::Span span("nas.run_call");
    const auto run_start = std::chrono::steady_clock::now();
    std::unique_ptr<swapp::mpi::World> world =
        app.run(base, c, mode, threads);
    delta.nas_s += seconds_since(run_start);
    delta.nas_runs += 1;
    delta.simulated_s += world->wall_time();
    for (const auto& [routine, profile] : world->profile().routines) {
      delta.mpi_calls += profile.total_calls;
    }
    return world;
  };
  core::AppBaseData data;
  data.app = app.name();
  data.base_machine = base.name;
  data.threads_per_rank = threads;
  for (const int c : counts) {
    const auto st = run(c, machine::SmtMode::kSingleThread);
    data.mpi_profiles.emplace(c, st->profile());
    data.mean_compute.emplace(c, st->profile().mean_compute());
    data.counters_st.emplace(c, st->counters());
    const auto smt = run(c, machine::SmtMode::kSmt);
    data.counters_smt.emplace(c, smt->counters());
  }
  delta.collector_s = seconds_since(start);
  add(delta);
  return data;
}

imb::ImbDatabase Probe::measure_imb(const machine::Machine& m) {
  const swapp::obs::Span span("imb.measure_database_call");
  const auto start = std::chrono::steady_clock::now();
  imb::ImbDatabase db = imb::measure_database(m);
  ProbeTotals delta;
  delta.collector_s = seconds_since(start);
  delta.imb_databases = 1;
  for (const auto& [routine, table] : db.tables) {
    delta.imb_samples += table.samples().size();
  }
  for (const auto* table : {&db.multi_sendrecv_x1, &db.multi_sendrecv_x2,
                            &db.multi_sendrecv_near_x1,
                            &db.multi_sendrecv_near_x2}) {
    delta.imb_samples += table->samples().size();
  }
  add(delta);
  return db;
}

core::SpecLibrary Probe::collect_spec(
    const machine::Machine& base, const std::vector<machine::Machine>& targets,
    const std::vector<int>& task_counts) {
  const swapp::obs::Span span("spec.collect_library_call");
  const auto start = std::chrono::steady_clock::now();
  core::SpecLibrary lib =
      experiments::collect_spec_library(base, targets, task_counts);
  ProbeTotals delta;
  delta.collector_s = seconds_since(start);
  add(delta);
  return lib;
}

void Probe::add(const ProbeTotals& d) {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.nas_runs += d.nas_runs;
  totals_.mpi_calls += d.mpi_calls;
  totals_.simulated_s += d.simulated_s;
  totals_.nas_s += d.nas_s;
  totals_.imb_databases += d.imb_databases;
  totals_.imb_samples += d.imb_samples;
  totals_.collector_s += d.collector_s;
}

double Probe::collector_seconds() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return totals_.collector_s;
}

ProbeTotals Probe::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(totals_, ProbeTotals{});
}

// --- registry ----------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"cold_project", "warm_batch",
                                                  "comm_sweep", "paper_lu"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const fs::path& work_dir,
                                        Probe& probe) {
  if (name == "cold_project") {
    return std::make_unique<ColdProject>(work_dir, probe);
  }
  if (name == "warm_batch") {
    return std::make_unique<WarmBatch>(seed, work_dir, probe);
  }
  if (name == "comm_sweep") return std::make_unique<CommSweep>(seed, probe);
  if (name == "paper_lu") return std::make_unique<PaperLu>(seed);
  throw swapp::InvalidArgument("unknown workload: " + name);
}

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string render(const std::vector<double>& values) {
  std::string out;
  char buf[64];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%a", v);
    if (!out.empty()) out += ' ';
    out += buf;
  }
  return out;
}

}  // namespace perfbench
