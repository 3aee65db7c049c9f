// Micro-benchmarks (google-benchmark) for the simulation substrate and the
// projection pipeline — the performance properties that make the whole
// reproduction tractable on one core.
#include <benchmark/benchmark.h>

#include "core/ga.h"
#include "core/projector.h"
#include "core/ranking.h"
#include "experiments/lab.h"
#include "imb/suite.h"
#include "machine/machine.h"
#include "mpi/world.h"
#include "nas/nas_app.h"
#include "nas/zones.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "service/artifact_cache.h"
#include "spec/suite.h"
#include "support/interp.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"
#include "support/parallel.h"
#include "workload/compute_model.h"

namespace {

using namespace swapp;

/// SPEC-style suite data on the base machine, shared by the GA benchmarks.
const core::SpecData& ga_spec_data() {
  static const core::SpecData* data = [] {
    auto* spec = new core::SpecData;
    const machine::Machine base = machine::make_power5_hydra();
    for (const spec::BenchmarkRun& run :
         spec::run_suite(base, machine::SmtMode::kSingleThread)) {
      spec->names.push_back(run.name);
      spec->base_counters_st.emplace(run.name, run.counters);
      spec->base_runtime.emplace(run.name, run.runtime);
    }
    for (const spec::BenchmarkRun& run :
         spec::run_suite(base, machine::SmtMode::kSmt)) {
      spec->base_counters_smt.emplace(run.name, run.counters);
    }
    return spec;
  }();
  return *data;
}

// Eight processes advance by the same step from staggered start times, so
// every wake-up lands between two of the others': each advance is queued,
// popped and resumed with a fiber switch (no inline wakes).
void BM_EngineEventDispatch(benchmark::State& state) {
  constexpr int kProcs = 8;
  constexpr double kStep = 1e-6;
  const int advances = static_cast<int>(state.range(0)) / kProcs;
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < kProcs; ++i) {
      engine.spawn(
          "p" + std::to_string(i),
          [advances](sim::Process& p) {
            for (int k = 0; k < advances; ++k) p.advance(kStep);
          },
          kStep * i / kProcs);
    }
    engine.run();
    benchmark::DoNotOptimize(engine.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventDispatch)->Arg(1 << 10)->Arg(1 << 14);

void BM_FiberSwitch(benchmark::State& state) {
  sim::Fiber fiber([] {
    while (true) sim::Fiber::yield();
  });
  for (auto _ : state) fiber.resume();
}
BENCHMARK(BM_FiberSwitch);

void BM_ComputeModelEvaluate(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  const workload::Kernel& k = spec::benchmark_by_name("bwaves").kernel;
  const workload::ComputeContext ctx{.active_cores_per_node = 16,
                                     .smt = machine::SmtMode::kSingleThread};
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::evaluate(k, 1e6, m, ctx).seconds);
  }
}
BENCHMARK(BM_ComputeModelEvaluate);

void BM_MpiPingPongSimulation(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  for (auto _ : state) {
    mpi::World world(m, 2);
    world.run([](mpi::RankCtx& ctx) {
      for (int i = 0; i < 100; ++i) {
        if (ctx.rank() == 0) {
          ctx.send(1, 1024);
          ctx.recv(1, 1024);
        } else {
          ctx.recv(0, 1024);
          ctx.send(0, 1024);
        }
      }
    });
    benchmark::DoNotOptimize(world.wall_time());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_MpiPingPongSimulation);

void BM_CollectiveSimulation(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::World world(m, ranks);
    world.run([](mpi::RankCtx& ctx) {
      for (int i = 0; i < 10; ++i) ctx.allreduce(4096);
    });
    benchmark::DoNotOptimize(world.wall_time());
  }
}
BENCHMARK(BM_CollectiveSimulation)->Arg(16)->Arg(128);

void BM_ZoneDecomposition(benchmark::State& state) {
  for (auto _ : state) {
    const nas::Decomposition d(nas::Benchmark::kBT, nas::ProblemClass::kD,
                               static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(d.imbalance());
  }
}
BENCHMARK(BM_ZoneDecomposition)->Arg(16)->Arg(128);

void BM_LogLogTableLookup(benchmark::State& state) {
  CoreSizeTable table;
  for (const int c : {16, 32, 64, 128}) {
    for (const double b : {64.0, 512.0, 4096.0, 32768.0, 262144.0}) {
      table.insert(c, b, 1e-6 * b / 64.0 * c);
    }
  }
  double bytes = 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(48, bytes));
    bytes = bytes < 2e5 ? bytes * 1.1 : 100.0;
  }
}
BENCHMARK(BM_LogLogTableLookup);

void BM_GaSurrogateSearch(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const core::SpecData& spec = ga_spec_data();
  const machine::PmuCounters app = spec.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt = spec.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  core::GaOptions options;
  options.restarts = 1;
  options.generations = 80;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_surrogate(app, app_smt, weights, spec, 100.0, options)
            .fitness);
  }
}
BENCHMARK(BM_GaSurrogateSearch);

// The Eq. 2 surrogate search at production settings (default GaOptions:
// 5 restarts × 240 generations), serial vs. pooled.  Arg = thread count
// (0 = auto: SWAPP_THREADS / hardware concurrency).
void BM_FindSurrogate(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const core::SpecData& spec = ga_spec_data();
  const machine::PmuCounters app = spec.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt = spec.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  const core::GaOptions options;
  set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_surrogate(app, app_smt, weights, spec, 100.0, options)
            .fitness);
  }
  set_thread_count(0);
}
BENCHMARK(BM_FindSurrogate)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// The max_terms genome every GA micro-benchmark perturbs (suite-strided,
/// scaled so base runtimes sum near the target compute time).
std::vector<double> ga_bench_genome(const core::SpecData& spec) {
  std::vector<double> genome(spec.names.size(), 0.0);
  const std::size_t stride = std::max<std::size_t>(1, genome.size() / 6);
  int terms = 0;
  for (std::size_t k = 0; k < genome.size() && terms < 6;
       k += stride, ++terms) {
    genome[k] = 100.0 / (6.0 * spec.base_runtime.at(spec.names[k]));
  }
  return genome;
}

// The GA objective on a suite-sized genome, one kernel per Arg (the
// core::GaKernel enum): 0 = three-pass reference oracle, 2 = the production
// SoA sparse kernel.  256 evaluations per iteration, matching the
// per-generation re-evaluation load.
void BM_GaFitnessKernel(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const core::SpecData& spec = ga_spec_data();
  const machine::PmuCounters app = spec.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt = spec.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  const std::vector<double> genome = ga_bench_genome(spec);
  const auto kernel = static_cast<core::GaKernel>(state.range(0));
  constexpr int kEvals = 256;
  // Problem setup (signature conversion, interleaving, scales) happens once,
  // outside the timed region: the loop measures the kernels themselves.
  const core::GaFitnessProber prober(app, app_smt, weights, spec, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prober.run(genome, kEvals, kernel));
  }
  state.SetItemsProcessed(state.iterations() * kEvals);
}
BENCHMARK(BM_GaFitnessKernel)->Arg(0)->Arg(2);

/// An application whose signature is a genuine six-way blend of the strided
/// genome's benchmarks (instruction-weighted accumulate, distinct shares).
/// Matching it with fewer terms leaves a real residual, so the polished
/// optimum keeps all six weights live — a single-app target like zeusmp is
/// matched by two suite benchmarks and the polish crushes the other four
/// weights to ~1e-13, where every tweak is a numerical tie the screen
/// (correctly) cannot reject without an exact eval.
machine::PmuCounters ga_polish_app(
    const core::SpecData& spec,
    const std::map<std::string, machine::PmuCounters>& counters) {
  static constexpr double kShare[6] = {0.30, 0.23, 0.17, 0.13, 0.10, 0.07};
  const std::size_t stride = std::max<std::size_t>(1, spec.names.size() / 6);
  machine::PmuCounters app;
  int terms = 0;
  for (std::size_t k = 0; k < spec.names.size() && terms < 6;
       k += stride, ++terms) {
    machine::PmuCounters part = counters.at(spec.names[k]);
    const double scale = kShare[terms] / part.instructions;
    part.instructions *= scale;
    part.cycles *= scale;
    part.seconds *= scale;
    app.accumulate(part);
  }
  return app;
}

// The GA's deterministic polish loop on a converged max_terms genome.  Arg
// = core::PolishMode: 0 = delta-screened (the GA's polish: screen every
// candidate, confirm improvements exactly), 1 = the full-eval oracle.  The
// genome is polished to its local optimum once, outside the timed region,
// because that is the regime the GA puts the loop in — its winners arrive
// near-converged, so almost every candidate is a rejection, which is
// exactly where the screen replaces a copy+rescale+exact-eval with one
// O(M) delta pass.  `min_sweeps` pins the candidate-visit count, so both
// modes walk the same sweep schedule and the ratio is the screen's saving.
void BM_GaPolish(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const core::SpecData& spec = ga_spec_data();
  const machine::PmuCounters app = ga_polish_app(spec, spec.base_counters_st);
  const machine::PmuCounters app_smt =
      ga_polish_app(spec, spec.base_counters_smt);
  const core::GroupWeights weights = core::base_group_weights(app, base);
  const auto mode = static_cast<core::PolishMode>(state.range(0));
  constexpr int kMinSweeps = 32;
  const core::GaFitnessProber prober(app, app_smt, weights, spec, 100.0);
  std::vector<double> converged;
  prober.run_polish(ga_bench_genome(spec), 0, core::PolishMode::kFullEval,
                    &converged);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prober.run_polish(converged, kMinSweeps, mode));
  }
}
BENCHMARK(BM_GaPolish)->Arg(0)->Arg(1);

// The raw one-weight delta screen: 256 screens per iteration over a bound
// blend — the load the polish loop puts on the kernel per sweep family.
void BM_GaDeltaKernel(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const core::SpecData& spec = ga_spec_data();
  const machine::PmuCounters app = spec.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt = spec.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  const std::vector<double> genome = ga_bench_genome(spec);
  constexpr int kScreens = 256;
  const core::GaFitnessProber prober(app, app_smt, weights, spec, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prober.run_delta(genome, kScreens));
  }
  state.SetItemsProcessed(state.iterations() * kScreens);
}
BENCHMARK(BM_GaDeltaKernel);

// A full figure through the Lab (LU on POWER6: ground-truth runs +
// projections per row), serial vs. pooled.  Arg = thread count (0 = auto).
// The Lab is rebuilt each iteration so every row pays its full cost; the
// shared databases are built outside the timed section.
void BM_LabFigure(benchmark::State& state) {
  set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    experiments::Lab lab({experiments::Lab::power6_name()});
    lab.projector();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        lab.figure(nas::Benchmark::kLU, experiments::Lab::power6_name())
            .rows.size());
  }
  set_thread_count(0);
}
BENCHMARK(BM_LabFigure)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// --- Observability overhead -------------------------------------------------
// The instrumentation contract is "zero overhead when disabled": every macro
// must cost one relaxed atomic load while the switches are off.  Arg = 1
// turns the relevant switch on and measures the recording cost instead.

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::set_metrics_enabled(state.range(0) == 1);
  for (auto _ : state) {
    SWAPP_COUNT("bench.obs_counter", 1);
  }
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
BENCHMARK(BM_ObsCounterAdd)->Arg(0)->Arg(1);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::set_metrics_enabled(state.range(0) == 1);
  double v = 1.0;
  for (auto _ : state) {
    SWAPP_OBSERVE("bench.obs_hist", v);
    v = v < 1e6 ? v * 1.7 : 1.0;
  }
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
BENCHMARK(BM_ObsHistogramObserve)->Arg(0)->Arg(1);

// 1000 spans per iteration; the enabled run drains each batch so the buffer
// cost that a real trace pays (record + eventual drain) is in the number.
void BM_ObsSpan(benchmark::State& state) {
  obs::set_tracing_enabled(state.range(0) == 1);
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      SWAPP_SPAN("bench.obs_span");
    }
    if (state.range(0) == 1) {
      benchmark::DoNotOptimize(obs::drain_trace().size());
    }
  }
  obs::set_tracing_enabled(false);
  obs::drain_trace();
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ObsSpan)->Arg(0)->Arg(1);

// The GA search with every switch live: spans, per-generation convergence
// counters, and metrics all recording.  Compare against BM_GaSurrogateSearch
// (same work, switches off) for the worst-case enabled overhead.
void BM_GaSurrogateSearchObsEnabled(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const core::SpecData& spec = ga_spec_data();
  const machine::PmuCounters app = spec.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt = spec.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  core::GaOptions options;
  options.restarts = 1;
  options.generations = 80;
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_surrogate(app, app_smt, weights, spec, 100.0, options)
            .fitness);
    benchmark::DoNotOptimize(obs::drain_trace().size());
  }
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
BENCHMARK(BM_GaSurrogateSearchObsEnabled);

// --- always-on recording -----------------------------------------------------
// The daemon keeps metrics enabled, exact, for its whole life
// (tools/swapp_cli.cpp cmd_serve).  This runs the GA search under exactly
// that configuration, tracing off; the BENCH_obs_live.json record requires it
// within 2% of BM_GaSurrogateSearch (metrics disabled) measured in the same
// run.
void BM_GaSurrogateSearchMetricsOn(benchmark::State& state) {
  const machine::Machine base = machine::make_power5_hydra();
  const core::SpecData& spec = ga_spec_data();
  const machine::PmuCounters app = spec.base_counters_st.at("zeusmp");
  const machine::PmuCounters app_smt = spec.base_counters_smt.at("zeusmp");
  const core::GroupWeights weights = core::base_group_weights(app, base);
  core::GaOptions options;
  options.restarts = 1;
  options.generations = 80;
  obs::set_metrics_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::find_surrogate(app, app_smt, weights, spec, 100.0, options)
            .fitness);
  }
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
}
BENCHMARK(BM_GaSurrogateSearchMetricsOn);

void BM_ImbMeasurement(benchmark::State& state) {
  const machine::Machine m = machine::make_power5_hydra();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        imb::run_imb(m, imb::ImbBenchmark::kAllreduce, 32, 4096, 8).time);
  }
}
BENCHMARK(BM_ImbMeasurement);

// --- Sweep factoring ---------------------------------------------------------
// A five-point comm-only bandwidth sweep (LU/C at 8 tasks, reference 16).
// Arg = 1 runs it through SweepRunner, whose planner factors the points into
// one SPEC-library target, one GA search, and per-class IMB databases.
// Arg = 0 is the naive expansion the planner replaces: every point issued as
// its own single-point sweep against a fresh runner, paying its own library,
// search, and measurements.  Both paths start from empty memory-only caches
// each iteration (cold artifacts are the cost being factored) and share one
// pre-collected application profile, so the ratio isolates the planner.

/// LU/C base profile, collected once outside any timed section.
const core::AppBaseData& sweep_lu_data() {
  static const core::AppBaseData* d = new core::AppBaseData(
      experiments::collect_base_data(
          nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
          machine::make_power5_hydra(), {4, 8, 16}, {4, 8, 16}));
  return *d;
}

void configure_sweep_runner(sweep::SweepRunner& runner) {
  const machine::Machine base = machine::make_power5_hydra();
  runner.set_spec_collector(
      [](const machine::Machine& b, const std::vector<machine::Machine>& t,
         const std::vector<int>& counts) {
        return experiments::collect_spec_library(b, t, counts);
      });
  runner.set_imb_collector([](const machine::Machine& m) {
    return imb::measure_database(m, {8, 16, 32}, {512, 16_KiB, 256_KiB});
  });
  runner.add_app("LU/C",
                 service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                              {4, 8, 16}),
                 [] { return sweep_lu_data(); });
}

void BM_SweepFanout(benchmark::State& state) {
  (void)sweep_lu_data();  // profile the app outside the timed region
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  sweep::SweepSpec spec;
  spec.app = "LU/C";
  spec.target = target.name;
  spec.tasks = 8;
  spec.reference = 16;
  spec.options.compute.surrogate_reference_cores = 16;
  spec.axes.push_back({"network.link_bandwidth_gbs", sweep::AxisMode::kScale,
                       {0.25, 0.5, 1.0, 2.0, 4.0}});
  const bool factored = state.range(0) == 1;
  for (auto _ : state) {
    double total = 0.0;
    if (factored) {
      sweep::SweepRunner runner(base, {target}, {});
      configure_sweep_runner(runner);
      for (const core::ProjectionResult& r : runner.run(spec).results) {
        total += r.total_target();
      }
    } else {
      for (const double scale : spec.axes[0].values) {
        sweep::SweepSpec one = spec;
        one.axes[0].values = {scale};
        sweep::SweepRunner runner(base, {target}, {});
        configure_sweep_runner(runner);
        total += runner.run(one).results[0].total_target();
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_SweepFanout)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
