// Unit tests for the SWAPP core: ACSM, CCSM, metric ranking, and the GA
// surrogate search (on synthetic, fully-controlled inputs).
#include <gtest/gtest.h>

#include <cmath>

#include "core/acsm.h"
#include "core/ccsm.h"
#include "core/ga.h"
#include "core/profiles.h"
#include "core/ranking.h"
#include "core/spec_index.h"
#include "machine/machine.h"
#include "support/error.h"

namespace swapp::core {
namespace {

machine::PmuCounters counters_with(double l3_per_instr, double mem_per_instr,
                                   double instructions = 1e9) {
  machine::PmuCounters c;
  c.instructions = instructions;
  c.cycles = instructions;
  c.seconds = 1.0;
  c.cpi_completion = 0.3;
  c.cpi_stall_fp = 0.2;
  c.cpi_stall_mem = l3_per_instr * 90.0 * 0.1 + mem_per_instr * 230.0 * 0.1;
  c.fp_per_instr = 0.4;
  c.data_from_l2_per_instr = 0.002;
  c.data_from_l3_per_instr = l3_per_instr;
  c.data_from_local_mem_per_instr = mem_per_instr;
  c.memory_bandwidth_gbs = mem_per_instr * 50.0;
  return c;
}

TEST(Acsm, FindsHyperScalingPoint) {
  // data-from-L3 halves with each doubling: m(C) = 0.08·(16/C).
  std::map<int, machine::PmuCounters> samples;
  for (const int c : {16, 32, 64}) {
    samples.emplace(c, counters_with(0.08 * 16.0 / c, 0.001 * 16.0 / c));
  }
  const AcsmModel acsm(samples, machine::make_power5_hydra());
  const double ch = acsm.hyper_scaling_cores();
  // Crossing at 5% of peak: 0.08·16/C = 0.004 → C = 320.
  EXPECT_NEAR(ch, 320.0, 16.0);
}

TEST(Acsm, FlatMetricsNeverCross) {
  std::map<int, machine::PmuCounters> samples;
  for (const int c : {16, 32, 64}) samples.emplace(c, counters_with(0.05, 0.0));
  const AcsmModel acsm(samples, machine::make_power5_hydra());
  EXPECT_TRUE(std::isinf(acsm.hyper_scaling_cores()));
}

TEST(Acsm, ExactSamplesReturnedVerbatim) {
  std::map<int, machine::PmuCounters> samples;
  samples.emplace(16, counters_with(0.08, 0.004));
  samples.emplace(32, counters_with(0.04, 0.002));
  const AcsmModel acsm(samples, machine::make_power5_hydra());
  EXPECT_FALSE(acsm.needs_extrapolation(16));
  EXPECT_DOUBLE_EQ(acsm.counters_at(16).data_from_l3_per_instr, 0.08);
}

TEST(Acsm, ExtrapolatesReloadsDownward) {
  std::map<int, machine::PmuCounters> samples;
  for (const int c : {16, 32, 64}) {
    samples.emplace(c, counters_with(0.08 * 16.0 / c, 0.004 * 16.0 / c));
  }
  const AcsmModel acsm(samples, machine::make_power5_hydra());
  EXPECT_TRUE(acsm.needs_extrapolation(128));
  const machine::PmuCounters at128 = acsm.counters_at(128);
  EXPECT_NEAR(at128.data_from_l3_per_instr, 0.01, 0.002);
  // Memory stall CPI shrinks along with the reload metrics.
  EXPECT_LT(at128.cpi_stall_mem, samples.at(64).cpi_stall_mem);
}

TEST(Ccsm, GammaFromExactProfiles) {
  std::map<int, Seconds> compute = {{16, 160.0}, {32, 80.0}, {64, 40.0}};
  const CcsmModel ccsm(compute);
  // Profiled pair: exact ratio.
  EXPECT_DOUBLE_EQ(ccsm.gamma(16, 64), 0.25);
  // Extrapolated: the fitted strong-scaling law continues 1/C.
  EXPECT_NEAR(ccsm.gamma(16, 128), 0.125, 0.01);
  EXPECT_NEAR(ccsm.predict(128), 20.0, 2.0);
}

TEST(Ccsm, SerialFractionFlattensScaling) {
  std::map<int, Seconds> compute;
  for (const int c : {8, 16, 32, 64}) {
    compute[c] = 800.0 / c + 10.0;  // 10 s serial part
  }
  const CcsmModel ccsm(compute);
  EXPECT_GT(ccsm.predict(512), 10.0);  // never below the serial floor
  EXPECT_NEAR(ccsm.predict(256), 800.0 / 256 + 10.0, 1.5);
}

TEST(Ccsm, ReliabilityGuard) {
  std::map<int, Seconds> compute = {{16, 100.0}, {32, 50.0}};
  const CcsmModel ccsm(compute);
  EXPECT_TRUE(ccsm.gamma_reliable(32, 64.0));    // inside profiled range
  EXPECT_TRUE(ccsm.gamma_reliable(48, 64.0));    // before Ch
  EXPECT_FALSE(ccsm.gamma_reliable(128, 64.0));  // beyond both
}

TEST(Ranking, WeightsSumToOneAndRankByContribution) {
  // Memory-dominated counters must rank G2/G5 above G3/G4.
  machine::PmuCounters c = counters_with(0.01, 0.02);
  c.cpi_stall_mem = 3.0;
  const GroupWeights w = base_group_weights(c, machine::make_power5_hydra());
  double sum = 0.0;
  for (const double x : w.weight) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  const auto ranks = w.ranks();
  // Latency-weighted reloads (G5) dominate, with the stall group close
  // behind; both must outrank FP and translation.
  EXPECT_EQ(ranks[static_cast<std::size_t>(
                machine::MetricGroup::kDataReloads)], 1);
  EXPECT_LE(ranks[static_cast<std::size_t>(
                machine::MetricGroup::kCpiStall)], 2);
  EXPECT_GT(ranks[static_cast<std::size_t>(
                machine::MetricGroup::kTranslation)], 3);
}

TEST(Ranking, RanksArePermutation) {
  const GroupWeights w =
      base_group_weights(counters_with(0.02, 0.004),
                         machine::make_power5_hydra());
  std::array<bool, machine::kMetricGroupCount> seen{};
  for (const int r : w.ranks()) {
    ASSERT_GE(r, 1);
    ASSERT_LE(r, static_cast<int>(machine::kMetricGroupCount));
    seen[static_cast<std::size_t>(r - 1)] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

SpecData synthetic_spec() {
  // Three synthetic benchmarks with orthogonal signatures:
  //   fast  — low CPI, speeds up 4× on the target;
  //   slow  — memory-heavy, speeds up 1.5×;
  //   mid   — in between, 2.5×.
  SpecData spec;
  const auto add = [&](const std::string& name, double stall, Seconds base,
                       Seconds target) {
    machine::PmuCounters c = counters_with(stall * 0.01, stall * 0.005);
    c.cpi_stall_mem = stall;
    spec.names.push_back(name);
    spec.base_counters_st.emplace(name, c);
    machine::PmuCounters smt = c;
    smt.cpi_completion *= 1.4;
    spec.base_counters_smt.emplace(name, smt);
    spec.base_runtime.emplace(name, base);
    spec.target_runtime["target"].emplace(name, target);
  };
  add("fast", 0.1, 50.0, 12.5);
  add("slow", 4.0, 200.0, 133.0);
  add("mid", 1.5, 100.0, 40.0);
  return spec;
}

TEST(Ga, RecoversExactMemberMatch) {
  const SpecData spec = synthetic_spec();
  const SpecIndex index(spec, "target");
  // The application is exactly "mid" with twice the runtime.
  machine::PmuCounters app = spec.base_counters_st.at("mid");
  machine::PmuCounters app_smt = spec.base_counters_smt.at("mid");
  GroupWeights weights;
  weights.weight.fill(1.0 / machine::kMetricGroupCount);
  GaOptions options;
  options.seed = 1234;
  const Surrogate s =
      find_surrogate(app, app_smt, weights, index, 200.0, options);
  // Base-runtime consistency holds by construction.
  EXPECT_NEAR(s.base_runtime(index), 200.0, 1.0);
  // Projection lands near "mid"'s speedup (2.5×): 200/2.5 = 80.
  EXPECT_NEAR(s.project_runtime(index), 80.0, 12.0);
}

TEST(Ga, DeterministicForSeed) {
  const SpecData spec = synthetic_spec();
  const SpecIndex index(spec, "target");
  const machine::PmuCounters app = spec.base_counters_st.at("slow");
  const machine::PmuCounters app_smt = spec.base_counters_smt.at("slow");
  GroupWeights weights;
  weights.weight.fill(1.0 / machine::kMetricGroupCount);
  GaOptions options;
  options.seed = 77;
  const Surrogate a =
      find_surrogate(app, app_smt, weights, index, 100.0, options);
  const Surrogate b =
      find_surrogate(app, app_smt, weights, index, 100.0, options);
  ASSERT_EQ(a.terms.size(), b.terms.size());
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(a.terms[i].benchmark, b.terms[i].benchmark);
    EXPECT_DOUBLE_EQ(a.terms[i].weight, b.terms[i].weight);
  }
}

TEST(Ga, RespectsSparsityCap) {
  const SpecData spec = synthetic_spec();
  const machine::PmuCounters app = spec.base_counters_st.at("mid");
  GroupWeights weights;
  weights.weight.fill(1.0 / machine::kMetricGroupCount);
  GaOptions options;
  options.max_terms = 2;
  options.restarts = 1;
  const SpecIndex index(spec, "target");
  const Surrogate s = find_surrogate(app, spec.base_counters_smt.at("mid"),
                                     weights, index, 100.0, options);
  EXPECT_LE(s.terms.size(), 2u);
}

TEST(SpecIndex, IndexesAViewAgainstItsTarget) {
  const SpecData spec = synthetic_spec();
  const SpecIndex index(spec, "target");
  EXPECT_EQ(index.names, spec.names);
  EXPECT_EQ(index.base_time, (std::vector<double>{50.0, 200.0, 100.0}));
  EXPECT_EQ(index.target_time, (std::vector<double>{12.5, 133.0, 40.0}));
  EXPECT_EQ(index.intensity.size(), spec.names.size());
  EXPECT_THROW(SpecIndex(spec, "elsewhere"), NotFound);
  // A synthetic suite without target runtimes projects onto its own base.
  SpecData base_only = spec;
  base_only.target_runtime.clear();
  EXPECT_EQ(SpecIndex(base_only, "base").target_time, index.base_time);
  EXPECT_THROW(SpecIndex(SpecData{}, "base"), InvalidArgument);
}

TEST(SpecLibrary, ViewSelectsOccupancy) {
  SpecLibrary lib;
  lib.names = {"b"};
  lib.base_cores_per_node = 16;
  machine::PmuCounters c16 = counters_with(0.01, 0.001);
  machine::PmuCounters c4 = counters_with(0.04, 0.004);
  lib.base_counters_st[16].emplace("b", c16);
  lib.base_counters_st[4].emplace("b", c4);
  lib.base_counters_smt[16].emplace("b", c16);
  lib.base_counters_smt[4].emplace("b", c4);
  lib.base_runtime[16].emplace("b", 10.0);
  lib.base_runtime[4].emplace("b", 6.0);
  lib.targets["t"].cores_per_node = 4;
  lib.targets["t"].runtime[4].emplace("b", 3.0);

  EXPECT_EQ(SpecLibrary::occupancy_for(128, 16), 16);
  EXPECT_EQ(SpecLibrary::occupancy_for(8, 16), 8);

  const SpecData exact = lib.view(16, "t", 4);
  EXPECT_DOUBLE_EQ(exact.base_runtime.at("b"), 10.0);
  EXPECT_DOUBLE_EQ(exact.target_runtime.at("t").at("b"), 3.0);
  // Nearest occupancy picked when exact one is absent.
  const SpecData nearest = lib.view(6, "t", 4);
  EXPECT_DOUBLE_EQ(nearest.base_runtime.at("b"), 6.0);
  EXPECT_THROW(lib.view(16, "unknown", 4), NotFound);
}

}  // namespace
}  // namespace swapp::core
