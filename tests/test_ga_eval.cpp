// Tests for the GA evaluation engine (core/ga_eval.h): the bit-identity
// contract between the reference objective and the production sparse
// kernel across genome shapes (all-zero, single-term, dense, randomized
// sparse), the contract's zero-weight clause (extra zero positions in `nz`
// must not change a single bit), the delta screen's accuracy and drift
// bounds, and the search's output pinned to constants recorded from the
// full-eval polish oracle.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/ga.h"
#include "core/ga_eval.h"
#include "core/ranking.h"
#include "core/spec_index.h"
#include "machine/counters.h"
#include "support/parallel.h"

namespace swapp {
namespace {

machine::PmuCounters counters_with(double stall, double l3, double mem) {
  machine::PmuCounters c;
  c.instructions = 1e9;
  c.cycles = 1e9;
  c.seconds = 1.0;
  c.cpi_completion = 0.3;
  c.cpi_stall_fp = 0.2;
  c.cpi_stall_mem = stall;
  c.fp_per_instr = 0.4;
  c.data_from_l2_per_instr = 0.002;
  c.data_from_l3_per_instr = l3;
  c.data_from_local_mem_per_instr = mem;
  c.memory_bandwidth_gbs = mem * 50.0;
  return c;
}

/// Ten benchmarks with spread-out signatures and runtimes: enough terms for
/// dense genomes and for odd and even nonzero counts.
core::SpecData synthetic_spec() {
  core::SpecData spec;
  for (int k = 0; k < 10; ++k) {
    const double stall = 0.1 + 0.45 * k;
    machine::PmuCounters st =
        counters_with(stall, 0.001 * (k + 1), 0.0005 * (k + 1));
    machine::PmuCounters smt = st;
    smt.cpi_completion *= 1.4;
    smt.cpi_stall_mem *= 1.2;
    const std::string name = "bench" + std::to_string(k);
    spec.names.push_back(name);
    spec.base_counters_st.emplace(name, st);
    spec.base_counters_smt.emplace(name, smt);
    spec.base_runtime.emplace(name, 40.0 + 17.0 * k);
  }
  return spec;
}

class GaEvalBitIdentity : public ::testing::Test {
 protected:
  GaEvalBitIdentity()
      : index_(synthetic_spec(), "base"),
        app_st_(counters_with(1.7, 0.004, 0.002)),
        app_smt_(counters_with(2.1, 0.005, 0.0025)) {
    weights_.weight.fill(1.0 / machine::kMetricGroupCount);
    prober_ = std::make_unique<core::GaFitnessProber>(app_st_, app_smt_,
                                                      weights_, index_, 100.0);
  }

  /// Runs the probe through the production kernel and asserts exact
  /// (bitwise) agreement with the reference.  `iters` > 1 also covers the
  /// probe's nudged genome variants.
  void expect_kernels_agree(const std::vector<double>& genome, int iters) {
    const double ref = prober_->run(genome, iters, core::GaKernel::kReference);
    EXPECT_EQ(ref, prober_->run(genome, iters, core::GaKernel::kSoaSparse));
  }

  core::SpecIndex index_;
  machine::PmuCounters app_st_;
  machine::PmuCounters app_smt_;
  core::GroupWeights weights_;
  std::unique_ptr<core::GaFitnessProber> prober_;
};

TEST_F(GaEvalBitIdentity, AllZeroGenome) {
  // Degenerate share total: every kernel must take the same 1e18 penalty
  // branch, not divide by zero.
  const std::vector<double> zero(index_.size(), 0.0);
  expect_kernels_agree(zero, 1);
  expect_kernels_agree(zero, 8);
}

TEST_F(GaEvalBitIdentity, SingleTermGenomes) {
  for (std::size_t k = 0; k < index_.size(); ++k) {
    std::vector<double> genome(index_.size(), 0.0);
    genome[k] = 0.25 + 0.5 * static_cast<double>(k);
    expect_kernels_agree(genome, 6);
  }
}

TEST_F(GaEvalBitIdentity, DenseGenome) {
  std::vector<double> genome(index_.size());
  for (std::size_t k = 0; k < genome.size(); ++k) {
    genome[k] = 0.05 + 0.11 * static_cast<double>(k);
  }
  expect_kernels_agree(genome, 12);
}

TEST_F(GaEvalBitIdentity, RandomizedSparseGenomes) {
  std::mt19937_64 rng(0xb17b17);
  std::uniform_real_distribution<double> weight(0.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<double> genome(index_.size(), 0.0);
    for (double& g : genome) {
      if (coin(rng) < 0.5) g = weight(rng);
    }
    expect_kernels_agree(genome, 4);
  }
}

// ---------------------------------------------------------------------------
// Direct engine tests
// ---------------------------------------------------------------------------

struct EngineFixture {
  std::vector<machine::MetricVector> st;
  std::vector<machine::MetricVector> smt;
  std::vector<double> base_time;
  machine::MetricVector app_st;
  machine::MetricVector app_smt;
  core::GaEvalEngine engine;

  explicit EngineFixture(std::size_t n) {
    std::array<double, machine::kMetricCount> scale{};
    std::array<double, machine::kMetricCount> metric_weight{};
    for (std::size_t i = 0; i < machine::kMetricCount; ++i) {
      scale[i] = 0.5 + 0.1 * static_cast<double>(i);
      metric_weight[i] = 1.0 / (1.0 + static_cast<double>(i));
      app_st.values[i] = 0.3 + 0.07 * static_cast<double>(i);
      app_smt.values[i] = 0.4 + 0.05 * static_cast<double>(i);
    }
    for (std::size_t k = 0; k < n; ++k) {
      machine::MetricVector v_st;
      machine::MetricVector v_smt;
      for (std::size_t i = 0; i < machine::kMetricCount; ++i) {
        v_st.values[i] = 0.01 * static_cast<double>(k * 37 + i * 11 + 1);
        v_smt.values[i] = 0.01 * static_cast<double>(k * 53 + i * 7 + 2);
      }
      st.push_back(v_st);
      smt.push_back(v_smt);
      base_time.push_back(10.0 + 3.0 * static_cast<double>(k));
    }
    engine.build(st, smt, base_time, app_st, app_smt, scale, metric_weight,
                 75.0, 2.0);
  }
};

TEST(GaEvalEngine, ExtraZeroPositionsInNzAreBitInvisible) {
  // The contract's zero-weight clause: an nz list padded with zero-weight
  // positions must produce bit-identical fitness to the minimal list.
  const EngineFixture fx(9);
  std::vector<double> genome(9, 0.0);
  genome[1] = 0.8;
  genome[4] = 1.3;
  genome[7] = 0.2;
  const std::vector<std::size_t> minimal = {1, 4, 7};
  std::vector<std::size_t> padded(9);
  for (std::size_t k = 0; k < 9; ++k) padded[k] = k;

  core::GaEvalScratch scratch;
  double d_min = 0.0;
  double r_min = 0.0;
  const double f_min = fx.engine.fitness_sparse(
      genome.data(), minimal.data(), minimal.size(), scratch, &d_min, &r_min);
  double d_pad = 0.0;
  double r_pad = 0.0;
  const double f_pad = fx.engine.fitness_sparse(
      genome.data(), padded.data(), padded.size(), scratch, &d_pad, &r_pad);
  EXPECT_EQ(f_min, f_pad);
  EXPECT_EQ(d_min, d_pad);
  EXPECT_EQ(r_min, r_pad);
}

// ---------------------------------------------------------------------------
// Delta evaluation
// ---------------------------------------------------------------------------

/// Exact fitness of `genome` with its j-th nz term scaled by `factor` and
/// the whole genome renormalised to the fixture's runtime target (75.0) —
/// the quantity `fitness_delta_scale1` screens for.
double exact_rescaled_fitness(const EngineFixture& fx,
                              const std::vector<double>& genome,
                              const std::vector<std::size_t>& nz,
                              std::size_t j, double factor) {
  std::vector<double> cand = genome;
  cand[nz[j]] *= factor;
  double total = 0.0;
  for (const std::size_t k : nz) total += cand[k] * fx.base_time[k];
  const double scale = 75.0 / total;
  for (const std::size_t k : nz) cand[k] *= scale;
  core::GaEvalScratch scratch;
  return fx.engine.fitness_sparse(cand.data(), nz.data(), nz.size(), scratch);
}

TEST(GaDeltaEval, Scale1ScreenTracksExactFitness) {
  const EngineFixture fx(10);
  std::vector<double> genome(10, 0.0);
  genome[0] = 0.7;
  genome[3] = 1.1;
  genome[5] = 0.4;
  genome[8] = 0.9;
  const std::vector<std::size_t> nz = {0, 3, 5, 8};
  core::GaBlendState blend;
  fx.engine.bind_blend(blend, genome.data(), nz.data(), nz.size());
  ASSERT_TRUE(blend.bound());
  EXPECT_EQ(blend.term_count(), nz.size());

  for (std::size_t j = 0; j < nz.size(); ++j) {
    for (const double factor : {0.8, 1.25, 0.95, 1.05}) {
      const double screen = fx.engine.fitness_delta_scale1(blend, j, factor);
      const double exact = exact_rescaled_fitness(fx, genome, nz, j, factor);
      // The polish margin (1e-9 relative) must dominate the screen error,
      // or screened polish could diverge from exact.
      EXPECT_NEAR(screen, exact, 1e-9 * (1.0 + std::abs(exact)))
          << "j=" << j << " factor=" << factor;
    }
  }
}

TEST(GaDeltaEval, CommittedUpdatesStayWithinTheRefreshDriftBound) {
  const EngineFixture fx(10);
  std::vector<double> genome(10, 0.0);
  std::vector<std::size_t> nz = {0, 2, 4, 5, 7, 9};
  for (const std::size_t k : nz) {
    genome[k] = 0.4 + 0.1 * static_cast<double>(k);
  }
  core::GaBlendState blend;
  fx.engine.bind_blend(blend, genome.data(), nz.data(), nz.size());

  std::mt19937_64 rng(0xd21f7);
  std::uniform_int_distribution<std::size_t> pick(0, nz.size() - 1);
  const double factors[4] = {0.8, 1.25, 0.95, 1.05};
  std::uint32_t max_updates_seen = 0;
  for (int iter = 0; iter < 512; ++iter) {
    const std::size_t j = pick(rng);
    const double factor = factors[iter & 3];
    fx.engine.apply_scale1(blend, j, factor);
    genome[nz[j]] *= factor;
    max_updates_seen = std::max(max_updates_seen, blend.updates());
    if (blend.needs_refresh()) {
      fx.engine.bind_blend(blend, genome.data(), nz.data(), nz.size());
    }

    // A factor-1 screen is the blended fitness of the live genome: compare
    // the drifted accumulators against a freshly bound state.
    const double drifted = fx.engine.fitness_delta_scale1(blend, 0, 1.0);
    core::GaBlendState fresh;
    fx.engine.bind_blend(fresh, genome.data(), nz.data(), nz.size());
    const double reference = fx.engine.fitness_delta_scale1(fresh, 0, 1.0);
    ASSERT_NEAR(drifted, reference, 1e-10 * (1.0 + std::abs(reference)))
        << "iter " << iter << " updates " << blend.updates();
  }
  // The refresh policy actually engaged (and never overshot the interval).
  EXPECT_EQ(max_updates_seen, core::GaBlendState::kRefreshInterval);
}

TEST_F(GaEvalBitIdentity, PolishModesAgreeBitwise) {
  std::vector<double> genome(index_.size(), 0.0);
  genome[1] = 0.9;
  genome[3] = 0.5;
  genome[6] = 1.4;
  genome[8] = 0.2;
  std::vector<double> full_genome;
  std::vector<double> screened_genome;
  const double full = prober_->run_polish(
      genome, 4, core::PolishMode::kFullEval, &full_genome);
  const double screened = prober_->run_polish(
      genome, 4, core::PolishMode::kDeltaScreened, &screened_genome);
  EXPECT_EQ(full, screened);
  EXPECT_EQ(full_genome, screened_genome);
}

/// Restores the default pool size when a test ends.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

/// The fixture's search at small settings, recorded with `%a` from runs
/// whose polish made one exact eval per candidate (the full-eval oracle).
/// The screened polish accepts exactly what that oracle accepts, so the
/// production search must reproduce these bits at every thread count.  At
/// 30 generations the GA's winner is already a polish optimum; at 5 the
/// polish accepts tweaks, so that case also pins the screen.
struct RecordedTerm {
  const char* benchmark;
  double weight;
  std::size_t slot;
};
struct RecordedSearch {
  int generations;
  double fitness;
  double metric_distance;
  double runtime_error;
  std::vector<RecordedTerm> terms;
};
const RecordedSearch kOracleSearches[] = {
    {30,
     0x1.885e88e5f3f8ap-5,
     0x1.885e88e5f3f8ap-5,
     0x1.47ae147ae147bp-53,
     {{"bench1", 0x1.a958ca88264bcp-3, 1},
      {"bench2", 0x1.add62270aa928p-3, 2},
      {"bench3", 0x1.ef5b319bd12a8p-2, 3},
      {"bench4", 0x1.460f6f241361fp-4, 4},
      {"bench6", 0x1.d83acefab933cp-5, 6},
      {"bench8", 0x1.133d58d44203dp-4, 8}}},
    {5,
     0x1.885ea3498a1e2p-5,
     0x1.885ea3498a1e2p-5,
     0x1.47ae147ae147bp-53,
     {{"bench0", 0x1.d7f411c2870f4p-4, 0},
      {"bench1", 0x1.71d6c3409d317p-2, 1},
      {"bench2", 0x1.b4b21aa88d168p-3, 2},
      {"bench4", 0x1.3c04b8f1d4ecep-2, 4},
      {"bench5", 0x1.6a528d51308cbp-4, 5},
      {"bench7", 0x1.fb8599e9297edp-6, 7},
      {"bench8", 0x1.c415636883415p-5, 8}}},
};

TEST_F(GaEvalBitIdentity, SearchReproducesRecordedOracleAcrossThreads) {
  ThreadCountGuard guard;
  for (const RecordedSearch& want : kOracleSearches) {
    core::GaOptions options;
    options.population = 32;
    options.generations = want.generations;
    options.restarts = 2;
    for (const int threads : {1, 4}) {
      set_thread_count(threads);
      const core::Surrogate s = core::find_surrogate(
          app_st_, app_smt_, weights_, index_, 100.0, options);
      const std::string label = "generations=" +
                                std::to_string(want.generations) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(s.fitness, want.fitness) << label;
      EXPECT_EQ(s.metric_distance, want.metric_distance) << label;
      EXPECT_EQ(s.runtime_error, want.runtime_error) << label;
      ASSERT_EQ(s.terms.size(), want.terms.size()) << label;
      for (std::size_t i = 0; i < s.terms.size(); ++i) {
        EXPECT_EQ(s.terms[i].benchmark, want.terms[i].benchmark) << label;
        EXPECT_EQ(s.terms[i].weight, want.terms[i].weight) << label;
        EXPECT_EQ(s.terms[i].slot, want.terms[i].slot) << label;
      }
    }
  }
}

}  // namespace
}  // namespace swapp
