// Genetic-algorithm surrogate search (paper §2.3 step 5).
//
// A surrogate is a sparse, non-negatively weighted subset of the benchmark
// suite whose combined counter signature reproduces the application's
// signature (Eq. 2: P_app = Σ w_k · P_k).  The GA minimises the
// rank-weighted metric distance between Σ w_k · M_k and the application's
// metric vector — simultaneously in ST and SMT modes, per the paper's
// observation that surrogates should track the application across computing
// conditions — under a base-runtime consistency penalty that pins the scale
// of the weights: Σ w_k · T_k(base) must match the application's compute
// time on the base machine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/profiles.h"
#include "core/ranking.h"
#include "core/spec_index.h"
#include "machine/counters.h"

namespace swapp::core {

/// One selected benchmark with its coefficient w.
struct SurrogateTerm {
  std::string benchmark;
  double weight = 0.0;
  /// Position of `benchmark` in the suite order the search ran over
  /// (SpecIndex slot k); kNoSlot for terms constructed outside the GA.
  /// Eq. 2 resolves runtimes through it.
  std::size_t slot = kNoSlot;

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
};

/// The GA's result: the surrogate and its fit diagnostics.
struct Surrogate {
  std::vector<SurrogateTerm> terms;
  double fitness = 0.0;          ///< final objective value (lower is better)
  double metric_distance = 0.0;  ///< rank-weighted signature distance
  double runtime_error = 0.0;    ///< relative base-runtime mismatch

  /// Σ w_k · runtime of benchmark k on the index's target (Eq. 2 applied).
  /// Terms resolve through their suite slots, so every term must carry one.
  Seconds project_runtime(const SpecIndex& index) const;
  /// Σ w_k · T_k(base).
  Seconds base_runtime(const SpecIndex& index) const;
};

struct GaOptions {
  int population = 96;
  int generations = 240;
  int restarts = 5;  ///< independent GA runs; best result wins
  int max_terms = 6;           ///< sparsity cap on the surrogate
  double runtime_penalty = 2.0;  ///< λ on the consistency term
  std::uint64_t seed = 0x5eed0001;
};

/// Runs the search.  `app_st`/`app_smt` are the application's counters on
/// the base machine in the two SMT modes; `weights` are the (target-adjusted)
/// metric-group weights; `app_base_compute` is the application's per-task
/// compute time on the base machine at the reference task count.  The
/// suite's metric vectors and base runtimes come from `index`.
Surrogate find_surrogate(const machine::PmuCounters& app_st,
                         const machine::PmuCounters& app_smt,
                         const GroupWeights& weights, const SpecIndex& index,
                         Seconds app_base_compute,
                         const GaOptions& options = {});

/// Objective-kernel selector for `GaFitnessProber::run`.  The values are
/// the `BM_GaFitnessKernel` benchmark arguments.
enum class GaKernel {
  /// Three-pass reference (metric_distance + runtime_error + combine), the
  /// oracle the production kernel is checked against.
  kReference = 0,
  /// The production kernel: SoA engine, per-genome sparse evaluation
  /// (ga_eval.h).
  kSoaSparse = 2,
};

/// Polish-loop selector for `GaFitnessProber::run_polish`.
enum class PolishMode {
  /// The GA's polish: screen every one-weight candidate through the O(M)
  /// delta path and confirm apparent improvements with one exact eval
  /// before accepting.
  kDeltaScreened = 0,
  /// Oracle: one exact `fitness_sparse` (plus a genome copy and rescale)
  /// per candidate.  Acceptance is decided on exact values in both modes,
  /// so both return bit-identical results.
  kFullEval = 1,
};

/// Benchmark hook (bench_micro) and bit-identity probe: a prebuilt GA
/// problem whose objective and polish loop can be run through the
/// production path or its oracle.  Building the problem (signature
/// conversion, pair interleaving, scales) happens once in the constructor,
/// so `run` times the kernels themselves.  Not thread-safe: `run` reuses
/// internal scratch across calls.
class GaFitnessProber {
 public:
  GaFitnessProber(const machine::PmuCounters& app_st,
                  const machine::PmuCounters& app_smt,
                  const GroupWeights& weights, const SpecIndex& index,
                  Seconds app_base_compute);
  ~GaFitnessProber();

  /// Evaluates the objective on `genome` (one weight per suite benchmark,
  /// in `index.names` order) `iters` times — each iteration perturbing one
  /// weight by a structure-preserving nudge — and returns the accumulated
  /// value.  Both kernels must return bit-identical accumulations for the
  /// same inputs (tests/test_ga_eval.cpp asserts exactly that).
  double run(const std::vector<double>& genome, int iters,
             GaKernel kernel) const;

  /// Runs the GA's polish loop on `genome` (normalised first) in the given
  /// mode and returns the polished fitness.  The loop keeps sweeping until
  /// it has both converged and completed at least `min_sweeps` sweeps, so
  /// both modes perform the same number of candidate visits — the
  /// BM_GaPolish benchmark's apples-to-apples shape.  The accept sequence
  /// (and therefore the result) is identical across modes.  `polished_out`
  /// (optional) receives the polished genome, so a benchmark can converge
  /// once and then time the steady all-reject regime the GA's winners put
  /// the loop in.
  double run_polish(const std::vector<double>& genome, int min_sweeps,
                    PolishMode mode,
                    std::vector<double>* polished_out = nullptr) const;

  /// Times the raw delta-screen kernel: binds the genome's blend once and
  /// performs `iters` one-weight screens (cycling term and factor),
  /// returning the accumulated screen values.
  double run_delta(const std::vector<double>& genome, int iters) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace swapp::core
