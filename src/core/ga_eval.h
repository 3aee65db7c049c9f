// GA evaluation engine: the surrogate search's innermost kernel over a
// pair-interleaved copy of the benchmark signatures.
//
// The GA objective (ga.h) blends benchmark metric vectors by runtime share
// and measures the rank-weighted distance to the application's signature in
// ST and SMT modes.  This engine holds the suite's signatures as one flat
// array in which each metric's ST and SMT values sit side by side, plus the
// application-side vectors and scales in the same order, so the per-metric
// blend and the distance pass run over flat memory with no per-term gather
// through `MetricVector` objects.
//
// `fitness_sparse` evaluates one genome given its nonzero-term index list
// (the `nz` scratch the breeding loop already maintains), touching O(|nz|)
// terms instead of scanning every suite weight.
//
// Bit-identity contract: for every genome with non-negative weights whose
// `nz` list contains at least all strictly-positive positions,
// `fitness_sparse` is bit-identical to the reference three-pass objective
// (`GaKernel::kReference` in ga.h).  The argument, relied on throughout:
//   * every accumulator (runtime-share total, the 16+16 per-metric blends,
//     the distance sum) receives its additions in the same ascending-k /
//     ascending-i order as the reference;
//   * terms the reference skips (`g[k] == 0.0`) contribute exact `+0.0`
//     additions here, which cannot change the bits of a non-negative
//     accumulator;
//   * every arithmetic expression (share, deviation, penalty) is written
//     with the same shape as the reference, so the compiler emits the same
//     roundings;
//   * the kernel processes each (ST, SMT) lane pair as a two-lane vector,
//     and each lane performs exactly the reference's scalar operation
//     sequence on exactly its scalar operands, so IEEE arithmetic makes the
//     lanes bit-identical to the scalar code.
// `GaFitnessProber` (ga.h) and tests/test_ga_eval.cpp verify the contract.
//
// Delta evaluation (the screening fast path): the objective blend is linear
// in the weights, so a genome whose blended metric vector is cached in a
// `GaBlendState` can be re-screened after a one-weight change in O(M) —
// one accumulator update per metric lane — instead of the O(|nz|·M) full
// re-blend.  Screens are *approximate* by design (reciprocal-multiply
// replaces the per-lane divide, the post-rescale runtime penalty ~1e-31 is
// dropped, and the cached blend drifts by one rounding per committed
// update); consumers must confirm any apparently-improving candidate with
// one exact `fitness_sparse` before acting on it.  ga.cpp's polish loop is
// the consumer: screen 4×|nz| candidates per sweep, confirm the survivors
// exactly, accept only on the exact value — which keeps the search's
// results bit-identical to full evaluation while skipping the exact evals
// for the (vast majority of) rejected candidates.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "machine/counters.h"

namespace swapp::core {

/// Caller-owned scratch reused across evaluations (the engine itself is
/// immutable after `build`, so one engine can serve concurrent GA restarts
/// as long as each evaluation thread brings its own scratch).
struct GaEvalScratch {
  /// Per-nonzero-term runtime shares (capacity grows to the suite size).
  std::vector<double> share;
};

/// Cached blend of one genome: the runtime-weighted total Σ wⱼtⱼ and the
/// 2·kMetricCount pair-interleaved blend numerators Σ wⱼtⱼ·mⱼₗ, plus the
/// per-term wⱼtⱼ products the scale-1 entry points perturb.  Bound by
/// `GaEvalEngine::bind_blend`; committed updates accumulate one rounding
/// each, so after `kRefreshInterval` updates `needs_refresh()` asks the
/// owner to re-bind from the live genome (the drift bound
/// tests/test_ga_eval.cpp measures).
class GaBlendState {
 public:
  /// Committed delta updates tolerated before a full re-bind is requested.
  static constexpr std::uint32_t kRefreshInterval = 64;

  bool bound() const noexcept { return bound_; }
  bool needs_refresh() const noexcept { return updates_ >= kRefreshInterval; }
  std::uint32_t updates() const noexcept { return updates_; }
  std::size_t term_count() const noexcept { return slots_.size(); }

 private:
  friend class GaEvalEngine;
  /// Pair-interleaved blend numerators (same lane order as the engine's
  /// `pairs_`): num_[2i] = Σ wⱼtⱼ·st_i, num_[2i+1] = Σ wⱼtⱼ·smt_i.
  std::array<double, 2 * machine::kMetricCount> num_{};
  double total_ = 0.0;               ///< Σ wⱼtⱼ over the bound nz list
  std::vector<double> wt_;           ///< per-nz-term wⱼtⱼ products
  std::vector<std::size_t> slots_;   ///< the bound nz list (ascending)
  std::uint32_t updates_ = 0;
  bool bound_ = false;
};

class GaEvalEngine {
 public:
  GaEvalEngine() = default;

  /// Builds the pair-interleaved arrays from suite-ordered AoS signatures
  /// plus the application-side vectors, scales, and penalty parameters.
  void build(const std::vector<machine::MetricVector>& bench_st,
             const std::vector<machine::MetricVector>& bench_smt,
             const std::vector<double>& base_time,
             const machine::MetricVector& app_st,
             const machine::MetricVector& app_smt,
             const std::array<double, machine::kMetricCount>& scale,
             const std::array<double, machine::kMetricCount>& metric_weight,
             double app_compute, double lambda);

  std::size_t size() const noexcept { return n_; }

  /// Sparse single-genome objective.  `nz`/`nz_count` list the genome's
  /// nonzero positions in ascending order.  Optionally reports the metric
  /// distance and relative runtime error (the two objective components).
  double fitness_sparse(const double* genome, const std::size_t* nz,
                        std::size_t nz_count, GaEvalScratch& scratch,
                        double* distance_out = nullptr,
                        double* runtime_error_out = nullptr) const;

  // --- Delta evaluation (screening) -------------------------------------

  /// Caches `genome`'s blend in `state` (exact O(|nz|·M) build; the nz list
  /// is copied so the state outlives the genome buffer).
  void bind_blend(GaBlendState& state, const double* genome,
                  const std::size_t* nz, std::size_t nz_count) const;

  /// Screened objective after scaling the bound genome's j-th nz term by
  /// `factor` and renormalising globally (the polish move).  O(M): one pass
  /// over the cached numerators.  Approximates the exact post-rescale
  /// fitness to ~1e-12 absolute — callers must confirm with
  /// `fitness_sparse` before accepting.
  double fitness_delta_scale1(const GaBlendState& state, std::size_t j,
                              double factor) const;

  /// Commits the scale-1 change into the cached blend (O(M) accumulator
  /// update, one more rounding of drift; bumps the update counter driving
  /// `needs_refresh()`).
  void apply_scale1(GaBlendState& state, std::size_t j, double factor) const;

 private:
  std::size_t n_ = 0;
  /// ST/SMT pair-interleaved signatures:
  /// `pairs_[k * 2 * kMetricCount + 2 * i]` = metric i of benchmark k in ST
  /// mode, `... + 2 * i + 1` = the same metric in SMT mode.  One two-lane
  /// vector then covers the (st, smt) pair that the objective's distance
  /// pass divides by the same `scale[i]`.
  std::vector<double> pairs_;
  std::vector<double> base_time_;
  /// App-side and scale vectors in the same pair-interleaved order.
  std::array<double, 2 * machine::kMetricCount> app_pair_{};
  std::array<double, 2 * machine::kMetricCount> scale_pair_{};
  /// Delta-kernel precomputes: reciprocal scales and pair-duplicated metric
  /// weights, so the screen is pure mul/add over 2·kMetricCount lanes.
  std::array<double, 2 * machine::kMetricCount> inv_scale_pair_{};
  std::array<double, 2 * machine::kMetricCount> mw_pair_{};
  std::array<double, machine::kMetricCount> metric_weight_{};
  double app_compute_ = 0.0;
  double lambda_ = 0.0;
};

}  // namespace swapp::core
