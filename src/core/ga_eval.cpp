#include "core/ga_eval.h"

#include <cmath>
#include <cstring>

#include "support/error.h"

namespace swapp::core {

void GaEvalEngine::build(
    const std::vector<machine::MetricVector>& bench_st,
    const std::vector<machine::MetricVector>& bench_smt,
    const std::vector<double>& base_time, const machine::MetricVector& app_st,
    const machine::MetricVector& app_smt,
    const std::array<double, machine::kMetricCount>& scale,
    const std::array<double, machine::kMetricCount>& metric_weight,
    double app_compute, double lambda) {
  SWAPP_REQUIRE(!bench_st.empty(), "empty benchmark suite");
  SWAPP_REQUIRE(bench_smt.size() == bench_st.size() &&
                    base_time.size() == bench_st.size(),
                "benchmark array sizes disagree");
  SWAPP_REQUIRE(app_compute > 0.0, "app compute time must be positive");
  n_ = bench_st.size();
  pairs_.assign(n_ * 2 * machine::kMetricCount, 0.0);
  for (std::size_t k = 0; k < n_; ++k) {
    double* row = pairs_.data() + k * 2 * machine::kMetricCount;
    for (std::size_t i = 0; i < machine::kMetricCount; ++i) {
      row[2 * i] = bench_st[k].values[i];
      row[2 * i + 1] = bench_smt[k].values[i];
    }
  }
  base_time_ = base_time;
  for (std::size_t i = 0; i < machine::kMetricCount; ++i) {
    app_pair_[2 * i] = app_st.values[i];
    app_pair_[2 * i + 1] = app_smt.values[i];
    scale_pair_[2 * i] = scale[i];
    scale_pair_[2 * i + 1] = scale[i];
    // Delta-screen precomputes: the screen may trade the per-lane divide
    // for a reciprocal multiply (it is approximate by contract), and the
    // pair-duplicated metric weight turns its reduction into mul/add only.
    inv_scale_pair_[2 * i] = 1.0 / scale[i];
    inv_scale_pair_[2 * i + 1] = 1.0 / scale[i];
    mw_pair_[2 * i] = metric_weight[i];
    mw_pair_[2 * i + 1] = metric_weight[i];
  }
  metric_weight_ = metric_weight;
  app_compute_ = app_compute;
  lambda_ = lambda;
}

namespace {

/// One (ST, SMT) lane pair.  GCC lowers the arithmetic to two-lane vector
/// instructions where the target has them (mulpd/addpd/divpd on x86-64) and
/// to scalar pairs elsewhere; either way each lane is one IEEE operation on
/// its scalar operands, which is what the bit-identity contract needs.
typedef double Pair __attribute__((vector_size(16)));

/// Unaligned load of p[0], p[1] (std::array members are only 8-byte
/// aligned).
inline Pair load_pair(const double* p) {
  Pair v = {};
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline Pair splat(double x) { return Pair{x, x}; }

}  // namespace

/// Exact objective.  Pass 1 totals the runtime shares in ascending-k order;
/// pass 2 materialises the per-term shares; pass 3 blends and measures per
/// metric pair, each accumulator fed in ascending-k order with the
/// reference expression shapes.  The metric loop is blocked by 8 pairs and
/// unrolled so a block's accumulators stay in registers; blocks run in
/// ascending metric order, preserving the distance sum's order.
double GaEvalEngine::fitness_sparse(const double* genome,
                                    const std::size_t* nz,
                                    std::size_t nz_count,
                                    GaEvalScratch& scratch,
                                    double* distance_out,
                                    double* runtime_error_out) const {
  constexpr std::size_t kBlock = 8;
  static_assert(machine::kMetricCount % kBlock == 0,
                "the metric loop is blocked by 8");
  SWAPP_ASSERT(n_ > 0, "GaEvalEngine used before build()");
  if (scratch.share.size() < nz_count) scratch.share.resize(nz_count);
  double* share = scratch.share.data();

  double share_total = 0.0;
  for (std::size_t j = 0; j < nz_count; ++j) {
    share_total += genome[nz[j]] * base_time_[nz[j]];
  }
  const double rerr = std::abs(share_total - app_compute_) / app_compute_;

  double distance;
  if (share_total <= 0.0) {
    distance = 1e18;
  } else {
    for (std::size_t j = 0; j < nz_count; ++j) {
      share[j] = genome[nz[j]] * base_time_[nz[j]] / share_total;
    }
    distance = 0.0;
    for (std::size_t ib = 0; ib < machine::kMetricCount; ib += kBlock) {
      Pair acc[kBlock] = {};
      for (std::size_t j = 0; j < nz_count; ++j) {
        const Pair s = splat(share[j]);
        const double* row =
            pairs_.data() + nz[j] * 2 * machine::kMetricCount + 2 * ib;
#pragma GCC unroll 8
        for (std::size_t u = 0; u < kBlock; ++u) {
          acc[u] += s * load_pair(row + 2 * u);
        }
      }
#pragma GCC unroll 8
      for (std::size_t u = 0; u < kBlock; ++u) {
        const std::size_t i = ib + u;
        const Pair d = (acc[u] - load_pair(&app_pair_[2 * i])) /
                       load_pair(&scale_pair_[2 * i]);
        const Pair sq = d * d;
        distance += metric_weight_[i] * (sq[0] + sq[1]);
      }
    }
  }
  if (distance_out) *distance_out = distance;
  if (runtime_error_out) *runtime_error_out = rerr;
  return distance + lambda_ * rerr * rerr;
}

void GaEvalEngine::bind_blend(GaBlendState& state, const double* genome,
                              const std::size_t* nz,
                              std::size_t nz_count) const {
  SWAPP_ASSERT(n_ > 0, "GaEvalEngine used before build()");
  state.slots_.assign(nz, nz + nz_count);
  state.wt_.resize(nz_count);
  state.num_.fill(0.0);
  double total = 0.0;
  for (std::size_t j = 0; j < nz_count; ++j) {
    const std::size_t k = nz[j];
    SWAPP_ASSERT(k < n_, "nz slot outside the suite");
    const double wt = genome[k] * base_time_[k];
    state.wt_[j] = wt;
    total += wt;
    const double* row = pairs_.data() + k * 2 * machine::kMetricCount;
    for (std::size_t l = 0; l < 2 * machine::kMetricCount; ++l) {
      state.num_[l] += wt * row[l];
    }
  }
  state.total_ = total;
  state.updates_ = 0;
  state.bound_ = true;
}

/// Delta screen: the metric distance of `(num + dwt · row) / total` — the
/// blended metric vector after a one-weight change, whose distance is
/// invariant under the global rescale the exact path performs.  It has no
/// bit-identity contract (it only *rejects* candidates), so a reciprocal
/// multiply replaces the per-lane divide and the post-rescale runtime
/// penalty (λ·rerr² ≈ 1e-31) is dropped.
double GaEvalEngine::fitness_delta_scale1(const GaBlendState& state,
                                          std::size_t j,
                                          double factor) const {
  SWAPP_ASSERT(state.bound_ && j < state.slots_.size(),
               "delta screen on an unbound or out-of-range term");
  const double dwt = (factor - 1.0) * state.wt_[j];
  const double total = state.total_ + dwt;
  if (total <= 0.0) return 1e18;
  const double* row =
      pairs_.data() + state.slots_[j] * 2 * machine::kMetricCount;
  const Pair vinv = splat(1.0 / total);
  const Pair vdwt = splat(dwt);
  Pair acc = {};
  for (std::size_t l = 0; l < 2 * machine::kMetricCount; l += 2) {
    const Pair p = load_pair(&state.num_[l]) + vdwt * load_pair(row + l);
    const Pair d = (p * vinv - load_pair(&app_pair_[l])) *
                   load_pair(&inv_scale_pair_[l]);
    acc += load_pair(&mw_pair_[l]) * (d * d);
  }
  return acc[0] + acc[1];
}

void GaEvalEngine::apply_scale1(GaBlendState& state, std::size_t j,
                                double factor) const {
  SWAPP_ASSERT(state.bound_ && j < state.slots_.size(),
               "delta apply on an unbound or out-of-range term");
  const double dwt = (factor - 1.0) * state.wt_[j];
  const double* row =
      pairs_.data() + state.slots_[j] * 2 * machine::kMetricCount;
  for (std::size_t l = 0; l < 2 * machine::kMetricCount; ++l) {
    state.num_[l] += dwt * row[l];
  }
  state.total_ += dwt;
  state.wt_[j] *= factor;
  ++state.updates_;
}

}  // namespace swapp::core
