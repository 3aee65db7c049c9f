#include "core/ga.h"

#include <algorithm>
#include <map>
#include <cmath>
#include <numeric>

#include "core/ga_eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace swapp::core {

Seconds Surrogate::project_runtime(const SpecIndex& index) const {
  Seconds total = 0.0;
  for (const SurrogateTerm& t : terms) {
    SWAPP_ASSERT(t.slot < index.size(), "surrogate term carries no slot");
    total += t.weight * index.target_time[t.slot];
  }
  return total;
}

Seconds Surrogate::base_runtime(const SpecIndex& index) const {
  Seconds total = 0.0;
  for (const SurrogateTerm& t : terms) {
    SWAPP_ASSERT(t.slot < index.size(), "surrogate term carries no slot");
    total += t.weight * index.base_time[t.slot];
  }
  return total;
}

namespace {

using Genome = std::vector<double>;  // one weight per suite benchmark
using NzList = std::vector<std::size_t>;  // sorted nonzero positions

struct Problem {
  std::vector<machine::MetricVector> bench_st;
  std::vector<machine::MetricVector> bench_smt;
  std::vector<double> bench_base_time;
  machine::MetricVector app_st;
  machine::MetricVector app_smt;
  std::array<double, machine::kMetricCount> scale{};
  std::array<double, machine::kMetricCount> metric_weight{};
  double app_compute = 0.0;
  double lambda = 2.0;
  /// Pair-interleaved copy of the arrays above; the production evaluation
  /// path.  Built once per problem by build_problem.
  GaEvalEngine engine;

  std::size_t size() const { return bench_base_time.size(); }

  /// Rescales the genome so Σ w_k T_k(base) = app compute time.  The metric
  /// distance is invariant under global rescaling, so this is always the
  /// optimal scale — the GA only has to search proportions.
  void normalise_scale(Genome& g) const {
    double total = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) {
      total += g[k] * bench_base_time[k];
    }
    if (total <= 0.0) return;
    const double factor = app_compute / total;
    for (double& w : g) w *= factor;
  }

  /// Same rescale driven off the genome's nonzero list.  Bit-identical to
  /// normalise_scale: zero weights contribute exact +0.0 to the total and
  /// are left at +0.0 by the (positive) factor either way.
  void normalise_scale_sparse(Genome& g, const NzList& nz) const {
    double total = 0.0;
    for (const std::size_t k : nz) {
      total += g[k] * bench_base_time[k];
    }
    if (total <= 0.0) return;
    const double factor = app_compute / total;
    for (const std::size_t k : nz) g[k] *= factor;
  }

  // Reference three-pass objective (metric_distance + runtime_error +
  // fitness).  The GA itself runs `engine.fitness_sparse`; this is the
  // oracle GaFitnessProber checks and benchmarks it against.

  double metric_distance(const Genome& g) const {
    // Blend benchmark signatures by their share of the surrogate's runtime
    // (per-instruction rates combine by execution share).
    double share_total = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) {
      share_total += g[k] * bench_base_time[k];
    }
    if (share_total <= 0.0) return 1e18;

    double distance = 0.0;
    for (std::size_t i = 0; i < machine::kMetricCount; ++i) {
      double blend_st = 0.0;
      double blend_smt = 0.0;
      for (std::size_t k = 0; k < g.size(); ++k) {
        if (g[k] == 0.0) continue;
        const double share = g[k] * bench_base_time[k] / share_total;
        blend_st += share * bench_st[k].values[i];
        blend_smt += share * bench_smt[k].values[i];
      }
      const double d_st = (blend_st - app_st.values[i]) / scale[i];
      const double d_smt = (blend_smt - app_smt.values[i]) / scale[i];
      distance += metric_weight[i] * (d_st * d_st + d_smt * d_smt);
    }
    return distance;
  }

  double runtime_error(const Genome& g) const {
    double total = 0.0;
    for (std::size_t k = 0; k < g.size(); ++k) {
      total += g[k] * bench_base_time[k];
    }
    return std::abs(total - app_compute) / app_compute;
  }

  double fitness(const Genome& g) const {
    const double r = runtime_error(g);
    return metric_distance(g) + lambda * r * r;
  }

};

/// Zeroes the smallest positive weights until at most `max_terms` remain,
/// driven off the genome's nonzero list instead of rescanning every suite
/// position per drop.  Drop order matches the original full-scan version:
/// the smallest positive weight goes first, ties broken by lowest index
/// (`<` keeps the first occurrence, and `nz` is sorted ascending).  Dropped
/// positions are erased from `nz` so the list stays exact.
void prune_to(Genome& g, NzList& nz, int max_terms) {
  int positive = 0;
  for (const std::size_t k : nz) positive += (g[k] > 0.0);
  while (positive > max_terms) {
    std::size_t smallest_j = 0;
    double smallest_w = 1e300;
    for (std::size_t j = 0; j < nz.size(); ++j) {
      const double w = g[nz[j]];
      if (w > 0.0 && w < smallest_w) {
        smallest_w = w;
        smallest_j = j;
      }
    }
    g[nz[smallest_j]] = 0.0;
    nz.erase(nz.begin() + static_cast<std::ptrdiff_t>(smallest_j));
    --positive;
  }
}

/// Counters the polish loop reports back to its caller.
struct PolishStats {
  std::uint64_t exact_evals = 0;
  std::uint64_t screens = 0;
};

/// The candidate weight tweaks the polish loop tries on every live term.
constexpr double kPolishFactors[4] = {0.8, 1.25, 0.95, 1.05};

/// One polish candidate's exact fitness: `polished` with weight k scaled by
/// `factor`, rescaled to the application's compute time.
double polish_candidate(const Problem& prob, const Genome& polished,
                        const NzList& polished_nz, std::size_t k,
                        double factor, Genome& candidate,
                        GaEvalScratch& scratch) {
  candidate = polished;
  candidate[k] *= factor;
  prob.normalise_scale_sparse(candidate, polished_nz);
  return prob.engine.fitness_sparse(candidate.data(), polished_nz.data(),
                                    polished_nz.size(), scratch);
}

/// Deterministic local polish: multiplicative one-weight tweaks on
/// `polished` until no candidate improves the objective (and at least
/// `min_sweeps` sweeps have run — the GA passes 0; the benchmark prober
/// pins a sweep count so it can time a fixed number of candidate visits).
///
/// Each candidate is screened through the cached blend in O(M) first and
/// only apparent improvements pay an exact eval (genome copy + rescale +
/// fitness_sparse).  Why this accepts exactly what one exact eval per
/// candidate would (the `PolishMode::kFullEval` oracle in GaFitnessProber):
///   * the screen approximates the exact post-rescale fitness to ~1e-12
///     absolute (reciprocal-multiply rounding, one delta step off the
///     bound blend, and the dropped post-rescale runtime penalty ~1e-31);
///   * the confirm margin 1e-9·(1+|fit|) dwarfs that error, so no
///     candidate the exact path would accept (f + 1e-12 < fit) can be
///     screened out, while spurious survivors die on their exact eval;
///   * acceptance tests only exact values — so the accept sequence, the
///     final genome, and the fitness are identical to the oracle's.
/// Accepted tweaks are committed into the blend via apply_scale1 (one
/// rounding of drift each); every GaBlendState::kRefreshInterval commits
/// the blend is re-bound from the live genome, bounding total drift.  The
/// blend never sees the global rescale the exact path applies — screen
/// values are scale-invariant, so it tracks the unnormalised trajectory.
double polish_genome(const Problem& prob, Genome& polished,
                     const NzList& polished_nz, double polished_fit,
                     int min_sweeps, GaEvalScratch& scratch,
                     PolishStats& stats) {
  if (polished_nz.empty()) return polished_fit;
  Genome candidate(polished.size(), 0.0);
  GaBlendState blend;
  prob.engine.bind_blend(blend, polished.data(), polished_nz.data(),
                         polished_nz.size());
  int sweeps = 0;
  bool improved = true;
  while (improved || sweeps < min_sweeps) {
    improved = false;
    ++sweeps;
    for (std::size_t j = 0; j < polished_nz.size(); ++j) {
      const std::size_t k = polished_nz[j];
      if (polished[k] == 0.0) continue;
      for (const double factor : kPolishFactors) {
        const double screen =
            prob.engine.fitness_delta_scale1(blend, j, factor);
        ++stats.screens;
        const double margin = 1e-9 * (1.0 + std::abs(polished_fit));
        if (!(screen < polished_fit + margin)) continue;
        const double f = polish_candidate(prob, polished, polished_nz, k,
                                          factor, candidate, scratch);
        ++stats.exact_evals;
        if (f + 1e-12 < polished_fit) {
          std::swap(polished, candidate);
          polished_fit = f;
          improved = true;
          prob.engine.apply_scale1(blend, j, factor);
          if (blend.needs_refresh()) {
            prob.engine.bind_blend(blend, polished.data(), polished_nz.data(),
                                   polished_nz.size());
          }
        }
      }
    }
  }
  return polished_fit;
}

/// The suite's arrays from `index`, the application-side fields and the
/// per-metric scales.
Problem build_problem(const machine::PmuCounters& app_st,
                      const machine::PmuCounters& app_smt,
                      const GroupWeights& weights, const SpecIndex& index,
                      Seconds app_base_compute, const GaOptions& options) {
  SWAPP_REQUIRE(app_base_compute > 0.0,
                "application base compute time must be positive");
  Problem prob;
  prob.bench_st = index.bench_st;
  prob.bench_smt = index.bench_smt;
  prob.bench_base_time = index.base_time;
  prob.app_st = machine::MetricVector::from_counters(app_st);
  prob.app_smt = machine::MetricVector::from_counters(app_smt);
  prob.app_compute = app_base_compute;
  prob.lambda = options.runtime_penalty;

  // Per-metric scale: application magnitude, floored by the suite mean, so
  // near-zero application metrics don't explode the distance.
  for (std::size_t i = 0; i < machine::kMetricCount; ++i) {
    double suite_mean = 0.0;
    for (const auto& v : prob.bench_st) suite_mean += v.values[i];
    suite_mean /= static_cast<double>(prob.bench_st.size());
    prob.scale[i] = std::max({std::abs(prob.app_st.values[i]),
                              0.25 * suite_mean, 1e-9});
    prob.metric_weight[i] =
        weights[machine::MetricVector::group_of(i)];
  }

  prob.engine.build(prob.bench_st, prob.bench_smt, prob.bench_base_time,
                    prob.app_st, prob.app_smt, prob.scale, prob.metric_weight,
                    prob.app_compute, prob.lambda);
  return prob;
}

/// One GA run over a pre-built (shared, read-only) Problem.
Surrogate find_surrogate_once(const Problem& prob,
                              const std::vector<std::string>& names,
                              const GaOptions& options) {
  SWAPP_SPAN("ga.restart");
  std::uint64_t evals = 0;  // exact engine evaluations, flushed on exit
  Rng rng(options.seed);
  const std::size_t n = prob.size();

  const auto rebuild_nz = [](const Genome& g, NzList& nz) {
    nz.clear();
    for (std::size_t k = 0; k < g.size(); ++k) {
      if (g[k] > 0.0) nz.push_back(k);
    }
  };

  const auto fill_random_genome = [&](Genome& g, NzList& nz) {
    std::fill(g.begin(), g.end(), 0.0);
    const int terms = static_cast<int>(rng.range(2, 4));
    for (int t = 0; t < terms; ++t) {
      const auto k = static_cast<std::size_t>(rng.below(n));
      g[k] = prob.app_compute /
             (static_cast<double>(terms) * prob.bench_base_time[k]) *
             rng.uniform(0.5, 1.5);
    }
    rebuild_nz(g, nz);
    prob.normalise_scale_sparse(g, nz);
  };

  // Double-buffered population: genomes and their nonzero-index lists are
  // written in place each generation, so the breeding loop performs no
  // allocations after setup (nz lists are capped at n entries).
  const auto pop_size = static_cast<std::size_t>(options.population);
  std::vector<Genome> population(pop_size, Genome(n, 0.0));
  std::vector<Genome> next(pop_size, Genome(n, 0.0));
  std::vector<NzList> population_nz(pop_size);
  std::vector<NzList> next_nz(pop_size);
  for (std::size_t i = 0; i < pop_size; ++i) {
    population_nz[i].reserve(n);
    next_nz[i].reserve(n);
  }
  std::vector<double> fitness(pop_size, 0.0);

  // Scores individuals [first, pop_size) through the engine over reused
  // scratch (bit-identical to the reference objective).  `first` skips
  // individuals whose score is already known — the elites, whose fitness
  // carries over verbatim because the objective is a pure function of
  // (genome, nz) and elites are verbatim copies.
  GaEvalScratch scratch;
  const auto score_population = [&](std::size_t first) {
    for (std::size_t i = first; i < pop_size; ++i) {
      fitness[i] = prob.engine.fitness_sparse(population[i].data(),
                                              population_nz[i].data(),
                                              population_nz[i].size(),
                                              scratch);
    }
    evals += pop_size - first;
  };

  for (std::size_t i = 0; i < pop_size; ++i) {
    fill_random_genome(population[i], population_nz[i]);
  }
  score_population(0);

  const auto tournament = [&]() -> std::size_t {
    std::size_t best = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(options.population)));
    for (int t = 1; t < 3; ++t) {
      const auto c = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(options.population)));
      if (fitness[c] < fitness[best]) best = c;
    }
    return best;
  };

  // Scratch reused across generations and children.
  std::vector<std::size_t> order(pop_size);

  for (int gen = 0; gen < options.generations; ++gen) {
    // Elitism: keep the two best individuals (index tie-break keeps the
    // selection deterministic even under exact fitness ties).
    for (std::size_t i = 0; i < pop_size; ++i) order[i] = i;
    std::partial_sort(order.begin(), order.begin() + 2, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        if (fitness[a] != fitness[b]) {
                          return fitness[a] < fitness[b];
                        }
                        return a < b;
                      });
    next[0] = population[order[0]];
    next[1] = population[order[1]];
    next_nz[0] = population_nz[order[0]];
    next_nz[1] = population_nz[order[1]];
    const double elite_fit0 = fitness[order[0]];
    const double elite_fit1 = fitness[order[1]];

    for (std::size_t filled = 2; filled < pop_size; ++filled) {
      const std::size_t pa = tournament();
      const std::size_t pb = tournament();
      const Genome& a = population[pa];
      const Genome& b = population[pb];
      Genome& child = next[filled];
      NzList& nz = next_nz[filled];
      for (std::size_t k = 0; k < n; ++k) {
        child[k] = rng.chance(0.5) ? a[k] : b[k];
      }
      // The nonzero index list is built once per child and kept current
      // through the mutations below (sorted ascending, exactly what a
      // rebuild would produce) — the evaluation engine then touches only
      // these positions.
      rebuild_nz(child, nz);
      // Mutations: perturb, add, drop.
      if (rng.chance(0.6)) {
        if (!nz.empty()) {
          const std::size_t k = nz[rng.below(nz.size())];
          child[k] *= std::exp(rng.normal(0.0, 0.35));
        }
      }
      if (rng.chance(0.25)) {
        const auto k = static_cast<std::size_t>(rng.below(n));
        if (child[k] == 0.0) {
          child[k] = prob.app_compute / (4.0 * prob.bench_base_time[k]) *
                     rng.uniform(0.2, 1.0);
          nz.insert(std::lower_bound(nz.begin(), nz.end(), k), k);
        }
      }
      if (rng.chance(0.15) && nz.size() > 1) {
        const auto j = static_cast<std::size_t>(rng.below(nz.size()));
        child[nz[j]] = 0.0;
        nz.erase(nz.begin() + static_cast<std::ptrdiff_t>(j));
      }
      prune_to(child, nz, options.max_terms);
      prob.normalise_scale_sparse(child, nz);
    }
    std::swap(population, next);
    std::swap(population_nz, next_nz);
    // Elite scores carry over (verbatim copies of already-scored genomes).
    fitness[0] = elite_fit0;
    fitness[1] = elite_fit1;
    score_population(2);
    double gen_best = 1e300;
    for (std::size_t i = 0; i < pop_size; ++i) {
      gen_best = std::min(gen_best, fitness[i]);
    }
    SWAPP_COUNT("ga.generations", 1);
    // Convergence series: one sample per generation, attributed to this
    // restart's span/thread, so a trace shows every restart's descent.
    SWAPP_TRACE_COUNTER("ga.best_fitness", gen_best);
  }

  std::size_t best = static_cast<std::size_t>(
      std::min_element(fitness.begin(), fitness.end()) - fitness.begin());

  // Deterministic local polish on the winner (polish_genome above): the
  // winner's nonzero structure is invariant under the (positive) tweak and
  // rescale factors, so its nz list serves every candidate.
  Genome polished = population[best];
  const NzList& polished_nz = population_nz[best];
  PolishStats polish_stats;
  const double polished_fit = polish_genome(prob, polished, polished_nz,
                                            fitness[best], 0, scratch,
                                            polish_stats);
  evals += polish_stats.exact_evals;
  const Genome& g = polished;
  SWAPP_COUNT("ga.evals", evals);
  SWAPP_COUNT("ga.screens", polish_stats.screens);
  SWAPP_COUNT("ga.restarts", 1);

  Surrogate out;
  out.fitness = polished_fit;
  prob.engine.fitness_sparse(g.data(), polished_nz.data(), polished_nz.size(),
                             scratch, &out.metric_distance,
                             &out.runtime_error);
  for (const std::size_t k : polished_nz) {
    if (g[k] > 0.0) {
      out.terms.push_back(SurrogateTerm{names[k], g[k], k});
    }
  }
  SWAPP_ASSERT(!out.terms.empty(), "GA produced an empty surrogate");
  return out;
}

/// Restart fan-out + bagging merge over a prebuilt problem.
Surrogate search_and_merge(const Problem& prob,
                           const std::vector<std::string>& names,
                           Seconds app_base_compute,
                           const GaOptions& options) {
  SWAPP_SPAN("ga.search");
  SWAPP_COUNT("ga.searches", 1);
  SWAPP_REQUIRE(options.restarts >= 1, "GA needs at least one restart");

  // Restarts are fully independent (each derives its own seed from the
  // restart index), so they fan out over the thread pool; the bagging merge
  // below walks results in restart order, which keeps the output
  // bit-identical for every thread count.
  std::vector<int> restart_ids(static_cast<std::size_t>(options.restarts));
  std::iota(restart_ids.begin(), restart_ids.end(), 0);
  const std::vector<Surrogate> runs =
      parallel_map(restart_ids, [&](const int r) {
        GaOptions run = options;
        run.seed = options.seed +
                   0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r);
        return find_surrogate_once(prob, names, run);
      });

  double best_fitness = runs.front().fitness;
  for (const Surrogate& s : runs) {
    best_fitness = std::min(best_fitness, s.fitness);
  }
  // Bagging: near-tied restarts (within 25% of the best objective) are
  // averaged.  Distinct surrogates can fit the counter signature equally
  // well yet imply different target runtimes; the ensemble mean is a far
  // more stable estimator than an arbitrary tie-break.  Suite slots ride
  // along so the merged terms keep their index-based fast path.
  struct MergedTerm {
    std::size_t slot = SurrogateTerm::kNoSlot;
    double weight = 0.0;
  };
  std::map<std::string, MergedTerm> merged;
  int contributors = 0;
  for (const Surrogate& s : runs) {
    if (s.fitness > best_fitness * 1.25 + 1e-12) continue;
    for (const SurrogateTerm& t : s.terms) {
      MergedTerm& m = merged[t.benchmark];
      m.slot = t.slot;
      m.weight += t.weight;
    }
    ++contributors;
  }
  SWAPP_ASSERT(contributors > 0, "no GA restart survived the fitness filter");

  Surrogate out;
  out.fitness = best_fitness;
  for (auto& [name, m] : merged) {
    out.terms.push_back(SurrogateTerm{
        name, m.weight / static_cast<double>(contributors), m.slot});
  }
  // Re-anchor the averaged weights to the base compute time (Eq. 2's scale).
  Seconds base_total = 0.0;
  for (const SurrogateTerm& t : out.terms) {
    base_total += t.weight * prob.bench_base_time[t.slot];
  }
  SWAPP_ASSERT(base_total > 0.0, "ensemble surrogate has zero base runtime");
  for (SurrogateTerm& t : out.terms) {
    t.weight *= app_base_compute / base_total;
  }
  // Diagnostics from the best single run.
  for (const Surrogate& s : runs) {
    if (s.fitness == best_fitness) {
      out.metric_distance = s.metric_distance;
      out.runtime_error = s.runtime_error;
      break;
    }
  }
  return out;
}

}  // namespace

Surrogate find_surrogate(const machine::PmuCounters& app_st,
                         const machine::PmuCounters& app_smt,
                         const GroupWeights& weights, const SpecIndex& index,
                         Seconds app_base_compute, const GaOptions& options) {
  const Problem prob = build_problem(app_st, app_smt, weights, index,
                                     app_base_compute, options);
  return search_and_merge(prob, index.names, app_base_compute, options);
}

struct GaFitnessProber::Impl {
  Problem prob;
  // Scratch reused across run() calls (what the GA's generation loop does),
  // so the timed path performs no allocations once warm.
  mutable GaEvalScratch scratch;
};

GaFitnessProber::GaFitnessProber(const machine::PmuCounters& app_st,
                                 const machine::PmuCounters& app_smt,
                                 const GroupWeights& weights,
                                 const SpecIndex& index,
                                 Seconds app_base_compute)
    : impl_(new Impl{build_problem(app_st, app_smt, weights, index,
                                   app_base_compute, GaOptions{}),
                     {}}) {}

GaFitnessProber::~GaFitnessProber() = default;

double GaFitnessProber::run(const std::vector<double>& genome, int iters,
                            GaKernel kernel) const {
  const Problem& prob = impl_->prob;
  SWAPP_REQUIRE(genome.size() == prob.size(),
                "genome size must match the benchmark suite");
  const std::size_t n = genome.size();

  // Nonzero positions of the probe genome; the nudge below preserves the
  // zero/nonzero structure, so the list stays valid for every iteration.
  NzList nz;
  for (std::size_t k = 0; k < n; ++k) {
    if (genome[k] != 0.0) nz.push_back(k);
  }

  Genome g = genome;
  double acc = 0.0;
  for (int it = 0; it < iters; ++it) {
    // Nudges one weight so the evaluation cannot be hoisted out of the loop.
    for (std::size_t k = 0; k < n; ++k) {
      if (g[k] != 0.0) {
        g[k] = genome[k] * (1.0 + 1e-12 * static_cast<double>(it & 7));
        break;
      }
    }
    acc += kernel == GaKernel::kReference
               ? prob.fitness(g)
               : prob.engine.fitness_sparse(g.data(), nz.data(), nz.size(),
                                            impl_->scratch);
  }
  return acc;
}

double GaFitnessProber::run_polish(const std::vector<double>& genome,
                                   int min_sweeps, PolishMode mode,
                                   std::vector<double>* polished_out) const {
  const Problem& prob = impl_->prob;
  SWAPP_REQUIRE(genome.size() == prob.size(),
                "genome size must match the benchmark suite");
  Genome g = genome;
  NzList nz;
  for (std::size_t k = 0; k < g.size(); ++k) {
    if (g[k] > 0.0) nz.push_back(k);
  }
  SWAPP_REQUIRE(!nz.empty(), "polish probe needs a genome with positive terms");
  prob.normalise_scale_sparse(g, nz);
  GaEvalScratch& scratch = impl_->scratch;
  double fit = prob.engine.fitness_sparse(g.data(), nz.data(), nz.size(),
                                          scratch);
  if (mode == PolishMode::kDeltaScreened) {
    PolishStats stats;
    fit = polish_genome(prob, g, nz, fit, min_sweeps, scratch, stats);
  } else {
    // The oracle: polish_genome's candidate walk with one exact eval per
    // candidate and no screen.
    Genome candidate(g.size(), 0.0);
    int sweeps = 0;
    bool improved = true;
    while (improved || sweeps < min_sweeps) {
      improved = false;
      ++sweeps;
      for (const std::size_t k : nz) {
        if (g[k] == 0.0) continue;
        for (const double factor : kPolishFactors) {
          const double f =
              polish_candidate(prob, g, nz, k, factor, candidate, scratch);
          if (f + 1e-12 < fit) {
            std::swap(g, candidate);
            fit = f;
            improved = true;
          }
        }
      }
    }
  }
  if (polished_out != nullptr) *polished_out = g;
  return fit;
}

double GaFitnessProber::run_delta(const std::vector<double>& genome,
                                  int iters) const {
  const Problem& prob = impl_->prob;
  SWAPP_REQUIRE(genome.size() == prob.size(),
                "genome size must match the benchmark suite");
  Genome g = genome;
  NzList nz;
  for (std::size_t k = 0; k < g.size(); ++k) {
    if (g[k] > 0.0) nz.push_back(k);
  }
  SWAPP_REQUIRE(!nz.empty(), "delta probe needs a genome with positive terms");
  prob.normalise_scale_sparse(g, nz);
  GaBlendState blend;
  prob.engine.bind_blend(blend, g.data(), nz.data(), nz.size());
  double acc = 0.0;
  for (int it = 0; it < iters; ++it) {
    const std::size_t j = static_cast<std::size_t>(it) % nz.size();
    acc += prob.engine.fitness_delta_scale1(blend, j, kPolishFactors[it & 3]);
  }
  return acc;
}

}  // namespace swapp::core
