// Tests for the experiment harness (Lab): caching, figure structure, error
// accounting, the information hygiene between projection and truth, warm
// replay from a cache directory, and the span coverage of a cold call.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include "experiments/lab.h"
#include "obs/trace.h"
#include "support/error.h"

namespace swapp::experiments {
namespace {

// One Lab for the whole file: construction is cheap, databases are lazy.
Lab& lab() {
  static Lab* instance = new Lab({Lab::power6_name()});
  return *instance;
}

TEST(Lab, TargetsArePrepared) {
  EXPECT_EQ(lab().target_names().size(), 1u);
  EXPECT_EQ(lab().target(Lab::power6_name()).cores_per_node, 32);
  EXPECT_THROW(lab().target("unknown"), NotFound);
  EXPECT_EQ(lab().base().name, "TAMU Hydra (POWER5+)");
}

TEST(Lab, BaseDataCachedAndConsistent) {
  const core::AppBaseData& a =
      lab().base_data(nas::Benchmark::kLU, nas::ProblemClass::kC);
  const core::AppBaseData& b =
      lab().base_data(nas::Benchmark::kLU, nas::ProblemClass::kC);
  EXPECT_EQ(&a, &b);  // cached, not re-collected
  EXPECT_EQ(a.app, "LU-MZ.C");
  EXPECT_EQ(a.profiled_core_counts(), lu_core_counts());
  // Counters exist at every LU counter count, both SMT modes.
  for (const int c : lu_core_counts()) {
    EXPECT_TRUE(a.counters_st.count(c));
    EXPECT_TRUE(a.counters_smt.count(c));
  }
}

TEST(Lab, ActualRunsCachedPerConfiguration) {
  const ActualRun& a =
      lab().actual(nas::Benchmark::kLU, nas::ProblemClass::kC,
                   Lab::power6_name(), 16);
  const ActualRun& b =
      lab().actual(nas::Benchmark::kLU, nas::ProblemClass::kC,
                   Lab::power6_name(), 16);
  EXPECT_EQ(&a, &b);
  EXPECT_GT(a.wall, 0.0);
  EXPECT_NEAR(a.wall, a.mean_compute + a.mean_comm, a.wall * 1e-6);
}

TEST(Lab, ErrorRowFieldsAreConsistent) {
  const ErrorRow row = lab().error_row(
      nas::Benchmark::kLU, nas::ProblemClass::kC, Lab::power6_name(), 16);
  EXPECT_GE(row.p2p_nb, 0.0);
  EXPECT_GE(row.collectives, 0.0);
  EXPECT_GE(row.combined, 0.0);
  // Magnitude of the signed error equals the unsigned error.
  EXPECT_NEAR(std::abs(row.combined_signed), row.combined, 1e-9);
  // LU has no blocking p2p: the component error defaults to 0.
  EXPECT_DOUBLE_EQ(row.p2p_b, 0.0);
}

TEST(Lab, FigureHasLuShape) {
  const FigureData fig =
      lab().figure(nas::Benchmark::kLU, Lab::power6_name());
  // LU runs only at 16 tasks: one row per class.
  ASSERT_EQ(fig.rows.size(), 2u);
  EXPECT_EQ(fig.rows[0].cores, 16);
  EXPECT_EQ(fig.rows[1].cores, 16);
  EXPECT_EQ(fig.rows[0].cls, nas::ProblemClass::kC);
  EXPECT_EQ(fig.rows[1].cls, nas::ProblemClass::kD);
  const TextTable table = fig.to_table();
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Lab, ProjectionIsDeterministicThroughTheHarness) {
  const core::ProjectionResult a = lab().project(
      nas::Benchmark::kLU, nas::ProblemClass::kC, Lab::power6_name(), 16);
  const core::ProjectionResult b = lab().project(
      nas::Benchmark::kLU, nas::ProblemClass::kC, Lab::power6_name(), 16);
  EXPECT_DOUBLE_EQ(a.total_target(), b.total_target());
}

TEST(Lab, CoreCountGridsMatchThePaper) {
  EXPECT_EQ(bt_sp_core_counts(), (std::vector<int>{16, 32, 64, 128}));
  EXPECT_EQ(lu_core_counts(), (std::vector<int>{4, 8, 16}));
  // Counter counts are a strict subset ending below 128, so projecting at
  // 128 exercises the ACSM extrapolation path.
  for (const int c : bt_sp_counter_counts()) EXPECT_LT(c, 128);
}

TEST(Lab, SpecLibraryCoversNeededOccupancies) {
  const core::SpecLibrary& spec = lab().projector().spec();
  // Base is a 16-core node: occupancies {4, 8, 16} arise from the grids.
  EXPECT_TRUE(spec.base_runtime.count(16));
  EXPECT_TRUE(spec.base_runtime.count(4));
  // Target (32-core nodes): 16 and 32 arise.
  const auto& info = spec.targets.at(Lab::power6_name());
  EXPECT_TRUE(info.runtime.count(16));
  EXPECT_TRUE(info.runtime.count(32));
}

/// A GA shrunk so each search takes milliseconds.
core::ProjectionOptions quick_options() {
  core::ProjectionOptions options;
  options.compute.ga.population = 24;
  options.compute.ga.generations = 40;
  options.compute.ga.restarts = 2;
  return options;
}

TEST(Lab, WarmLabReplaysEverySearchWithIdenticalRows) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("swapp-lab-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::vector<Lab::RowQuery> queries = {
      {nas::Benchmark::kLU, nas::ProblemClass::kC, Lab::power6_name(), 16},
      {nas::Benchmark::kLU, nas::ProblemClass::kC, Lab::power6_name(), 8}};
  const core::ProjectionOptions options = quick_options();

  Lab cold({Lab::power6_name()}, dir);
  const std::vector<ErrorRow> cold_rows = cold.error_rows(queries, options);
  EXPECT_GT(cold.cache().stats().misses, 0u);

  // A second Lab over the same directory computes nothing: the library,
  // both IMB databases, the profile and both searches come from disk.
  Lab warm({Lab::power6_name()}, dir);
  const std::vector<ErrorRow> warm_rows = warm.error_rows(queries, options);
  const service::CacheStats stats = warm.cache().stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.disk_hits, 6u);
  ASSERT_EQ(warm_rows.size(), cold_rows.size());
  for (std::size_t i = 0; i < cold_rows.size(); ++i) {
    EXPECT_EQ(warm_rows[i].cores, cold_rows[i].cores);
    EXPECT_EQ(warm_rows[i].cls, cold_rows[i].cls);
    EXPECT_EQ(warm_rows[i].p2p_nb, cold_rows[i].p2p_nb);
    EXPECT_EQ(warm_rows[i].p2p_b, cold_rows[i].p2p_b);
    EXPECT_EQ(warm_rows[i].collectives, cold_rows[i].collectives);
    EXPECT_EQ(warm_rows[i].overall_comm, cold_rows[i].overall_comm);
    EXPECT_EQ(warm_rows[i].computation, cold_rows[i].computation);
    EXPECT_EQ(warm_rows[i].combined, cold_rows[i].combined);
    EXPECT_EQ(warm_rows[i].combined_signed, cold_rows[i].combined_signed);
  }
  std::filesystem::remove_all(dir);
}

TEST(Lab, ErrorRowsSpansCoverAColdCall) {
  // A cold call does real work (SPEC and IMB collection, profiling, a
  // search, a ground-truth run): all of it sits under named direct
  // children of lab.error_rows.
  Lab cold({Lab::power6_name()});
  obs::drain_trace();
  obs::set_tracing_enabled(true);
  cold.error_rows(
      {{nas::Benchmark::kLU, nas::ProblemClass::kC, Lab::power6_name(), 16}});
  obs::set_tracing_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::drain_trace();

  const obs::TraceEvent* root = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kSpan && e.name == "lab.error_rows") {
      root = &e;
    }
  }
  ASSERT_NE(root, nullptr);
  std::vector<std::pair<double, double>> children;
  std::set<std::string> names;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceEvent::Kind::kSpan || e.parent != root->id) {
      continue;
    }
    names.insert(e.name);
    children.emplace_back(e.start_us, e.start_us + e.dur_us);
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       "planner.plan_batch", "lab.spec_library",
                       "lab.imb_databases", "lab.app_profiles",
                       "lab.searches", "lab.project_rows",
                       "lab.actual_runs"}));
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = root->start_us;
  for (const auto& [lo, hi] : children) {
    if (hi <= reach) continue;
    covered += hi - std::max(lo, reach);
    reach = hi;
  }
  ASSERT_GT(root->dur_us, 0.0);
  EXPECT_GE(covered / root->dur_us, 0.95)
      << "lab.error_rows " << root->dur_us << " us, children cover "
      << covered;
}

}  // namespace
}  // namespace swapp::experiments
