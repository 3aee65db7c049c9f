// Integration tests: the full SWAPP pipeline — base profiling, benchmark
// databases, compute + communication projection — on reduced grids so the
// whole file runs in seconds.
#include <gtest/gtest.h>

#include "core/comm_projection.h"
#include "core/projector.h"
#include "experiments/lab.h"
#include "imb/suite.h"
#include "machine/machine.h"
#include "nas/nas_app.h"
#include "spec/suite.h"
#include "support/error.h"
#include "support/stats.h"

namespace swapp {
namespace {

using experiments::collect_base_data;
using experiments::collect_spec_library;
using experiments::run_actual;

/// Shared fixture: one base machine, one target, small grids.
class ProjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new machine::Machine(machine::make_power5_hydra());
    target_ = new machine::Machine(machine::make_power6_575());
    const std::vector<int> counts = {8, 16, 32};
    auto spec = collect_spec_library(*base_, {*target_}, counts);
    const std::vector<Bytes> sizes = {512, 16_KiB, 256_KiB};
    auto base_imb = imb::measure_database(*base_, {8, 16, 32}, sizes);
    auto target_imb = imb::measure_database(*target_, {8, 16, 32}, sizes);
    projector_ = new core::Projector(*base_, spec, base_imb);
    projector_->add_target(target_->name, target_imb);

    const nas::NasApp lu(nas::Benchmark::kLU, nas::ProblemClass::kC);
    lu_data_ = new core::AppBaseData(
        collect_base_data(lu, *base_, {4, 8, 16}, {4, 8, 16}));
  }
  static void TearDownTestSuite() {
    delete projector_;
    delete lu_data_;
    delete base_;
    delete target_;
  }

  static machine::Machine* base_;
  static machine::Machine* target_;
  static core::Projector* projector_;
  static core::AppBaseData* lu_data_;
};

machine::Machine* ProjectionTest::base_ = nullptr;
machine::Machine* ProjectionTest::target_ = nullptr;
core::Projector* ProjectionTest::projector_ = nullptr;
core::AppBaseData* ProjectionTest::lu_data_ = nullptr;

TEST_F(ProjectionTest, BaseDataHasExpectedShape) {
  EXPECT_EQ(lu_data_->app, "LU-MZ.C");
  EXPECT_EQ(lu_data_->profiled_core_counts(), (std::vector<int>{4, 8, 16}));
  EXPECT_EQ(lu_data_->counter_core_counts(), (std::vector<int>{4, 8, 16}));
  // ST and SMT counters differ (the paper's dual-mode characterisation).
  EXPECT_NE(lu_data_->counters_st.at(16).cpi_completion,
            lu_data_->counters_smt.at(16).cpi_completion);
}

TEST_F(ProjectionTest, ProjectionIsFinitePositiveAndDecomposed) {
  const core::ProjectionResult r =
      projector_->project(*lu_data_, target_->name, 16);
  EXPECT_GT(r.compute.target_compute, 0.0);
  EXPECT_GE(r.comm.target_total(), 0.0);
  EXPECT_GT(r.total_target(), 0.0);
  EXPECT_FALSE(r.compute.surrogate.terms.empty());
  // Surrogate anchored to the base compute time (Eq. 2 scale).
  EXPECT_NEAR(r.compute.base_compute, lu_data_->mean_compute.at(16), 1e-9);
}

TEST_F(ProjectionTest, ProjectionWithinPaperLikeError) {
  const core::ProjectionResult r =
      projector_->project(*lu_data_, target_->name, 16);
  const experiments::ActualRun truth =
      run_actual(nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
                 *target_, 16);
  // The paper's worst per-system average is < 15%; grant integration slack.
  EXPECT_LT(percent_error(r.total_target(), truth.wall), 35.0);
}

TEST_F(ProjectionTest, DeterministicEndToEnd) {
  const core::ProjectionResult a =
      projector_->project(*lu_data_, target_->name, 16);
  const core::ProjectionResult b =
      projector_->project(*lu_data_, target_->name, 16);
  EXPECT_DOUBLE_EQ(a.total_target(), b.total_target());
}

TEST_F(ProjectionTest, UnknownTargetThrows) {
  EXPECT_THROW(projector_->project(*lu_data_, "Cray XT5", 16), NotFound);
}

TEST_F(ProjectionTest, WaitModelAblationLowersCommProjection) {
  core::ProjectionOptions with{};
  core::ProjectionOptions without{};
  without.comm.use_wait_model = false;
  const auto a = projector_->project(*lu_data_, target_->name, 16, with);
  const auto b = projector_->project(*lu_data_, target_->name, 16, without);
  EXPECT_LE(b.comm.target_total(), a.comm.target_total());
}

TEST_F(ProjectionTest, CoupledAblationDiffersFromDecoupled) {
  core::ProjectionOptions coupled{};
  coupled.decouple_components = false;
  const auto a = projector_->project(*lu_data_, target_->name, 16);
  const auto b = projector_->project(*lu_data_, target_->name, 16, coupled);
  EXPECT_NE(a.comm.target_total(), b.comm.target_total());
}

TEST_F(ProjectionTest, SpecViewMatchesOccupancies) {
  // At 16 tasks the job fills a base node (16/node).  On P6 (32/node) it
  // fills half a node with one thread per task and a whole node with two;
  // the base occupancy stays capped at its node size.
  const core::SpecLibrary& lib = projector_->spec();
  const auto at = [&](int base_occupancy, int target_occupancy) {
    return core::SpecIndex::build(lib, target_->name, base_occupancy,
                                  target_occupancy);
  };
  const auto expect_occupancies = [&](int threads, int base_occupancy,
                                      int target_occupancy) {
    const core::SpecIndex got = core::SpecIndex::for_demand(
        lib, base_->cores_per_node, target_->name, 16 * threads);
    const core::SpecIndex want = at(base_occupancy, target_occupancy);
    EXPECT_EQ(got.target_machine, target_->name);
    EXPECT_EQ(got.names, want.names);
    EXPECT_EQ(got.base_time, want.base_time) << threads << " thread(s)";
    EXPECT_EQ(got.target_time, want.target_time) << threads << " thread(s)";
  };
  expect_occupancies(1, 16, 16);
  expect_occupancies(2, 16, 32);
  // The library's data differs between these occupancies, so the checks
  // above tell them apart.
  EXPECT_NE(at(8, 16).base_time, at(16, 16).base_time);
  EXPECT_NE(at(16, 16).target_time, at(16, 32).target_time);

  const core::SpecIndex index = core::SpecIndex::for_demand(
      lib, base_->cores_per_node, target_->name, 16);
  EXPECT_EQ(index.size(), spec::suite().size());
  for (const double t : index.target_time) EXPECT_GT(t, 0.0);
  EXPECT_THROW(core::SpecIndex::for_demand(lib, base_->cores_per_node,
                                           "Cray XT5", 16),
               NotFound);
}

TEST_F(ProjectionTest, CommProjectionClassesCoverProfile) {
  const core::ProjectionResult r =
      projector_->project(*lu_data_, target_->name, 16);
  // LU-MZ has nonblocking p2p and collectives, no blocking p2p.
  EXPECT_GT(r.comm.of(mpi::RoutineClass::kPointToPointNonblocking)
                .base_elapsed, 0.0);
  EXPECT_GT(r.comm.of(mpi::RoutineClass::kCollective).base_elapsed, 0.0);
  EXPECT_DOUBLE_EQ(
      r.comm.of(mpi::RoutineClass::kPointToPointBlocking).base_elapsed, 0.0);
}

TEST(CommProjectionUnit, TransfersScaleWithTables) {
  // Synthetic databases: the target's multi-Sendrecv is exactly 2× the
  // base's, so a wait-free profile projects at 2× the base transfer.
  const machine::Machine base = machine::make_power5_hydra();
  imb::ImbDatabase base_db;
  base_db.machine_name = "base";
  base_db.cores_per_node = 16;
  imb::ImbDatabase target_db;
  target_db.machine_name = "target";
  target_db.cores_per_node = 16;
  for (const int c : {8, 16}) {
    for (const double b : {1024.0, 65536.0}) {
      base_db.multi_sendrecv_x1.insert(c, b, 1e-5);
      base_db.multi_sendrecv_x2.insert(c, b, 1.5e-5);
      target_db.multi_sendrecv_x1.insert(c, b, 2e-5);
      target_db.multi_sendrecv_x2.insert(c, b, 3e-5);
    }
  }
  mpi::MpiProfile profile;
  profile.ranks = 16;
  mpi::RoutineProfile& wa = profile.routines[mpi::Routine::kWaitall];
  wa.routine = mpi::Routine::kWaitall;
  wa.total_calls = 1600;
  wa.total_elapsed = 16 * 100 * 1.5e-5;  // exactly the priced transfer
  mpi::SizeBucket& bucket = wa.by_size[4096];
  bucket.bytes = 4096;
  bucket.calls = 1600;  // 100 per rank
  bucket.elapsed = wa.total_elapsed;
  bucket.avg_in_flight = 2.0;
  bucket.avg_rank_distance = 100.0;  // all inter-node
  profile.per_task.assign(16, {});

  const core::CommProjection p = core::project_communication(
      profile, 16, base_db, target_db, 1.0, core::CommProjectionOptions{});
  const auto& nb = p.of(mpi::RoutineClass::kPointToPointNonblocking);
  // Eq. 1: flight = T(x2) − T(x1), lib = T(x1) − flight, so
  // T(x=2) = lib + 2·flight = 1.5e-5 per call on base, 3e-5 on the target.
  EXPECT_NEAR(nb.base_transfer, 100 * 1.5e-5, 1e-9);
  EXPECT_NEAR(nb.target_transfer, 100 * 3e-5, 1e-9);
  EXPECT_NEAR(nb.base_wait, 0.0, 1e-6);
}

}  // namespace
}  // namespace swapp
