// Tests for the persistence layer: record format and round-tripping of
// benchmark databases and application profiles.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <sstream>

#include "experiments/lab.h"
#include "imb/suite.h"
#include "io/persist.h"
#include "io/record.h"
#include "machine/machine.h"
#include "nas/nas_app.h"
#include "support/error.h"

namespace swapp::io {
namespace {

TEST(Record, QuoteRoundTrip) {
  for (const std::string s :
       {"plain", "with spaces", "quo\"te", "back\\slash", "new\nline", ""}) {
    EXPECT_EQ(unquote(quote(s)), s);
  }
}

TEST(Record, WriterReaderRoundTrip) {
  std::ostringstream os;
  {
    RecordWriter w(os, "demo", 3);
    w.row("alpha").field("IBM POWER6 575").field(42).field(2.5);
    w.row("beta").field(std::uint64_t{18446744073709551615ULL});
  }
  std::istringstream is(os.str());
  RecordReader reader(is, "demo", 3);
  Record r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.tag, "alpha");
  EXPECT_EQ(r.str(0), "IBM POWER6 575");
  EXPECT_EQ(r.integer(1), 42);
  EXPECT_DOUBLE_EQ(r.num(2), 2.5);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.tag, "beta");
  EXPECT_FALSE(reader.next(r));
}

TEST(Record, RejectsWrongKindAndVersion) {
  std::ostringstream os;
  { RecordWriter w(os, "demo", 1); }
  {
    std::istringstream is(os.str());
    EXPECT_THROW(RecordReader(is, "other", 1), InvalidArgument);
  }
  {
    std::istringstream is(os.str());
    EXPECT_THROW(RecordReader(is, "demo", 2), InvalidArgument);
  }
}

TEST(Record, DoubleRoundTripsExactly) {
  std::ostringstream os;
  const double value = 0.1234567890123456789;
  {
    RecordWriter w(os, "demo", 1);
    w.row("x").field(value);
  }
  std::istringstream is(os.str());
  RecordReader reader(is, "demo", 1);
  Record r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.num(0), value);  // bit-exact via max_digits10
}

TEST(Record, NumbersMustConsumeTheWholeField) {
  std::ostringstream os;
  {
    RecordWriter w(os, "demo", 1);
    w.row("x").field(std::numeric_limits<double>::infinity()).field(-3.25);
    w.row("y").field("1.5junk").field("12abc").field("1.5").field("12");
  }
  std::istringstream is(os.str());
  RecordReader reader(is, "demo", 1);
  Record r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.num(0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.num(1), -3.25);
  ASSERT_TRUE(reader.next(r));
  EXPECT_THROW(r.num(0), InvalidArgument);
  EXPECT_THROW(r.integer(1), InvalidArgument);
  EXPECT_THROW(r.integer(2), InvalidArgument);
  EXPECT_EQ(r.num(2), 1.5);
  EXPECT_EQ(r.integer(3), 12);
}

TEST(Persist, ImbDatabaseRoundTrip) {
  const machine::Machine m = machine::make_power5_hydra();
  const imb::ImbDatabase original =
      imb::measure_database(m, {16, 32}, {512, 32_KiB});

  std::stringstream buffer;
  write_imb_database(buffer, original);
  const imb::ImbDatabase restored = read_imb_database(buffer);

  EXPECT_EQ(restored.machine_name, original.machine_name);
  EXPECT_EQ(restored.cores_per_node, original.cores_per_node);
  // Identical lookups everywhere, including interpolated points.
  for (const auto routine :
       {mpi::Routine::kBcast, mpi::Routine::kAllreduce, mpi::Routine::kSend}) {
    for (const int c : {16, 24, 32}) {
      for (const Bytes b : {512u, 4096u, 32768u}) {
        EXPECT_DOUBLE_EQ(restored.lookup(routine, b, c),
                         original.lookup(routine, b, c));
      }
    }
  }
  EXPECT_DOUBLE_EQ(restored.multi_sendrecv_time(4.0, 8192, 24, 0.5),
                   original.multi_sendrecv_time(4.0, 8192, 24, 0.5));
}

TEST(Persist, SpecLibraryRoundTrip) {
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_bluegene_p();
  const core::SpecLibrary original =
      experiments::collect_spec_library(base, {target}, {16});

  std::stringstream buffer;
  write_spec_library(buffer, original);
  const core::SpecLibrary restored = read_spec_library(buffer);

  EXPECT_EQ(restored.names, original.names);
  EXPECT_EQ(restored.base_cores_per_node, original.base_cores_per_node);
  const core::SpecData a = original.view(16, target.name, 4);
  const core::SpecData b = restored.view(16, target.name, 4);
  for (const std::string& name : original.names) {
    EXPECT_DOUBLE_EQ(a.base_runtime.at(name), b.base_runtime.at(name));
    EXPECT_DOUBLE_EQ(a.target_runtime.at(target.name).at(name),
                     b.target_runtime.at(target.name).at(name));
    EXPECT_DOUBLE_EQ(a.base_counters_st.at(name).cpi_stall_mem,
                     b.base_counters_st.at(name).cpi_stall_mem);
  }
}

TEST(Persist, AppDataRoundTripPreservesProjectionInputs) {
  const machine::Machine base = machine::make_power5_hydra();
  const nas::NasApp app(nas::Benchmark::kLU, nas::ProblemClass::kC);
  const core::AppBaseData original =
      experiments::collect_base_data(app, base, {8, 16}, {8, 16});

  std::stringstream buffer;
  write_app_data(buffer, original);
  const core::AppBaseData restored = read_app_data(buffer);

  EXPECT_EQ(restored.app, original.app);
  EXPECT_EQ(restored.profiled_core_counts(), original.profiled_core_counts());
  EXPECT_DOUBLE_EQ(restored.mean_compute.at(16), original.mean_compute.at(16));
  EXPECT_DOUBLE_EQ(restored.counters_st.at(16).cpi_stall_mem,
                   original.counters_st.at(16).cpi_stall_mem);
  // Profile buckets round-trip: same Waitall structure.
  const auto& wa_a =
      original.profile_at(16).routines.at(mpi::Routine::kWaitall);
  const auto& wa_b =
      restored.profile_at(16).routines.at(mpi::Routine::kWaitall);
  EXPECT_EQ(wa_a.total_calls, wa_b.total_calls);
  EXPECT_DOUBLE_EQ(wa_a.total_elapsed, wa_b.total_elapsed);
  EXPECT_EQ(wa_a.by_size.size(), wa_b.by_size.size());
  // Per-task breakdown preserved.
  ASSERT_EQ(restored.profile_at(16).per_task.size(),
            original.profile_at(16).per_task.size());
  EXPECT_DOUBLE_EQ(restored.profile_at(16).per_task[3].compute,
                   original.profile_at(16).per_task[3].compute);
}

TEST(Persist, FileHelpersAndErrors) {
  const auto dir = std::filesystem::temp_directory_path() / "swapp_io_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "db.swapp";

  const machine::Machine m = machine::make_power6_575();
  const imb::ImbDatabase db = imb::measure_database(m, {16}, {4_KiB});
  save_imb_database(path, db);
  const imb::ImbDatabase loaded = load_imb_database(path);
  EXPECT_EQ(loaded.machine_name, db.machine_name);

  EXPECT_THROW(load_imb_database(dir / "missing.swapp"), NotFound);
  // Loading the wrong kind fails cleanly.
  EXPECT_THROW(load_spec_library(path), InvalidArgument);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace swapp::io
