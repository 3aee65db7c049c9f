#include "io/persist.h"

#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <utility>

#include "io/record.h"
#include "support/error.h"

namespace swapp::io {
namespace {

constexpr int kImbVersion = 1;
constexpr int kSpecVersion = 1;
constexpr int kAppVersion = 1;
constexpr int kSurrogateVersion = 1;

// --- PmuCounters as a flat field list (order is part of the format) ---------

void write_counters(RecordWriter& w, const machine::PmuCounters& c) {
  w.field(c.instructions)
      .field(c.cycles)
      .field(c.seconds)
      .field(c.cpi_completion)
      .field(c.cpi_stall_fp)
      .field(c.cpi_stall_mem)
      .field(c.cpi_stall_branch)
      .field(c.cpi_stall_other)
      .field(c.fp_per_instr)
      .field(c.fp_vector_fraction)
      .field(c.erat_miss_rate)
      .field(c.slb_miss_rate)
      .field(c.tlb_miss_rate)
      .field(c.data_from_l2_per_instr)
      .field(c.data_from_l3_per_instr)
      .field(c.data_from_local_mem_per_instr)
      .field(c.data_from_remote_mem_per_instr)
      .field(c.memory_bandwidth_gbs);
}

constexpr std::size_t kCounterFieldCount = 18;

machine::PmuCounters read_counters(const Record& r, std::size_t offset) {
  SWAPP_REQUIRE(r.fields.size() >= offset + kCounterFieldCount,
                "truncated counter record");
  machine::PmuCounters c;
  std::size_t i = offset;
  c.instructions = r.num(i++);
  c.cycles = r.num(i++);
  c.seconds = r.num(i++);
  c.cpi_completion = r.num(i++);
  c.cpi_stall_fp = r.num(i++);
  c.cpi_stall_mem = r.num(i++);
  c.cpi_stall_branch = r.num(i++);
  c.cpi_stall_other = r.num(i++);
  c.fp_per_instr = r.num(i++);
  c.fp_vector_fraction = r.num(i++);
  c.erat_miss_rate = r.num(i++);
  c.slb_miss_rate = r.num(i++);
  c.tlb_miss_rate = r.num(i++);
  c.data_from_l2_per_instr = r.num(i++);
  c.data_from_l3_per_instr = r.num(i++);
  c.data_from_local_mem_per_instr = r.num(i++);
  c.data_from_remote_mem_per_instr = r.num(i++);
  c.memory_bandwidth_gbs = r.num(i++);
  return c;
}

void write_table(RecordWriter& w, const std::string& tag,
                 const std::string& name, const CoreSizeTable& table) {
  for (const CoreSizeTable::Sample& s : table.samples()) {
    w.row(tag).field(name).field(s.cores).field(s.bytes).field(s.seconds);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ImbDatabase
// ---------------------------------------------------------------------------

void write_imb_database(std::ostream& os, const imb::ImbDatabase& db) {
  RecordWriter w(os, "imb-database", kImbVersion);
  w.row("machine").field(db.machine_name).field(db.cores_per_node);
  for (const auto& [routine, table] : db.tables) {
    write_table(w, "table", mpi::to_string(routine), table);
  }
  write_table(w, "msr", "far-x1", db.multi_sendrecv_x1);
  write_table(w, "msr", "far-x2", db.multi_sendrecv_x2);
  write_table(w, "msr", "near-x1", db.multi_sendrecv_near_x1);
  write_table(w, "msr", "near-x2", db.multi_sendrecv_near_x2);
}

namespace {

mpi::Routine routine_from_name(const std::string& name) {
  for (const mpi::Routine r :
       {mpi::Routine::kSend, mpi::Routine::kRecv, mpi::Routine::kSendrecv,
        mpi::Routine::kIsend, mpi::Routine::kIrecv, mpi::Routine::kWaitall,
        mpi::Routine::kBarrier, mpi::Routine::kBcast, mpi::Routine::kReduce,
        mpi::Routine::kAllreduce, mpi::Routine::kAllgather,
        mpi::Routine::kAlltoall}) {
    if (mpi::to_string(r) == name) return r;
  }
  throw InvalidArgument("unknown MPI routine in data file: " + name);
}

}  // namespace

imb::ImbDatabase read_imb_database(std::istream& is) {
  RecordReader reader(is, "imb-database", kImbVersion);
  imb::ImbDatabase db;
  Record r;
  while (reader.next(r)) {
    if (r.tag == "machine") {
      db.machine_name = r.str(0);
      db.cores_per_node = static_cast<int>(r.integer(1));
    } else if (r.tag == "table") {
      db.tables[routine_from_name(r.str(0))].insert(
          static_cast<int>(r.integer(1)), r.num(2), r.num(3));
    } else if (r.tag == "msr") {
      const std::string& which = r.str(0);
      CoreSizeTable* table = nullptr;
      if (which == "far-x1") table = &db.multi_sendrecv_x1;
      else if (which == "far-x2") table = &db.multi_sendrecv_x2;
      else if (which == "near-x1") table = &db.multi_sendrecv_near_x1;
      else if (which == "near-x2") table = &db.multi_sendrecv_near_x2;
      else throw InvalidArgument("unknown msr table: " + which);
      table->insert(static_cast<int>(r.integer(1)), r.num(2), r.num(3));
    } else {
      throw InvalidArgument("unknown imb-database record: " + r.tag);
    }
  }
  SWAPP_REQUIRE(!db.machine_name.empty(),
                "imb-database file has no machine record");
  return db;
}

// ---------------------------------------------------------------------------
// SpecLibrary
// ---------------------------------------------------------------------------

void write_spec_library(std::ostream& os, const core::SpecLibrary& lib) {
  RecordWriter w(os, "spec-library", kSpecVersion);
  w.row("base").field(lib.base_machine).field(lib.base_cores_per_node);
  for (const std::string& name : lib.names) w.row("benchmark").field(name);
  for (const auto& [occ, by_name] : lib.base_counters_st) {
    for (const auto& [name, counters] : by_name) {
      write_counters(w.row("counters-st").field(name).field(occ), counters);
    }
  }
  for (const auto& [occ, by_name] : lib.base_counters_smt) {
    for (const auto& [name, counters] : by_name) {
      write_counters(w.row("counters-smt").field(name).field(occ), counters);
    }
  }
  for (const auto& [occ, by_name] : lib.base_runtime) {
    for (const auto& [name, seconds] : by_name) {
      w.row("base-runtime").field(name).field(occ).field(seconds);
    }
  }
  for (const auto& [machine, info] : lib.targets) {
    w.row("target").field(machine).field(info.cores_per_node);
    for (const auto& [occ, by_name] : info.runtime) {
      for (const auto& [name, seconds] : by_name) {
        w.row("target-runtime")
            .field(machine)
            .field(name)
            .field(occ)
            .field(seconds);
      }
    }
  }
}

core::SpecLibrary read_spec_library(std::istream& is) {
  RecordReader reader(is, "spec-library", kSpecVersion);
  core::SpecLibrary lib;
  Record r;
  while (reader.next(r)) {
    if (r.tag == "base") {
      lib.base_machine = r.str(0);
      lib.base_cores_per_node = static_cast<int>(r.integer(1));
    } else if (r.tag == "benchmark") {
      lib.names.push_back(r.str(0));
    } else if (r.tag == "counters-st") {
      lib.base_counters_st[static_cast<int>(r.integer(1))][r.str(0)] =
          read_counters(r, 2);
    } else if (r.tag == "counters-smt") {
      lib.base_counters_smt[static_cast<int>(r.integer(1))][r.str(0)] =
          read_counters(r, 2);
    } else if (r.tag == "base-runtime") {
      lib.base_runtime[static_cast<int>(r.integer(1))][r.str(0)] = r.num(2);
    } else if (r.tag == "target") {
      lib.targets[r.str(0)].cores_per_node = static_cast<int>(r.integer(1));
    } else if (r.tag == "target-runtime") {
      lib.targets[r.str(0)].runtime[static_cast<int>(r.integer(2))]
          [r.str(1)] = r.num(3);
    } else {
      throw InvalidArgument("unknown spec-library record: " + r.tag);
    }
  }
  SWAPP_REQUIRE(!lib.names.empty(), "spec-library file has no benchmarks");
  return lib;
}

// ---------------------------------------------------------------------------
// AppBaseData
// ---------------------------------------------------------------------------

void write_app_data(std::ostream& os, const core::AppBaseData& data) {
  RecordWriter w(os, "app-base-data", kAppVersion);
  w.row("app")
      .field(data.app)
      .field(data.base_machine)
      .field(data.threads_per_rank);
  for (const auto& [cores, counters] : data.counters_st) {
    write_counters(w.row("counters-st").field(cores), counters);
  }
  for (const auto& [cores, counters] : data.counters_smt) {
    write_counters(w.row("counters-smt").field(cores), counters);
  }
  for (const auto& [cores, seconds] : data.mean_compute) {
    w.row("mean-compute").field(cores).field(seconds);
  }
  for (const auto& [cores, profile] : data.mpi_profiles) {
    w.row("profile")
        .field(cores)
        .field(profile.application)
        .field(profile.wall_time);
    for (const mpi::TaskBreakdown& task : profile.per_task) {
      w.row("task").field(cores).field(task.compute).field(task.communication);
    }
    for (const auto& [routine, rp] : profile.routines) {
      // Totals are accumulated per event during profiling, not per bucket;
      // re-summing buckets on load lands on different low-order bits, so the
      // exact totals are part of the format.
      w.row("routine")
          .field(cores)
          .field(mpi::to_string(routine))
          .field(static_cast<std::uint64_t>(rp.total_calls))
          .field(rp.total_elapsed);
      for (const auto& [bytes, bucket] : rp.by_size) {
        w.row("bucket")
            .field(cores)
            .field(mpi::to_string(routine))
            .field(static_cast<std::uint64_t>(bytes))
            .field(static_cast<std::uint64_t>(bucket.calls))
            .field(bucket.elapsed)
            .field(bucket.avg_in_flight)
            .field(bucket.avg_rank_distance);
      }
    }
  }
}

core::AppBaseData read_app_data(std::istream& is) {
  RecordReader reader(is, "app-base-data", kAppVersion);
  core::AppBaseData data;
  // Exact per-routine totals ("routine" rows); files written before those
  // rows existed fall back to the bucket sums accumulated below.
  std::map<std::pair<int, mpi::Routine>, std::pair<std::uint64_t, Seconds>>
      exact_totals;
  Record r;
  while (reader.next(r)) {
    if (r.tag == "app") {
      data.app = r.str(0);
      data.base_machine = r.str(1);
      data.threads_per_rank =
          r.fields.size() > 2 ? static_cast<int>(r.integer(2)) : 1;
    } else if (r.tag == "counters-st") {
      data.counters_st[static_cast<int>(r.integer(0))] = read_counters(r, 1);
    } else if (r.tag == "counters-smt") {
      data.counters_smt[static_cast<int>(r.integer(0))] = read_counters(r, 1);
    } else if (r.tag == "mean-compute") {
      data.mean_compute[static_cast<int>(r.integer(0))] = r.num(1);
    } else if (r.tag == "profile") {
      mpi::MpiProfile& p = data.mpi_profiles[static_cast<int>(r.integer(0))];
      p.ranks = static_cast<int>(r.integer(0));
      p.application = r.str(1);
      p.wall_time = r.num(2);
    } else if (r.tag == "task") {
      mpi::MpiProfile& p = data.mpi_profiles[static_cast<int>(r.integer(0))];
      p.per_task.push_back(
          mpi::TaskBreakdown{.compute = r.num(1), .communication = r.num(2)});
    } else if (r.tag == "routine") {
      exact_totals[{static_cast<int>(r.integer(0)),
                    routine_from_name(r.str(1))}] = {
          static_cast<std::uint64_t>(r.integer(2)), r.num(3)};
    } else if (r.tag == "bucket") {
      mpi::MpiProfile& p = data.mpi_profiles[static_cast<int>(r.integer(0))];
      const mpi::Routine routine = routine_from_name(r.str(1));
      mpi::RoutineProfile& rp = p.routines[routine];
      rp.routine = routine;
      mpi::SizeBucket& b =
          rp.by_size[static_cast<Bytes>(r.integer(2))];
      b.bytes = static_cast<Bytes>(r.integer(2));
      b.calls = static_cast<std::uint64_t>(r.integer(3));
      b.elapsed = r.num(4);
      b.avg_in_flight = r.num(5);
      b.avg_rank_distance = r.num(6);
      rp.total_calls += b.calls;
      rp.total_elapsed += b.elapsed;
    } else {
      throw InvalidArgument("unknown app-base-data record: " + r.tag);
    }
  }
  for (const auto& [key, totals] : exact_totals) {
    const auto profile_it = data.mpi_profiles.find(key.first);
    if (profile_it == data.mpi_profiles.end()) continue;
    const auto routine_it = profile_it->second.routines.find(key.second);
    if (routine_it == profile_it->second.routines.end()) continue;
    routine_it->second.total_calls = totals.first;
    routine_it->second.total_elapsed = totals.second;
  }
  SWAPP_REQUIRE(!data.app.empty(), "app-base-data file has no app record");
  return data;
}

// ---------------------------------------------------------------------------
// ComputeProjection
// ---------------------------------------------------------------------------

void write_compute_projection(std::ostream& os,
                              const core::ComputeProjection& p) {
  RecordWriter w(os, "swapp-surrogate", kSurrogateVersion);
  w.row("anchor")
      .field(p.target_compute)
      .field(p.base_compute)
      .field(p.hyper_scaling_cores)
      .field(p.gamma)
      .field(p.extrapolated_counters ? 1 : 0);
  w.row("fit")
      .field(p.surrogate.fitness)
      .field(p.surrogate.metric_distance)
      .field(p.surrogate.runtime_error);
  for (const core::SurrogateTerm& t : p.surrogate.terms) {
    // kNoSlot is serialised as -1 (slot is a size_t in memory).
    const std::int64_t slot =
        t.slot == core::SurrogateTerm::kNoSlot
            ? -1
            : static_cast<std::int64_t>(t.slot);
    w.row("term").field(t.benchmark).field(t.weight).field(slot);
  }
  auto weights_row = [&w](const std::string& tag,
                          const core::GroupWeights& weights) {
    w.row(tag);
    for (const double v : weights.weight) w.field(v);
  };
  weights_row("base-weights", p.base_weights);
  weights_row("adjusted-weights", p.adjusted_weights);
}

core::ComputeProjection read_compute_projection(std::istream& is) {
  RecordReader reader(is, "swapp-surrogate", kSurrogateVersion);
  core::ComputeProjection p;
  bool have_anchor = false;
  auto read_weights = [](const Record& rec, core::GroupWeights& weights) {
    SWAPP_REQUIRE(rec.fields.size() == machine::kMetricGroupCount,
                  "surrogate weights row has wrong arity");
    for (std::size_t i = 0; i < machine::kMetricGroupCount; ++i) {
      weights.weight[i] = rec.num(i);
    }
  };
  Record r;
  while (reader.next(r)) {
    if (r.tag == "anchor") {
      p.target_compute = r.num(0);
      p.base_compute = r.num(1);
      p.hyper_scaling_cores = r.num(2);
      p.gamma = r.num(3);
      p.extrapolated_counters = r.integer(4) != 0;
      // project_compute writes only finite positive anchors, and a zero
      // base anchor would silently turn compute_scale() into 1.
      const auto valid = [](double v) { return std::isfinite(v) && v > 0.0; };
      SWAPP_REQUIRE(valid(p.target_compute) && valid(p.base_compute),
                    "swapp-surrogate anchor needs positive compute times");
      have_anchor = true;
    } else if (r.tag == "fit") {
      p.surrogate.fitness = r.num(0);
      p.surrogate.metric_distance = r.num(1);
      p.surrogate.runtime_error = r.num(2);
    } else if (r.tag == "term") {
      core::SurrogateTerm t;
      t.benchmark = r.str(0);
      t.weight = r.num(1);
      const std::int64_t slot = r.integer(2);
      t.slot = slot < 0 ? core::SurrogateTerm::kNoSlot
                        : static_cast<std::size_t>(slot);
      p.surrogate.terms.push_back(std::move(t));
    } else if (r.tag == "base-weights") {
      read_weights(r, p.base_weights);
    } else if (r.tag == "adjusted-weights") {
      read_weights(r, p.adjusted_weights);
    } else {
      throw InvalidArgument("unknown swapp-surrogate record: " + r.tag);
    }
  }
  SWAPP_REQUIRE(have_anchor, "swapp-surrogate file has no anchor record");
  return p;
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

namespace {

template <typename WriteFn>
void save_file(const std::filesystem::path& path, WriteFn&& write) {
  std::ofstream os(path);
  if (!os) throw Error("cannot open for writing: " + path.string());
  write(os);
  os.flush();
  if (!os) throw Error("write failed: " + path.string());
}

template <typename ReadFn>
auto load_file(const std::filesystem::path& path, ReadFn&& read) {
  std::ifstream is(path);
  if (!is) throw NotFound("cannot open: " + path.string());
  return read(is);
}

}  // namespace

void save_imb_database(const std::filesystem::path& path,
                       const imb::ImbDatabase& db) {
  save_file(path, [&](std::ostream& os) { write_imb_database(os, db); });
}

imb::ImbDatabase load_imb_database(const std::filesystem::path& path) {
  return load_file(path,
                   [](std::istream& is) { return read_imb_database(is); });
}

void save_spec_library(const std::filesystem::path& path,
                       const core::SpecLibrary& lib) {
  save_file(path, [&](std::ostream& os) { write_spec_library(os, lib); });
}

core::SpecLibrary load_spec_library(const std::filesystem::path& path) {
  return load_file(path,
                   [](std::istream& is) { return read_spec_library(is); });
}

void save_app_data(const std::filesystem::path& path,
                   const core::AppBaseData& data) {
  save_file(path, [&](std::ostream& os) { write_app_data(os, data); });
}

core::AppBaseData load_app_data(const std::filesystem::path& path) {
  return load_file(path, [](std::istream& is) { return read_app_data(is); });
}

void save_compute_projection(const std::filesystem::path& path,
                             const core::ComputeProjection& p) {
  save_file(path,
            [&](std::ostream& os) { write_compute_projection(os, p); });
}

core::ComputeProjection load_compute_projection(
    const std::filesystem::path& path) {
  return load_file(path,
                   [](std::istream& is) { return read_compute_projection(is); });
}

}  // namespace swapp::io
