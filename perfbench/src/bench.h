// Shared types of the repository benchmark program (see ../README.md).
//
// A workload prepares its inputs from the seed, then runs operations through
// the libraries' public entry points.  The collectors it injects into those
// entry points go through a `Probe`, which counts the work each call into
// `nas`, `imb` and `spec` did and opens a span around it, so a traced run can
// charge every second of an operation to a layer.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/profiles.h"
#include "imb/suite.h"
#include "machine/machine.h"
#include "nas/zones.h"

namespace perfbench {

namespace core = swapp::core;
namespace imb = swapp::imb;
namespace machine = swapp::machine;
namespace nas = swapp::nas;

/// Work counted by the wrapped collectors during one operation.
struct ProbeTotals {
  std::uint64_t nas_runs = 0;
  std::uint64_t mpi_calls = 0;
  double simulated_s = 0.0;  ///< simulated wall time of the NAS runs
  double nas_s = 0.0;        ///< host seconds inside NasApp::run
  std::uint64_t imb_databases = 0;
  std::uint64_t imb_samples = 0;
  double collector_s = 0.0;  ///< host seconds inside any wrapped collector
};

/// The collectors the CLI registers, wrapped with counters and spans.  Safe
/// to call from pool workers.
class Probe {
 public:
  /// Base-machine profile of a NAS app, collected exactly as `swapp batch`
  /// does (ST and SMT run per task count), one timed NasApp::run at a time.
  core::AppBaseData profile_app(nas::Benchmark bench, nas::ProblemClass cls,
                                int threads, const std::vector<int>& counts);
  imb::ImbDatabase measure_imb(const machine::Machine& m);
  core::SpecLibrary collect_spec(
      const machine::Machine& base,
      const std::vector<machine::Machine>& targets,
      const std::vector<int>& task_counts);

  /// Host seconds spent inside collectors since the last `take`.
  double collector_seconds();
  /// Returns the totals since the previous call and zeroes them.
  ProbeTotals take();

 private:
  void add(const ProbeTotals& delta);

  std::mutex mutex_;
  ProbeTotals totals_;
};

/// One checked output row: a stable key and its values rendered exactly
/// (hexadecimal floating point), so comparison is bit for bit.
struct OutputRow {
  std::string key;
  std::string values;
};

/// What one operation (or one set-up) produced.
struct OpOutput {
  std::vector<OutputRow> rows;
  /// Layer metrics only the workload can see (phase times, plan counts,
  /// cache-file sizes), by per-layer metric name.
  std::map<std::string, double> metrics;
  /// Counts that must repeat exactly on every operation.
  std::map<std::string, double> counts;
  /// Problems found by the workload's own checks (e.g. warm != cold).
  std::vector<std::string> problems;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up: everything the timed operations rely on, ending with work
  /// whose output is checked like an operation's.  Repeatable.
  virtual OpOutput setup() = 0;
  /// Untimed per-operation preparation (e.g. emptying a cache directory).
  virtual void before_op() {}
  /// One timed operation.
  virtual OpOutput run_op() = 0;
};

const std::vector<std::string>& workload_names();

/// Throws swapp::InvalidArgument for an unknown name.  `work_dir` is an
/// existing directory the workload may fill; `probe` outlives the workload.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::filesystem::path& work_dir,
                                        Probe& probe);

/// Renders doubles as "%a" separated by spaces.
std::string render(const std::vector<double>& values);
/// "%.17g": every digit of a measured or configured value.
std::string format_number(double value);

}  // namespace perfbench
