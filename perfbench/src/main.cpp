// perfbench: the repository benchmark program (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected DIR --work-dir DIR [--threads N] [--record]
//
// Sets up the workload kSetups times (each set-up ends with checked work),
// then runs timed operations until `--seconds` have passed.  Every
// operation must produce exactly the rows of DIR/<workload>.txt, bit for
// bit; a missing, extra or differing row, an exception, a count that moves
// between operations, or an operation that outlives kTimeoutS counts as
// failed.  With --trace 0 the
// last stdout line reports the end-to-end metrics; with --trace 1 the run
// alternates untraced and traced operations and reports the per-layer
// metrics of the traced ones.  --record writes the expected outputs and
// counts instead of checking them.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rollup.h"
#include "support/parallel.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Ten times the slowest operation's usual length: long enough never to cut
/// a slow one short, short enough that a hung run still ends within 180 s.
constexpr double kTimeoutS = 60.0;

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"op_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

const std::vector<MetricDef> kPerLayer = {
    {"nas.run_s", "s"},
    {"nas.runs", "count"},
    {"nas.sim_s_per_host_s", "s/s"},
    {"mpi.calls", "count"},
    {"mpi.calls_per_host_s", "1/s"},
    {"imb.measure_s", "s"},
    {"imb.databases", "count"},
    {"imb.samples", "count"},
    {"spec.collect_s", "s"},
    {"core.project_s", "s"},
    {"core.ga_searches", "count"},
    {"core.ga_search_s", "s"},
    {"core.ga_generations", "count"},
    {"core.ga_searches_per_projection", "ratio"},
    {"service.self_s", "s"},
    {"service.phase_s.plan", "s"},
    {"service.phase_s.spec-library", "s"},
    {"service.phase_s.imb-databases", "s"},
    {"service.phase_s.app-profiles", "s"},
    {"service.phase_s.projection", "s"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_misses", "count"},
    {"service.cache_disk_hits", "count"},
    {"service.cache_lock_waits", "count"},
    {"service.cache_overhead_s", "s"},
    {"io.bytes_read", "bytes-computed"},
    {"io.bytes_written", "bytes-computed"},
    {"sweep.self_s", "s"},
    {"sweep.points", "count"},
    {"sweep.imb_databases", "count"},
    {"sweep.naive_imb_databases", "count"},
    {"sweep.searches_run", "count"},
    {"sweep.phase_s.plan", "s"},
    {"sweep.phase_s.spec-libraries", "s"},
    {"sweep.phase_s.imb-databases", "s"},
    {"sweep.phase_s.app-profile", "s"},
    {"sweep.phase_s.projection", "s"},
    {"experiments.self_s", "s"},
    {"experiments.error_rows_s", "s"},
    {"experiments.actual_runs", "count"},
    {"experiments.actual_s", "s"},
    {"experiments.proj_err_mean_pct", "%"},
    {"experiments.proj_err_max_pct", "%"},
    {"support.pool_tasks", "count"},
    {"support.pool_queue_wait_s", "s"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.uncovered_ratio", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  fs::path expected;
  fs::path work_dir;
  std::size_t threads = 1;
  bool record = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      o.record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--expected") {
        o.expected = value;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else if (flag == "--threads") {
        o.threads = std::stoul(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.expected.empty() || o.work_dir.empty()) {
    usage("--expected and --work-dir are required");
  }
  if (o.threads < 1) usage("--threads must be >= 1");
  return o;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

using Table = std::map<std::string, std::string>;

Table read_table(const fs::path& path) {
  Table table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t tab = line.find('\t');
    if (line.empty() || line[0] == '#' || tab == std::string::npos) continue;
    table[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return table;
}

void write_table(const fs::path& path, const std::string& header,
                 const Table& table) {
  std::ofstream out(path);
  out << "# " << header << "\n";
  for (const auto& [key, value] : table) out << key << '\t' << value << "\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Arms a deadline around each operation.  If one passes, `on_timeout` runs
/// on the watchdog thread (holding the lock, so the main thread is still
/// inside the operation) and the process ends: a hung pool cannot be joined.
class Watchdog {
 public:
  explicit Watchdog(std::function<void()> on_timeout)
      : on_timeout_(std::move(on_timeout)), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(double seconds) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
    }
    cv_.notify_one();
  }
  void disarm() {
    const std::lock_guard<std::mutex> lock(mutex_);
    deadline_.reset();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (!deadline_) {
        cv_.wait(lock, [this] { return stop_ || deadline_.has_value(); });
        continue;
      }
      const Clock::time_point deadline = *deadline_;
      cv_.wait_until(lock, deadline);
      if (!stop_ && deadline_ == deadline && Clock::now() >= deadline) {
        on_timeout_();
        std::fflush(stdout);
        std::_Exit(0);
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<Clock::time_point> deadline_;
  bool stop_ = false;
  std::function<void()> on_timeout_;
  std::thread thread_;  // last: runs loop() over the members above
};

/// Everything the final report needs; written by the main thread only
/// while the watchdog is disarmed.
struct RunState {
  std::vector<double> setup_s;
  std::vector<double> op_s;       ///< untraced operations
  std::vector<double> cpu_s;      ///< untraced operations
  std::vector<double> traced_op_s;
  std::map<std::string, std::vector<double>> layer;  ///< traced operations
  std::map<std::string, std::vector<double>> shares;  ///< self time / op
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Clock::time_point op_start;
  double op_cpu_start = 0.0;
  bool in_setup = false;
};

std::map<std::string, double> end_to_end(const RunState& s) {
  return {{"op_s", median(s.op_s)},
          {"cpu_s", median(s.cpu_s)},
          {"setup_s", median(s.setup_s)},
          {"peak_rss_mb", peak_rss_mb()}};
}

std::map<std::string, double> per_layer(const RunState& s) {
  std::map<std::string, double> out;
  for (const MetricDef& m : kPerLayer) {
    const auto it = s.layer.find(m.name);
    out[m.name] = it == s.layer.end() ? 0.0 : median(it->second);
  }
  const double untraced = median(s.op_s);
  out["obs.trace_overhead_ratio"] =
      untraced > 0.0 ? median(s.traced_op_s) / untraced : 0.0;
  return out;
}

void print_result(const Options& o, const RunState& s) {
  const std::map<std::string, double> values =
      o.trace ? per_layer(s) : end_to_end(s);
  const std::vector<MetricDef>& defs = o.trace ? kPerLayer : kEndToEnd;
  std::ostringstream json;
  json << "{\"correct\": " << (s.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << s.attempted << ", \"failed\": " << s.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = values.at(defs[i].name);
    std::cout << "metric " << defs[i].name << " = " << format_number(v) << " "
              << defs[i].unit << "\n";
    json << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
         << format_number(v) << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  json << "}}";
  std::cout << "failed_ratio = "
            << format_number(s.attempted ? static_cast<double>(s.failed) /
                                               static_cast<double>(s.attempted)
                                         : 0.0)
            << " (" << s.failed << "/" << s.attempted << ")\n";
  std::cout << json.str() << std::endl;
}

/// The op_s tail the choosing-metrics rule allows: the highest of p50/p90/
/// p99 with at least ten samples beyond it.
std::string tail_report(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {0.99, 0.90, 0.50}) {
    if (n * (1.0 - p) >= 10.0) {
      const std::size_t rank = static_cast<std::size_t>(p * n);
      return "p" + std::to_string(static_cast<int>(p * 100)) + " " +
             format_number(v[std::min(rank, v.size() - 1)]) + " s";
    }
  }
  return "no percentile has ten samples beyond it";
}

double counter(const swapp::obs::MetricsSnapshot& snap, const char* name) {
  const swapp::obs::CounterValue* c = snap.counter(name);
  return c ? static_cast<double>(c->value) : 0.0;
}

/// Program obs counters and the per-layer count each one measures.  A
/// workload whose entry point reports a count itself (BatchReport,
/// SweepReport) puts it in OpOutput::counts; the obs counter fills in only
/// where it does not.
const std::vector<std::pair<const char*, const char*>> kObsCounts = {
    {"ga.searches", "core.ga_searches"},
    {"ga.generations", "core.ga_generations"},
    {"cache.memory_hits", "service.cache_memory_hits"},
    {"cache.disk_hits", "service.cache_disk_hits"},
    {"cache.misses", "service.cache_misses"},
    {"cache.lock_waits", "service.cache_lock_waits"},
};

/// Counts that must repeat exactly, one source each: the probe's, the
/// workload's own (which take precedence), and on traced operations the obs
/// counters nothing else reports.
std::map<std::string, double> exact_counts(
    const OpOutput& out, const ProbeTotals& probe,
    const swapp::obs::MetricsSnapshot* snap) {
  std::map<std::string, double> c = {
      {"nas.runs", static_cast<double>(probe.nas_runs)},
      {"mpi.calls", static_cast<double>(probe.mpi_calls)},
      {"imb.databases", static_cast<double>(probe.imb_databases)},
      {"imb.samples", static_cast<double>(probe.imb_samples)},
      {"rows", static_cast<double>(out.rows.size())}};
  for (const auto& [name, value] : out.counts) c[name] = value;
  if (snap != nullptr) {
    for (const auto& [obs_name, name] : kObsCounts) {
      c.emplace(name, counter(*snap, obs_name));
    }
  }
  return c;
}

/// Per-layer metrics of one traced operation; `counts` is its exact_counts.
std::map<std::string, double> layer_metrics(
    const OpOutput& out, const std::map<std::string, double>& counts,
    const ProbeTotals& probe, const swapp::obs::MetricsSnapshot& snap,
    const Rollup& r) {
  const auto get = [](const std::map<std::string, double>& m,
                      const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> v;
  for (const MetricDef& m : kPerLayer) {
    v[m.name] = out.metrics.count(m.name) ? out.metrics.at(m.name)
                                          : get(counts, m.name);
  }
  v["nas.run_s"] = get(r.self_s, "nas");
  if (probe.nas_s > 0.0) {
    v["nas.sim_s_per_host_s"] = probe.simulated_s / probe.nas_s;
    v["mpi.calls_per_host_s"] =
        static_cast<double>(probe.mpi_calls) / probe.nas_s;
  }
  v["imb.measure_s"] = get(r.self_s, "imb");
  if (probe.imb_databases == 0) {
    // Lab measures its databases itself; the cache still times each one.
    const swapp::obs::HistogramValue* computed =
        snap.histogram("cache.recompute_cost_us.imb");
    v["imb.databases"] = computed ? static_cast<double>(computed->count) : 0.0;
  }
  v["spec.collect_s"] = get(r.self_s, "spec");
  v["core.project_s"] = get(r.self_s, "core");
  v["core.ga_search_s"] = get(r.total_s, "ga.search");
  v["core.ga_searches_per_projection"] =
      out.rows.empty() ? 0.0
                       : v["core.ga_searches"] /
                             static_cast<double>(out.rows.size());
  v["service.self_s"] = get(r.self_s, "service");
  const double hits = get(counts, "service.cache_memory_hits") +
                      get(counts, "service.cache_disk_hits");
  const double misses = get(counts, "service.cache_misses");
  v["service.cache_hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  v["sweep.self_s"] = get(r.self_s, "sweep");
  v["experiments.self_s"] = get(r.self_s, "experiments");
  v["experiments.error_rows_s"] =
      get(r.total_s, "experiments.error_rows_call");
  v["experiments.actual_runs"] = get(r.count, "lab.actual_run");
  v["experiments.actual_s"] = get(r.total_s, "lab.actual_run");
  v["support.pool_tasks"] = counter(snap, "pool.tasks");
  const swapp::obs::HistogramValue* wait =
      snap.histogram("pool.queue_wait_us");
  v["support.pool_queue_wait_s"] = wait ? wait->sum * 1e-6 : 0.0;
  v["obs.uncovered_ratio"] = r.root_s > 0.0 ? r.uncovered_s / r.root_s : 0.0;
  return v;
}

std::vector<std::string> compare_counts(
    const std::map<std::string, double>& want,
    const std::map<std::string, double>& got) {
  std::vector<std::string> moved;
  for (const auto& [name, value] : got) {
    const auto it = want.find(name);
    if (it != want.end() && it->second != value) {
      moved.push_back(name + " " + format_number(it->second) + " -> " +
                      format_number(value));
    }
  }
  return moved;
}

int run(const Options& o) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  swapp::set_thread_count(std::min(o.threads, hw));  // once, before any work

  fs::create_directories(o.work_dir);
  Probe probe;
  std::unique_ptr<Workload> workload =
      make_workload(o.workload, o.seed, o.work_dir, probe);
  const fs::path table_path = o.expected / (o.workload + ".txt");
  const fs::path counts_path = o.expected / (o.workload + ".counts");
  const Table expected = o.record ? Table{} : read_table(table_path);
  if (!o.record && expected.empty()) {
    std::cerr << "perfbench: no expected outputs in " << table_path << "\n";
    return 2;
  }
  const Table recorded_counts = read_table(counts_path);
  Table recorded_rows;
  Table observed_counts;

  RunState state;
  Watchdog watchdog([&] {
    // Still inside the operation that hung: count it and report.
    state.attempted += 1;
    state.failed += 1;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - state.op_start).count();
    if (state.in_setup) {
      state.setup_s.push_back(elapsed);
    } else {
      state.op_s.push_back(elapsed);
      state.cpu_s.push_back(cpu_seconds() - state.op_cpu_start);
    }
    std::cerr << "perfbench: operation timed out after " << elapsed << " s\n";
    print_result(o, state);
  });

  const auto check_rows = [&](const OpOutput& out) {
    std::vector<std::string> problems = out.problems;
    std::set<std::string> produced;
    for (const OutputRow& row : out.rows) {
      if (!produced.insert(row.key).second) {
        problems.push_back("row produced twice: " + row.key);
      }
      if (o.record) {
        const auto [it, inserted] = recorded_rows.emplace(row.key, row.values);
        if (!inserted && it->second != row.values) {
          problems.push_back("row changed within the run: " + row.key);
        }
        continue;
      }
      const auto it = expected.find(row.key);
      if (it == expected.end()) {
        problems.push_back("no expected output for " + row.key);
      } else if (it->second != row.values) {
        problems.push_back("output differs for " + row.key + ": got " +
                           row.values + ", expected " + it->second);
      }
    }
    if (out.rows.empty()) problems.push_back("operation produced no output");
    if (!o.record) {
      for (const auto& [key, values] : expected) {
        if (produced.count(key) == 0) problems.push_back("missing row " + key);
      }
    }
    return problems;
  };

  /// One checked unit of work (a set-up or an operation) under the watchdog.
  struct Attempt {
    OpOutput out;
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<std::string> problems;
  };
  const auto attempt = [&](const std::function<OpOutput()>& work) {
    Attempt a;
    std::string error;
    state.op_cpu_start = cpu_seconds();
    state.op_start = Clock::now();
    watchdog.arm(kTimeoutS);
    try {
      const swapp::obs::Span root("bench.op");
      a.out = work();
    } catch (const std::exception& e) {
      error = e.what();
    }
    a.wall =
        std::chrono::duration<double>(Clock::now() - state.op_start).count();
    a.cpu = cpu_seconds() - state.op_cpu_start;
    watchdog.disarm();
    if (error.empty()) {
      a.problems = check_rows(a.out);
    } else {
      a.problems.push_back("exception: " + error);
    }
    return a;
  };
  const auto count_attempt = [&](const Attempt& a, const std::string& what) {
    std::cerr << what << ": wall " << a.wall << " s, cpu " << a.cpu << " s\n";
    state.attempted += 1;
    if (!a.problems.empty()) state.failed += 1;
    for (const std::string& p : a.problems) {
      std::cerr << what << ": " << p << "\n";
    }
  };

  // --- set-up ----------------------------------------------------------------
  state.in_setup = true;
  for (int i = 0; i < kSetups; ++i) {
    const Attempt a = attempt([&] { return workload->setup(); });
    probe.take();
    state.setup_s.push_back(a.wall);
    count_attempt(a, "set-up " + std::to_string(i));
  }
  state.in_setup = false;

  // --- timed operations ------------------------------------------------------
  std::map<bool, std::map<std::string, double>> first_counts;
  std::vector<swapp::obs::TraceEvent> trace;
  const Clock::time_point measure_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - measure_start).count();
    const bool both_kinds = !o.trace || !state.traced_op_s.empty();
    if (elapsed >= o.seconds && !state.op_s.empty() && both_kinds) break;
    const bool traced = o.trace && i % 2 == 1;

    workload->before_op();
    if (traced) {
      swapp::obs::reset_metrics();
      swapp::obs::drain_trace();
      swapp::obs::set_metrics_enabled(true);
      swapp::obs::set_tracing_enabled(true);
    }
    Attempt a = attempt([&] { return workload->run_op(); });
    std::optional<swapp::obs::MetricsSnapshot> snap;
    std::vector<swapp::obs::TraceEvent> events;
    if (traced) {
      swapp::obs::set_tracing_enabled(false);
      swapp::obs::set_metrics_enabled(false);
      events = swapp::obs::drain_trace();
      snap = swapp::obs::metrics_snapshot();
    }
    const ProbeTotals totals = probe.take();

    const std::map<std::string, double> counts =
        exact_counts(a.out, totals, snap ? &*snap : nullptr);
    if (a.problems.empty()) {
      const auto [it, first] = first_counts.emplace(traced, counts);
      if (!first) {
        for (const std::string& m : compare_counts(it->second, counts)) {
          a.problems.push_back("count moved between operations: " + m);
        }
      }
      for (const auto& [name, value] : counts) {
        observed_counts[name] = format_number(value);
      }
    }
    count_attempt(a, std::string(traced ? "traced " : "") + "operation " +
                         std::to_string(i));
    if (traced) {
      state.traced_op_s.push_back(a.wall);
      const Rollup r = rollup(events);
      for (const std::string& name : r.unknown) {
        std::cerr << "perfbench: span with no layer: " << name << "\n";
      }
      for (const auto& [name, value] : layer_metrics(a.out, counts, totals, *snap, r)) {
        state.layer[name].push_back(value);
      }
      for (const std::string& layer : layer_names()) {
        const auto it = r.self_s.find(layer);
        state.shares[layer].push_back(
            it == r.self_s.end() || r.root_s <= 0.0 ? 0.0
                                                    : it->second / r.root_s);
      }
      trace.insert(trace.end(), events.begin(), events.end());
    } else {
      state.op_s.push_back(a.wall);
      state.cpu_s.push_back(a.cpu);
    }
  }

  // --- report ----------------------------------------------------------------
  if (o.record) {
    write_table(table_path,
                o.workload + ": key<TAB>values (%a), written by --record",
                recorded_rows);
    if (o.trace) {
      write_table(counts_path,
                  o.workload + ": counts per operation, written by --record",
                  observed_counts);
    }
  } else {
    for (const auto& [name, value] : observed_counts) {
      const auto it = recorded_counts.find(name);
      if (it != recorded_counts.end() && it->second != value) {
        std::cout << "flag: count " << name << " moved from recorded "
                  << it->second << " to " << value << "\n";
      }
    }
  }
  if (!trace.empty()) {
    swapp::obs::write_trace_file(
        o.work_dir / ("trace-" + o.workload + ".jsonl"), trace);
  }
  std::cout << "workload " << o.workload << " seed " << o.seed << " threads "
            << swapp::thread_count() << " setups " << state.setup_s.size()
            << " ops " << state.op_s.size() << " traced "
            << state.traced_op_s.size() << "\n";
  std::cout << "op_s median " << format_number(median(state.op_s))
            << " s over " << state.op_s.size() << " samples; tail: "
            << tail_report(state.op_s) << "\n";
  if (o.trace) {
    std::cout << "layer shares of traced op_s:";
    for (const std::string& layer : layer_names()) {
      std::cout << " " << layer << " "
                << format_number(median(state.shares[layer]));
    }
    std::cout << "\n";
  }
  print_result(o, state);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
