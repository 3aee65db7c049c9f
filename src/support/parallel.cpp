#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace swapp {
namespace {

thread_local bool t_in_region = false;

/// Marks the calling thread as inside a parallel region for the guard's
/// lifetime (exception-safe; a caller participating in its own region must
/// be flagged so nested regions degrade to serial instead of deadlocking).
struct RegionGuard {
  RegionGuard() { t_in_region = true; }
  ~RegionGuard() { t_in_region = false; }
};

std::size_t default_thread_count() {
  if (const char* env = std::getenv("SWAPP_THREADS")) {
    return parse_thread_count(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() {
    std::lock_guard<std::mutex> config(config_mutex_);
    stop_workers();
  }

  std::size_t threads() {
    std::lock_guard<std::mutex> config(config_mutex_);
    return configured();
  }

  void set_threads(std::size_t n) {
    SWAPP_REQUIRE(!t_in_region,
                  "set_thread_count must not be called from a parallel region");
    std::lock_guard<std::mutex> config(config_mutex_);
    if (override_ == n) return;
    stop_workers();  // next run() restarts at the new size
    override_ = n;
  }

  /// `chunk` is the claim-run length (0 = auto-size from n and the pool
  /// width; see auto_chunk below).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           std::size_t chunk) {
    if (n == 0) return;
    if (t_in_region) {  // nested region: stay on this thread
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::unique_lock<std::mutex> config(config_mutex_);
    const std::size_t threads = configured();
    if (threads <= 1 || n == 1) {
      config.unlock();
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    ensure_workers(threads - 1);  // the caller is the remaining executor
    SWAPP_GAUGE_SET("pool.threads", static_cast<double>(threads));
    SWAPP_COUNT("pool.jobs", 1);
    {
      std::lock_guard<std::mutex> job(job_mutex_);
      job_fn_ = &fn;
      job_n_ = n;
      job_chunk_ = chunk > 0 ? chunk : auto_chunk(n, threads);
      // Workers adopt the caller's innermost span as their logical parent,
      // so spans opened inside work items stitch into the caller's trace
      // tree; the post timestamp feeds the queue-wait histogram.
      job_parent_span_ = obs::current_span_id();
      job_post_us_ = obs::metrics_enabled() ? obs::trace_now_us() : 0.0;
      next_.store(0, std::memory_order_relaxed);
      abort_.store(false, std::memory_order_relaxed);
      error_ = nullptr;
      active_workers_ = workers_.size();
      ++generation_;
    }
    job_cv_.notify_all();
    {
      RegionGuard in_region;
      work();
    }
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> job(job_mutex_);
      done_cv_.wait(job, [&] { return active_workers_ == 0; });
      error = error_;
      error_ = nullptr;
      job_fn_ = nullptr;
    }
    config.unlock();
    if (error) std::rethrow_exception(error);
  }

 private:
  std::size_t configured() const {
    if (override_ > 0) return override_;
    static const std::size_t kDefault = default_thread_count();
    return kDefault;
  }

  void ensure_workers(std::size_t count) {
    if (workers_.size() == count) return;
    stop_workers();
    // New workers must wait for the *next* job: a worker that started from
    // generation 0 would take the finished previous job for a new one and
    // could count itself done twice, leaving the caller waiting forever.
    std::uint64_t generation = 0;
    {
      std::lock_guard<std::mutex> job(job_mutex_);
      generation = generation_;
    }
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      workers_.emplace_back([this, generation] { worker_main(generation); });
    }
  }

  void stop_workers() {
    if (workers_.empty()) return;
    {
      std::lock_guard<std::mutex> job(job_mutex_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    stop_ = false;
  }

  void worker_main(std::uint64_t seen_generation) {
    RegionGuard in_region;
    while (true) {
      {
        std::unique_lock<std::mutex> job(job_mutex_);
        job_cv_.wait(job, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        if (obs::metrics_enabled() && job_post_us_ > 0.0) {
          SWAPP_OBSERVE("pool.queue_wait_us",
                        obs::trace_now_us() - job_post_us_);
        }
      }
      work();
      {
        std::lock_guard<std::mutex> job(job_mutex_);
        if (--active_workers_ == 0) done_cv_.notify_one();
      }
    }
  }

  /// Claim-run length for an `n`-item job over `threads` executors.  Aims
  /// for ~8 runs per executor so stragglers can still be rebalanced, capped
  /// at 64 so one claim never monopolises a long tail.  Jobs too small to
  /// split (n below 8 × threads) get runs of 1 — the historical per-item
  /// claiming — which covers every coarse call site (GA restarts, figure
  /// rows) where items are few and expensive.
  static std::size_t auto_chunk(std::size_t n, std::size_t threads) {
    const std::size_t chunk = n / (threads * 8);
    return std::clamp<std::size_t>(chunk, 1, 64);
  }

  /// Claims and executes runs of `job_chunk_` consecutive items until the
  /// job is drained or aborted.  Runs on workers and on the calling thread
  /// alike.  One fetch_add claims the half-open index run
  /// [base, base + job_chunk_); the claimer executes the in-range part in
  /// ascending order.  Every index is still executed exactly once, so the
  /// chunk size is invisible to the work items themselves.
  void work() {
    // Worker-side spans attach to the span that dispatched this job (no-op
    // on the caller, whose own span stack already carries it).
    obs::LogicalParentScope trace_parent(job_parent_span_);
    const std::size_t chunk = job_chunk_;
    while (!abort_.load(std::memory_order_relaxed)) {
      const std::size_t base = next_.fetch_add(chunk, std::memory_order_relaxed);
      if (base >= job_n_) break;
      const std::size_t end = std::min(base + chunk, job_n_);
      for (std::size_t i = base; i < end; ++i) {
        if (abort_.load(std::memory_order_relaxed)) return;
        const bool measure = obs::metrics_enabled();
        const double started_us = measure ? obs::trace_now_us() : 0.0;
        try {
          (*job_fn_)(i);
        } catch (...) {
          std::lock_guard<std::mutex> job(job_mutex_);
          if (!error_) error_ = std::current_exception();
          abort_.store(true, std::memory_order_relaxed);
        }
        if (measure) {
          const double task_us = obs::trace_now_us() - started_us;
          SWAPP_COUNT("pool.tasks", 1);
          SWAPP_COUNT("pool.busy_us", static_cast<std::uint64_t>(task_us));
          SWAPP_OBSERVE("pool.task_us", task_us);
        }
      }
    }
  }

  /// Serialises top-level regions and configuration changes.
  std::mutex config_mutex_;
  std::size_t override_ = 0;  ///< 0 = use the env/hardware default
  std::vector<std::thread> workers_;

  /// Guards the current job's bookkeeping; job_cv_ wakes workers for a new
  /// generation, done_cv_ wakes the caller when every worker has drained.
  std::mutex job_mutex_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_chunk_ = 1;  ///< claim-run length for the current job
  std::uint64_t job_parent_span_ = 0;  ///< dispatcher's span (trace stitch)
  double job_post_us_ = 0.0;           ///< job post time (queue-wait metric)
  std::size_t active_workers_ = 0;
  std::exception_ptr error_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> abort_{false};
};

}  // namespace

std::size_t parse_thread_count(const std::string& value) {
  // stol alone is too lenient (leading whitespace, signs, trailing text), so
  // the digits-only check comes first; stol then only guards overflow.
  const bool all_digits =
      !value.empty() &&
      std::all_of(value.begin(), value.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; });
  long v = -1;
  if (all_digits) {
    try {
      v = std::stol(value);
    } catch (const std::exception&) {
      v = -1;  // out of range
    }
  }
  SWAPP_REQUIRE(v >= 1,
                "SWAPP_THREADS must be a positive integer, got '" + value +
                    "'");
  return static_cast<std::size_t>(v);
}

std::size_t thread_count() { return Pool::instance().threads(); }

void set_thread_count(std::size_t n) { Pool::instance().set_threads(n); }

bool in_parallel_region() noexcept { return t_in_region; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  Pool::instance().run(n, fn, 0);
}

void parallel_for_chunked(std::size_t n, std::size_t chunk,
                          const std::function<void(std::size_t)>& fn) {
  Pool::instance().run(n, fn, chunk);
}

}  // namespace swapp
