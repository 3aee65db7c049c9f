// Metrics registry: named counters, gauges, and fixed-bucket histograms for
// the hot paths of the projection pipeline (GA generations, pool dispatch,
// cache lookups).
//
// Design constraints, in order:
//   * Exact.  Every record is kept: counters, histogram counts and buckets
//     are integer tallies, so a snapshot reports the true totals (the
//     daemon's always-on metrics included).
//   * Near-zero overhead when disabled.  The SWAPP_COUNT/SWAPP_OBSERVE/...
//     macros cost one relaxed atomic load while metrics are disabled (the
//     default).
//   * Lock-cheap when enabled.  Every thread records into its own shard —
//     a per-thread slot array guarded by a mutex only that thread and the
//     (rare) snapshot reader ever touch — so hot paths never contend.
//   * Deterministic snapshots.  `snapshot()` merges all shards (including
//     those of exited threads) and reports metrics sorted by name.
//
// Metric names are stable dotted strings ("cache.memory_hits",
// "pool.task_us"); histograms use log2 buckets, so they need no per-metric
// configuration and merge trivially.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace swapp::obs {

/// Runtime switch for metric recording.  Off by default: the macros and
/// handle methods below become a single relaxed load.
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// Log2 histogram buckets: bucket i counts observations in [2^(i-1), 2^i)
/// (bucket 0 counts values < 1).  32 buckets cover [0, ~2e9] — microsecond
/// latencies up to half an hour.
inline constexpr std::size_t kHistogramBuckets = 32;

/// Bucket index an observation lands in (values are clamped to the range).
std::size_t histogram_bucket(double value) noexcept;
/// Inclusive upper bound of bucket `i` (for quantile estimates).
double histogram_bucket_bound(std::size_t i) noexcept;

// --- recording handles ------------------------------------------------------
// A handle resolves a name to a registry slot once (first use; thread-safe)
// and records through thread-local shards afterwards.  Handles are cheap to
// copy and safe to keep in function-local statics.

class Counter {
 public:
  explicit Counter(const std::string& name);
  void add(std::uint64_t n) const noexcept;
  void increment() const noexcept { add(1); }

 private:
  std::size_t id_;
};

/// Gauges are last-write-wins process-wide values (pool size, batch size);
/// they skip the shards and write one atomic.
class Gauge {
 public:
  explicit Gauge(const std::string& name);
  void set(double value) const noexcept;

 private:
  std::size_t id_;
};

class Histogram {
 public:
  explicit Histogram(const std::string& name);
  void observe(double value) const noexcept;

 private:
  std::size_t id_;
};

// --- snapshots --------------------------------------------------------------

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
};

struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Quantile estimate with within-bucket linear interpolation: the
  /// q-quantile rank is located in its log2 bucket and placed linearly
  /// between the bucket's bounds, clamped into [min, max]; q in [0, 1].
  /// Exact for q=0 (min) and q=1 (max); within one bucket's span otherwise.
  double quantile(double q) const;
};

/// All registered metrics, shards merged, sorted by name.  Metrics that were
/// registered but never recorded report zero values.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  const CounterValue* counter(const std::string& name) const;
  const GaugeValue* gauge(const std::string& name) const;
  const HistogramValue* histogram(const std::string& name) const;
};

MetricsSnapshot metrics_snapshot();

/// Zeroes every shard and gauge (registrations survive).  Test/CLI hook; not
/// meant to run concurrently with recording threads.
void reset_metrics();

}  // namespace swapp::obs

// --- recording macros -------------------------------------------------------
// The macro forms register on first execution (function-local static) and
// are the idiomatic way to instrument a hot path:
//
//   SWAPP_COUNT("ga.generations", 1);
//   SWAPP_OBSERVE("pool.task_us", elapsed_us);
//   SWAPP_GAUGE_SET("pool.threads", n);

#define SWAPP_COUNT(name, n)                            \
  do {                                                  \
    if (::swapp::obs::metrics_enabled()) [[unlikely]] { \
      static const ::swapp::obs::Counter swapp_c(name); \
      swapp_c.add(n);                                   \
    }                                                   \
  } while (false)

#define SWAPP_GAUGE_SET(name, value)                  \
  do {                                                \
    if (::swapp::obs::metrics_enabled()) [[unlikely]] { \
      static const ::swapp::obs::Gauge swapp_g(name); \
      swapp_g.set(value);                             \
    }                                                 \
  } while (false)

#define SWAPP_OBSERVE(name, value)                        \
  do {                                                    \
    if (::swapp::obs::metrics_enabled()) [[unlikely]] {   \
      static const ::swapp::obs::Histogram swapp_h(name); \
      swapp_h.observe(value);                             \
    }                                                     \
  } while (false)
