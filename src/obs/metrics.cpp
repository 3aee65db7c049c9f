#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <memory>
#include <mutex>

#include "support/error.h"

namespace swapp::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

/// Per-histogram accumulator inside a shard.
struct HistSlot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// One thread's private metric storage.  Only the owning thread records;
/// the snapshot/reset reader takes the same mutex briefly, so the lock is
/// uncontended on the hot path.
struct Shard {
  std::mutex mutex;
  std::vector<std::uint64_t> counters;
  std::vector<HistSlot> histograms;
};

class Registry {
 public:
  /// Leaky singleton: shards outlive any recording thread and macro-static
  /// handles may fire during static destruction.
  static Registry& instance() {
    static Registry* r = new Registry;
    return *r;
  }

  std::size_t register_counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return register_in(counter_names_, counter_ids_, name);
  }

  std::size_t register_gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t id = register_in(gauge_names_, gauge_ids_, name);
    gauges_.resize(gauge_names_.size(), 0.0);
    return id;
  }

  std::size_t register_histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return register_in(histogram_names_, histogram_ids_, name);
  }

  void set_gauge(std::size_t id, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[id] = value;
  }

  /// The calling thread's shard, created and registered on first use.
  Shard& local_shard() {
    thread_local std::shared_ptr<Shard> shard = [this] {
      auto s = std::make_shared<Shard>();
      std::lock_guard<std::mutex> lock(mutex_);
      shards_.push_back(s);
      return s;
    }();
    return *shard;
  }

  MetricsSnapshot snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot out;
    std::vector<std::uint64_t> counter_totals(counter_names_.size(), 0);
    std::vector<HistSlot> hist_totals(histogram_names_.size());
    for (const std::shared_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mutex);
      for (std::size_t i = 0; i < shard->counters.size(); ++i) {
        counter_totals[i] += shard->counters[i];
      }
      for (std::size_t i = 0; i < shard->histograms.size(); ++i) {
        const HistSlot& slot = shard->histograms[i];
        if (slot.count == 0) continue;
        HistSlot& h = hist_totals[i];
        if (h.count == 0) {
          h.min = slot.min;
          h.max = slot.max;
        } else {
          h.min = std::min(h.min, slot.min);
          h.max = std::max(h.max, slot.max);
        }
        h.count += slot.count;
        h.sum += slot.sum;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          h.buckets[b] += slot.buckets[b];
        }
      }
    }
    out.counters.resize(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      out.counters[i].name = counter_names_[i];
      out.counters[i].value = counter_totals[i];
    }
    out.gauges.resize(gauge_names_.size());
    for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
      out.gauges[i] = GaugeValue{gauge_names_[i], gauges_[i]};
    }
    out.histograms.resize(histogram_names_.size());
    for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
      HistogramValue& h = out.histograms[i];
      h.name = histogram_names_[i];
      const HistSlot& total = hist_totals[i];
      h.count = total.count;
      h.sum = total.sum;
      h.min = total.min;
      h.max = total.max;
      h.buckets = total.buckets;
    }
    sort_by_name(out.counters);
    sort_by_name(out.gauges);
    sort_by_name(out.histograms);
    return out;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (double& g : gauges_) g = 0.0;
    for (const std::shared_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mutex);
      std::fill(shard->counters.begin(), shard->counters.end(), 0);
      std::fill(shard->histograms.begin(), shard->histograms.end(),
                HistSlot{});
    }
  }

 private:
  static std::size_t register_in(std::vector<std::string>& names,
                                 std::map<std::string, std::size_t>& ids,
                                 const std::string& name) {
    SWAPP_REQUIRE(!name.empty(), "metric name must not be empty");
    const auto [it, inserted] = ids.emplace(name, names.size());
    if (inserted) names.push_back(name);
    return it->second;
  }

  template <typename T>
  static void sort_by_name(std::vector<T>& values) {
    std::sort(values.begin(), values.end(),
              [](const T& a, const T& b) { return a.name < b.name; });
  }

  std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::map<std::string, std::size_t> counter_ids_;
  std::vector<std::string> gauge_names_;
  std::map<std::string, std::size_t> gauge_ids_;
  std::vector<double> gauges_;
  std::vector<std::string> histogram_names_;
  std::map<std::string, std::size_t> histogram_ids_;
  std::vector<std::shared_ptr<Shard>> shards_;
};

}  // namespace

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::size_t histogram_bucket(double value) noexcept {
  if (!(value >= 1.0)) return 0;  // negatives and NaN land in bucket 0
  const auto v = static_cast<std::uint64_t>(std::min(value, 1e18));
  const auto width = static_cast<std::size_t>(std::bit_width(v));
  return std::min(width, kHistogramBuckets - 1);
}

double histogram_bucket_bound(std::size_t i) noexcept {
  if (i == 0) return 1.0;
  return static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(i, 62));
}

Counter::Counter(const std::string& name)
    : id_(Registry::instance().register_counter(name)) {}

void Counter::add(std::uint64_t n) const noexcept {
  Shard& shard = Registry::instance().local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.counters.size() <= id_) shard.counters.resize(id_ + 1, 0);
  shard.counters[id_] += n;
}

Gauge::Gauge(const std::string& name)
    : id_(Registry::instance().register_gauge(name)) {}

void Gauge::set(double value) const noexcept {
  Registry::instance().set_gauge(id_, value);
}

Histogram::Histogram(const std::string& name)
    : id_(Registry::instance().register_histogram(name)) {}

void Histogram::observe(double value) const noexcept {
  Shard& shard = Registry::instance().local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.histograms.size() <= id_) shard.histograms.resize(id_ + 1);
  HistSlot& slot = shard.histograms[id_];
  if (slot.count == 0) {
    slot.min = value;
    slot.max = value;
  } else {
    slot.min = std::min(slot.min, value);
    slot.max = std::max(slot.max, value);
  }
  ++slot.count;
  slot.sum += value;
  ++slot.buckets[histogram_bucket(value)];
}

double HistogramValue::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[b];
    if (static_cast<double>(seen) >= rank) {
      // Place the rank linearly between the bucket's bounds; the clamp into
      // [min, max] keeps the edges exact (q=0 -> min, q=1 -> max) and stops
      // a sparse top bucket from over-reporting.
      const double lo = b == 0 ? 0.0 : histogram_bucket_bound(b - 1);
      const double hi = histogram_bucket_bound(b);
      const double frac =
          (rank - before) / static_cast<double>(buckets[b]);
      return std::clamp(lo + frac * (hi - lo), min, max);
    }
  }
  return max;
}

namespace {
template <typename T>
const T* find_by_name(const std::vector<T>& values, const std::string& name) {
  for (const T& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}
}  // namespace

const CounterValue* MetricsSnapshot::counter(const std::string& name) const {
  return find_by_name(counters, name);
}
const GaugeValue* MetricsSnapshot::gauge(const std::string& name) const {
  return find_by_name(gauges, name);
}
const HistogramValue* MetricsSnapshot::histogram(
    const std::string& name) const {
  return find_by_name(histograms, name);
}

MetricsSnapshot metrics_snapshot() { return Registry::instance().snapshot(); }

void reset_metrics() { Registry::instance().reset(); }

}  // namespace swapp::obs
