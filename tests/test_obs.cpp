// Tests for the observability layer (src/obs): metrics registry shard
// merging, span tracer well-formedness across thread-pool fan-out, and the
// JSONL/Chrome exporters' round trips.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "support/error.h"
#include "support/obs_report.h"
#include "support/parallel.h"

namespace swapp {
namespace {

/// Leaves the global obs switches off and the registries empty on both sides
/// of a test (the registry and trace buffers are process-wide).
struct ObsGuard {
  ObsGuard() { reset(); }
  ~ObsGuard() {
    reset();
    set_thread_count(0);
  }
  static void reset() {
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    obs::reset_metrics();
    obs::drain_trace();
  }
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, DisabledMacrosRecordNothing) {
  ObsGuard guard;
  SWAPP_COUNT("obs_test.off_counter", 5);
  SWAPP_OBSERVE("obs_test.off_hist", 1.0);
  SWAPP_GAUGE_SET("obs_test.off_gauge", 3.0);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  EXPECT_EQ(snap.counter("obs_test.off_counter"), nullptr);
  EXPECT_EQ(snap.histogram("obs_test.off_hist"), nullptr);
  EXPECT_EQ(snap.gauge("obs_test.off_gauge"), nullptr);
}

TEST(Metrics, MacrosRecordWhenEnabled) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  SWAPP_COUNT("obs_test.on_counter", 2);
  SWAPP_COUNT("obs_test.on_counter", 3);
  SWAPP_GAUGE_SET("obs_test.on_gauge", 2.0);
  SWAPP_GAUGE_SET("obs_test.on_gauge", 7.0);  // last write wins
  SWAPP_OBSERVE("obs_test.on_hist", 10.0);
  SWAPP_OBSERVE("obs_test.on_hist", 30.0);

  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  ASSERT_NE(snap.counter("obs_test.on_counter"), nullptr);
  EXPECT_EQ(snap.counter("obs_test.on_counter")->value, 5u);
  ASSERT_NE(snap.gauge("obs_test.on_gauge"), nullptr);
  EXPECT_DOUBLE_EQ(snap.gauge("obs_test.on_gauge")->value, 7.0);
  const obs::HistogramValue* h = snap.histogram("obs_test.on_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 40.0);
  EXPECT_DOUBLE_EQ(h->min, 10.0);
  EXPECT_DOUBLE_EQ(h->max, 30.0);
  EXPECT_DOUBLE_EQ(h->mean(), 20.0);
  EXPECT_LE(h->quantile(0.5), h->quantile(1.0));
  EXPECT_DOUBLE_EQ(h->quantile(1.0), 30.0);  // capped at the observed max
}

TEST(Metrics, ShardsMergeAcrossThreadsIncludingExitedOnes) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  const obs::Counter counter("obs_test.merge");
  const obs::Histogram hist("obs_test.merge_us");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.increment();
        hist.observe(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The recording threads are gone; their shards must still be in the merge.
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  ASSERT_NE(snap.counter("obs_test.merge"), nullptr);
  EXPECT_EQ(snap.counter("obs_test.merge")->value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_NE(snap.histogram("obs_test.merge_us"), nullptr);
  EXPECT_EQ(snap.histogram("obs_test.merge_us")->count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  SWAPP_COUNT("obs_test.reset_me", 9);
  obs::reset_metrics();
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  ASSERT_NE(snap.counter("obs_test.reset_me"), nullptr);
  EXPECT_EQ(snap.counter("obs_test.reset_me")->value, 0u);
}

TEST(Metrics, SnapshotIsSortedByName) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  SWAPP_COUNT("obs_test.zz", 1);
  SWAPP_COUNT("obs_test.aa", 1);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

// ---------------------------------------------------------------------------
// Span tracer across parallel_for fan-out
// ---------------------------------------------------------------------------

/// Runs a traced two-level fan-out at `threads` pool threads and checks the
/// drained trace is well formed: every span closed, every parent resolvable,
/// every item span stitched to the dispatching root.
void expect_well_formed_fanout(std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  set_thread_count(threads);
  obs::set_tracing_enabled(true);
  constexpr std::size_t kItems = 64;
  {
    SWAPP_SPAN("obs_test.root");
    parallel_for(kItems, [&](std::size_t i) {
      SWAPP_SPAN("obs_test.item");
      SWAPP_TRACE_COUNTER("obs_test.progress", static_cast<double>(i));
    });
  }
  obs::set_tracing_enabled(false);
  EXPECT_EQ(obs::open_span_count(), 0u);

  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  std::set<std::uint64_t> span_ids;
  std::uint64_t root_id = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceEvent::Kind::kSpan) continue;
    EXPECT_TRUE(span_ids.insert(e.id).second) << "duplicate span id " << e.id;
    if (e.name == "obs_test.root") root_id = e.id;
  }
  ASSERT_NE(root_id, 0u);

  std::size_t items = 0;
  std::size_t counters = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kCounter) {
      EXPECT_EQ(e.name, "obs_test.progress");
      ++counters;
      continue;
    }
    EXPECT_GE(e.dur_us, 0.0);
    EXPECT_TRUE(e.parent == 0 || span_ids.count(e.parent) != 0)
        << e.name << " has unresolved parent " << e.parent;
    if (e.name == "obs_test.item") {
      // Worker- and caller-side items alike hang off the dispatching span.
      EXPECT_EQ(e.parent, root_id);
      ++items;
    }
  }
  EXPECT_EQ(items, kItems);
  EXPECT_EQ(counters, kItems);
}

TEST(Trace, FanOutWellFormedAtOneThread) {
  ObsGuard guard;
  expect_well_formed_fanout(1);
}

TEST(Trace, FanOutWellFormedAtFourThreads) {
  ObsGuard guard;
  expect_well_formed_fanout(4);
}

TEST(Trace, FanOutWellFormedAtSixteenThreads) {
  ObsGuard guard;
  expect_well_formed_fanout(16);
}

TEST(Trace, NestingFollowsScopeOnOneThread) {
  ObsGuard guard;
  obs::set_tracing_enabled(true);
  {
    SWAPP_SPAN("obs_test.outer");
    const std::uint64_t outer = obs::current_span_id();
    EXPECT_NE(outer, 0u);
    {
      SWAPP_SPAN("obs_test.inner");
      EXPECT_NE(obs::current_span_id(), outer);
    }
    EXPECT_EQ(obs::current_span_id(), outer);
  }
  obs::set_tracing_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  ASSERT_EQ(events.size(), 2u);
  // Drain sorts by start time: outer opened first.
  EXPECT_EQ(events[0].name, "obs_test.outer");
  EXPECT_EQ(events[1].name, "obs_test.inner");
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_EQ(events[1].parent, events[0].id);
  // The inner span nests inside the outer one in time as well.
  EXPECT_GE(events[1].start_us, events[0].start_us);
  EXPECT_LE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
}

TEST(Trace, DisabledRecordsNothing) {
  ObsGuard guard;
  {
    SWAPP_SPAN("obs_test.invisible");
    SWAPP_TRACE_COUNTER("obs_test.invisible_counter", 1.0);
  }
  EXPECT_EQ(obs::open_span_count(), 0u);
  EXPECT_TRUE(obs::drain_trace().empty());
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

std::vector<obs::TraceEvent> sample_trace() {
  ObsGuard::reset();
  obs::set_tracing_enabled(true);
  {
    SWAPP_SPAN("obs_test.export_root");
    SWAPP_TRACE_COUNTER("obs_test.export_counter", 42.5);
    { SWAPP_SPAN("obs_test.export_child"); }
  }
  obs::set_tracing_enabled(false);
  return obs::drain_trace();
}

TEST(TraceExport, JsonlRoundTripPreservesEveryField) {
  ObsGuard guard;
  const std::vector<obs::TraceEvent> events = sample_trace();
  ASSERT_EQ(events.size(), 3u);

  std::ostringstream os;
  obs::write_trace_jsonl(os, events);
  std::istringstream is(os.str());
  const std::vector<obs::TraceEvent> back = obs::read_trace_jsonl(is);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].kind, events[i].kind);
    EXPECT_EQ(back[i].name, events[i].name);
    EXPECT_EQ(back[i].id, events[i].id);
    EXPECT_EQ(back[i].parent, events[i].parent);
    EXPECT_EQ(back[i].tid, events[i].tid);
    EXPECT_NEAR(back[i].start_us, events[i].start_us, 1e-3);
    EXPECT_NEAR(back[i].dur_us, events[i].dur_us, 1e-3);
    EXPECT_NEAR(back[i].value, events[i].value, 1e-9);
  }
}

TEST(TraceExport, ChromeFormatCarriesSpansAndCounters) {
  ObsGuard guard;
  const std::vector<obs::TraceEvent> events = sample_trace();
  std::ostringstream os;
  obs::write_trace_chrome(os, events);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("obs_test.export_root"), std::string::npos);
  EXPECT_NE(text.find("obs_test.export_child"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceExport, ReaderRejectsMalformedLines) {
  std::istringstream is("{\"not\":\"a trace event\"}\n");
  EXPECT_THROW(obs::read_trace_jsonl(is), InvalidArgument);
}

TEST(MetricsExport, JsonlRoundTrip) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  SWAPP_COUNT("obs_test.export_count", 11);
  SWAPP_GAUGE_SET("obs_test.export_gauge", 2.25);
  SWAPP_OBSERVE("obs_test.export_hist", 5.0);
  SWAPP_OBSERVE("obs_test.export_hist", 500.0);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();

  std::ostringstream os;
  obs::write_metrics_jsonl(os, snap);
  std::istringstream is(os.str());
  const obs::MetricsSnapshot back = obs::read_metrics_jsonl(is);

  ASSERT_NE(back.counter("obs_test.export_count"), nullptr);
  EXPECT_EQ(back.counter("obs_test.export_count")->value, 11u);
  ASSERT_NE(back.gauge("obs_test.export_gauge"), nullptr);
  EXPECT_DOUBLE_EQ(back.gauge("obs_test.export_gauge")->value, 2.25);
  const obs::HistogramValue* h = back.histogram("obs_test.export_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 505.0);
  EXPECT_DOUBLE_EQ(h->min, 5.0);
  EXPECT_DOUBLE_EQ(h->max, 500.0);
  const obs::HistogramValue* original = snap.histogram("obs_test.export_hist");
  ASSERT_NE(original, nullptr);
  EXPECT_EQ(h->buckets, original->buckets);
}

TEST(MetricsReport, PrintsTablesAndHonoursFilter) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  SWAPP_COUNT("obs_test.report_a", 1);
  SWAPP_COUNT("other.report_b", 1);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();

  std::ostringstream all;
  print_metrics(all, snap);
  EXPECT_NE(all.str().find("obs_test.report_a"), std::string::npos);
  EXPECT_NE(all.str().find("other.report_b"), std::string::npos);

  std::ostringstream filtered;
  print_metrics(filtered, snap, "obs_test.");
  EXPECT_NE(filtered.str().find("obs_test.report_a"), std::string::npos);
  EXPECT_EQ(filtered.str().find("other.report_b"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span rollups
// ---------------------------------------------------------------------------

obs::TraceEvent span_event(const std::string& name, std::uint64_t id,
                           std::uint64_t parent, double dur_us) {
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::kSpan;
  e.name = name;
  e.id = id;
  e.parent = parent;
  e.dur_us = dur_us;
  return e;
}

TEST(SpanRollupTest, SelfTimeSubtractsDirectChildrenOnly) {
  std::vector<obs::TraceEvent> events;
  events.push_back(span_event("root", 1, 0, 100.0));
  events.push_back(span_event("child", 2, 1, 30.0));
  events.push_back(span_event("leaf", 3, 1, 50.0));
  events.push_back(span_event("grand", 4, 2, 10.0));  // under "child" only
  events.push_back(span_event("child", 5, 0, 20.0));  // second instance
  obs::TraceEvent counter;  // ignored by the rollup
  counter.kind = obs::TraceEvent::Kind::kCounter;
  counter.name = "ignored";
  counter.value = 7.0;
  events.push_back(counter);

  const std::vector<SpanRollup> rollups = rollup_spans(events);
  ASSERT_EQ(rollups.size(), 4u);
  // Descending self-time: leaf 50, child (30-10)+20=40, root 100-80=20,
  // grand 10.
  EXPECT_EQ(rollups[0].name, "leaf");
  EXPECT_DOUBLE_EQ(rollups[0].self_us, 50.0);
  EXPECT_EQ(rollups[1].name, "child");
  EXPECT_EQ(rollups[1].count, 2u);
  EXPECT_DOUBLE_EQ(rollups[1].total_us, 50.0);
  EXPECT_DOUBLE_EQ(rollups[1].self_us, 40.0);
  EXPECT_DOUBLE_EQ(rollups[1].max_us, 30.0);
  EXPECT_EQ(rollups[2].name, "root");
  EXPECT_DOUBLE_EQ(rollups[2].total_us, 100.0);
  EXPECT_DOUBLE_EQ(rollups[2].self_us, 20.0);
  EXPECT_EQ(rollups[3].name, "grand");
  EXPECT_DOUBLE_EQ(rollups[3].self_us, 10.0);
}

TEST(SpanRollupTest, ConcurrentChildrenClampSelfTimeAtZero) {
  // Pool fan-out: workers' spans stitch onto the dispatching caller, so
  // their summed wall time can exceed the parent's duration.
  std::vector<obs::TraceEvent> events;
  events.push_back(span_event("dispatch", 1, 0, 10.0));
  events.push_back(span_event("worker", 2, 1, 8.0));
  events.push_back(span_event("worker", 3, 1, 8.0));
  const std::vector<SpanRollup> rollups = rollup_spans(events);
  ASSERT_EQ(rollups.size(), 2u);
  EXPECT_EQ(rollups[0].name, "worker");
  EXPECT_DOUBLE_EQ(rollups[0].self_us, 16.0);
  EXPECT_EQ(rollups[1].name, "dispatch");
  EXPECT_DOUBLE_EQ(rollups[1].self_us, 0.0);  // clamped, not -6
}

TEST(SpanRollupTest, PrinterRendersOneRowPerName) {
  std::vector<obs::TraceEvent> events;
  events.push_back(span_event("alpha", 1, 0, 3000.0));
  events.push_back(span_event("beta", 2, 1, 1000.0));
  std::ostringstream os;
  print_span_rollup(os, rollup_spans(events));
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("beta"), std::string::npos);
  EXPECT_NE(os.str().find("Self"), std::string::npos);
}

TEST(SpanRollupTest, RollsUpARealDrainedTrace) {
  ObsGuard guard;
  const std::vector<obs::TraceEvent> events = sample_trace();
  const std::vector<SpanRollup> rollups = rollup_spans(events);
  ASSERT_EQ(rollups.size(), 2u);  // counter sample ignored
  double root_self = 0.0, child_total = 0.0;
  for (const SpanRollup& r : rollups) {
    if (r.name == "obs_test.export_root") root_self = r.self_us;
    if (r.name == "obs_test.export_child") child_total = r.total_us;
  }
  EXPECT_GT(root_self, 0.0);
  EXPECT_GT(child_total, 0.0);
}

// ---------------------------------------------------------------------------
// Exact tallies
// ---------------------------------------------------------------------------

TEST(Metrics, CounterTallyIsExactBeyondDoublePrecision) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  // 2^53 + 1 is the first integer a double cannot hold; an integer shard
  // tally must still read it back unchanged.
  constexpr std::uint64_t kBig = (std::uint64_t{1} << 53) + 1;
  const obs::Counter counter("obs_test.big_counter");
  counter.add(kBig);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  ASSERT_NE(snap.counter("obs_test.big_counter"), nullptr);
  EXPECT_EQ(snap.counter("obs_test.big_counter")->value, kBig);
}

TEST(Metrics, HistogramBucketsFollowLog2BoundsAndClamp) {
  // Bucket 0 takes everything below 1 (negatives and NaN too); bucket i
  // takes [2^(i-1), 2^i); the last bucket absorbs the overflow.
  EXPECT_EQ(obs::histogram_bucket(-5.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(std::nan("")), 0u);
  EXPECT_EQ(obs::histogram_bucket(0.0), 0u);
  EXPECT_EQ(obs::histogram_bucket(0.999), 0u);
  EXPECT_EQ(obs::histogram_bucket(1.0), 1u);
  EXPECT_EQ(obs::histogram_bucket(2.0), 2u);
  EXPECT_EQ(obs::histogram_bucket(3.999), 2u);
  EXPECT_EQ(obs::histogram_bucket(4.0), 3u);
  EXPECT_EQ(obs::histogram_bucket(1e30), obs::kHistogramBuckets - 1);
  EXPECT_DOUBLE_EQ(obs::histogram_bucket_bound(0), 1.0);
  for (std::size_t i = 1; i + 1 < obs::kHistogramBuckets; ++i) {
    const double bound = obs::histogram_bucket_bound(i);
    EXPECT_DOUBLE_EQ(bound, std::ldexp(1.0, static_cast<int>(i)));
    // The bound is exclusive: it opens the next bucket.
    EXPECT_EQ(obs::histogram_bucket(bound), i + 1) << "bucket " << i;
    EXPECT_EQ(obs::histogram_bucket(bound / 2.0), i) << "bucket " << i;
  }
}

TEST(Metrics, HistogramTalliesEveryObservationExactly) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  const obs::Histogram hist("obs_test.exact_hist");
  // Dyadic and integer values keep the expected sum exact in a double.
  const std::vector<std::pair<double, int>> plan = {
      {0.5, 7}, {1.0, 300}, {3.0, 2000}, {100.0, 5}, {5000.0, 1}};
  std::array<std::uint64_t, obs::kHistogramBuckets> expected{};
  std::uint64_t total = 0;
  double sum = 0.0;
  for (const auto& [value, times] : plan) {
    for (int i = 0; i < times; ++i) hist.observe(value);
    expected[obs::histogram_bucket(value)] += static_cast<std::uint64_t>(times);
    total += static_cast<std::uint64_t>(times);
    sum += value * times;
  }
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  const obs::HistogramValue* h = snap.histogram("obs_test.exact_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, total);
  EXPECT_EQ(h->sum, sum);
  EXPECT_EQ(h->min, 0.5);
  EXPECT_EQ(h->max, 5000.0);
  EXPECT_EQ(h->buckets, expected);
}

TEST(Metrics, PoolFanOutCountsEveryRecordRoundAfterRound) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  set_thread_count(4);
  const obs::Counter counter("obs_test.fan_out");
  const obs::Histogram hist("obs_test.fan_out_values");
  constexpr std::size_t kN = 10000;
  for (int round = 0; round < 3; ++round) {
    parallel_for(kN, [&](std::size_t i) {
      counter.increment();
      hist.observe(static_cast<double>(i));
    });
    const obs::MetricsSnapshot snap = obs::metrics_snapshot();
    ASSERT_NE(snap.counter("obs_test.fan_out"), nullptr);
    EXPECT_EQ(snap.counter("obs_test.fan_out")->value, kN) << "round " << round;
    const obs::HistogramValue* h = snap.histogram("obs_test.fan_out_values");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, kN) << "round " << round;
    // Integer partial sums stay far below 2^53, so any merge order is exact.
    EXPECT_EQ(h->sum, static_cast<double>(kN * (kN - 1) / 2))
        << "round " << round;
    EXPECT_EQ(h->min, 0.0);
    EXPECT_EQ(h->max, static_cast<double>(kN - 1));
    obs::reset_metrics();
  }
}

// ---------------------------------------------------------------------------
// Interpolated quantiles
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, InterpolatesWithinABucketAgainstExactQuantiles) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  // 1024 uniform values covering bucket [1024, 2048): the exact quantile of
  // the data is q -> 1024 + q*1024, and linear interpolation inside the
  // bucket should land within one step of it.
  const obs::Histogram hist("obs_test.quantile_uniform");
  for (int v = 1024; v < 2048; ++v) hist.observe(static_cast<double>(v));
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  const obs::HistogramValue* h = snap.histogram("obs_test.quantile_uniform");
  ASSERT_NE(h, nullptr);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = 1024.0 + q * 1024.0;
    EXPECT_NEAR(h->quantile(q), exact, 16.0) << "q=" << q;
  }
  // The endpoints are exact, not bucket bounds.
  EXPECT_DOUBLE_EQ(h->quantile(0.0), 1024.0);
  EXPECT_DOUBLE_EQ(h->quantile(1.0), 2047.0);
}

TEST(HistogramQuantile, BimodalDistributionSplitsAcrossBuckets) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  const obs::Histogram hist("obs_test.quantile_bimodal");
  for (int i = 0; i < 100; ++i) hist.observe(10.0);    // bucket [8, 16)
  for (int i = 0; i < 100; ++i) hist.observe(700.0);   // bucket [512, 1024)
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  const obs::HistogramValue* h = snap.histogram("obs_test.quantile_bimodal");
  ASSERT_NE(h, nullptr);
  // p25 lives in the low mode, p75 in the high one; both inside their
  // bucket's bounds and clamped into [min, max].
  const double p25 = h->quantile(0.25);
  EXPECT_GE(p25, 10.0);  // clamped at the observed min
  EXPECT_LT(p25, 16.0);
  const double p75 = h->quantile(0.75);
  EXPECT_GE(p75, 512.0);
  EXPECT_LE(p75, 700.0);  // clamped at the observed max
  EXPECT_LT(h->quantile(0.25), h->quantile(0.75));
}

// ---------------------------------------------------------------------------
// Snapshot deltas and the metrics window
// ---------------------------------------------------------------------------

TEST(MetricsWindow, SnapshotDeltaSubtractsCountersHistogramsKeepsGauges) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  SWAPP_COUNT("obs_test.delta_count", 3);
  SWAPP_OBSERVE("obs_test.delta_hist", 50.0);
  SWAPP_GAUGE_SET("obs_test.delta_gauge", 1.0);
  const obs::MetricsSnapshot older = obs::metrics_snapshot();
  SWAPP_COUNT("obs_test.delta_count", 2);
  SWAPP_OBSERVE("obs_test.delta_hist", 200.0);
  SWAPP_OBSERVE("obs_test.delta_hist", 210.0);
  SWAPP_GAUGE_SET("obs_test.delta_gauge", 9.0);
  SWAPP_COUNT("obs_test.delta_new", 7);  // born after `older`
  const obs::MetricsSnapshot newer = obs::metrics_snapshot();

  const obs::MetricsSnapshot d = obs::snapshot_delta(newer, older);
  ASSERT_NE(d.counter("obs_test.delta_count"), nullptr);
  EXPECT_EQ(d.counter("obs_test.delta_count")->value, 2u);
  ASSERT_NE(d.counter("obs_test.delta_new"), nullptr);
  EXPECT_EQ(d.counter("obs_test.delta_new")->value, 7u);  // full value
  ASSERT_NE(d.gauge("obs_test.delta_gauge"), nullptr);
  EXPECT_DOUBLE_EQ(d.gauge("obs_test.delta_gauge")->value, 9.0);  // newest
  const obs::HistogramValue* h = d.histogram("obs_test.delta_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);  // only the two observations after `older`
  EXPECT_DOUBLE_EQ(h->sum, 410.0);
  // The window's min/max are bucket-bound estimates clamped into the
  // cumulative range: both deltas landed in [128, 256).
  EXPECT_GE(h->min, 50.0);
  EXPECT_LE(h->max, 256.0);
  EXPECT_LE(h->min, h->max);
}

TEST(MetricsWindow, DeltaOverPicksTheSlotCoveringTheAskedSpan) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  obs::MetricsWindow window(8);
  const obs::Counter counter("obs_test.window_count");

  // Synthetic clock: one rotation per "second", 5 increments per second.
  double now_us = 0.0;
  window.rotate(obs::metrics_snapshot(), now_us);
  for (int second = 1; second <= 5; ++second) {
    for (int i = 0; i < 5; ++i) counter.increment();
    now_us = second * 1e6;
    window.rotate(obs::metrics_snapshot(), now_us);
  }
  const obs::MetricsSnapshot current = obs::metrics_snapshot();

  const obs::MetricsWindow::Delta last2 =
      window.delta_over(2.0, current, now_us);
  EXPECT_NEAR(last2.seconds, 2.0, 1e-9);
  ASSERT_NE(last2.metrics.counter("obs_test.window_count"), nullptr);
  EXPECT_EQ(last2.metrics.counter("obs_test.window_count")->value, 10u);

  // Asking for more history than the ring holds falls back to the oldest
  // entry and reports the span it actually covers.
  const obs::MetricsWindow::Delta all =
      window.delta_over(60.0, current, now_us);
  EXPECT_NEAR(all.seconds, 5.0, 1e-9);
  ASSERT_NE(all.metrics.counter("obs_test.window_count"), nullptr);
  EXPECT_EQ(all.metrics.counter("obs_test.window_count")->value, 25u);
}

TEST(MetricsWindow, RingEvictsOldestPastCapacity) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  obs::MetricsWindow window(3);
  EXPECT_EQ(window.capacity(), 3u);
  const obs::Counter counter("obs_test.window_evict");
  for (int second = 0; second < 10; ++second) {
    counter.increment();
    window.rotate(obs::metrics_snapshot(), second * 1e6);
  }
  EXPECT_EQ(window.size(), 3u);
  // Oldest surviving slot is t=7s with 8 increments recorded; the ring can
  // answer at most the last two seconds of history.
  const obs::MetricsSnapshot current = obs::metrics_snapshot();
  const obs::MetricsWindow::Delta all =
      window.delta_over(60.0, current, 9e6);
  EXPECT_NEAR(all.seconds, 2.0, 1e-9);
  ASSERT_NE(all.metrics.counter("obs_test.window_evict"), nullptr);
  EXPECT_EQ(all.metrics.counter("obs_test.window_evict")->value, 2u);
}

TEST(MetricsWindow, EmptyWindowAnswersZeroDelta) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  obs::MetricsWindow window(4);
  const obs::MetricsWindow::Delta d =
      window.delta_over(10.0, obs::metrics_snapshot(), 1e6);
  EXPECT_DOUBLE_EQ(d.seconds, 0.0);
  EXPECT_TRUE(d.metrics.counters.empty());
}

// ---------------------------------------------------------------------------
// Concurrent snapshotting (primary targets of tools/check_tsan.sh)
// ---------------------------------------------------------------------------

TEST(MetricsConcurrency, SnapshotRacesRecordersWithoutLosingFinalTotals) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  const obs::Counter counter("obs_test.race_count");
  const obs::Histogram hist("obs_test.race_hist");
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    // Snapshots taken mid-recording see arbitrary partial totals; they must
    // merely be internally consistent and race-free.
    while (!stop.load()) {
      const obs::MetricsSnapshot snap = obs::metrics_snapshot();
      const obs::HistogramValue* h = snap.histogram("obs_test.race_hist");
      if (h != nullptr) {
        std::uint64_t bucket_total = 0;
        for (const std::uint64_t b : h->buckets) bucket_total += b;
        EXPECT_EQ(h->count, bucket_total);
      }
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.increment();
        hist.observe(static_cast<double>(i % 1024));
      }
    });
  }
  for (std::thread& t : recorders) t.join();
  stop.store(true);
  snapshotter.join();
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  ASSERT_NE(snap.counter("obs_test.race_count"), nullptr);
  EXPECT_EQ(snap.counter("obs_test.race_count")->value,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_NE(snap.histogram("obs_test.race_hist"), nullptr);
  EXPECT_EQ(snap.histogram("obs_test.race_hist")->count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsConcurrency, WindowRotationRacesRecording) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  obs::MetricsWindow window(16);
  const obs::Counter counter("obs_test.race_window");
  std::atomic<bool> stop{false};
  std::thread rotator([&] {
    double now_us = 0.0;
    while (!stop.load()) {
      now_us += 1e4;
      window.rotate(obs::metrics_snapshot(), now_us);
      const obs::MetricsWindow::Delta d =
          window.delta_over(0.01, obs::metrics_snapshot(), now_us);
      EXPECT_GE(d.seconds, 0.0);
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) counter.increment();
    });
  }
  for (std::thread& t : recorders) t.join();
  stop.store(true);
  rotator.join();
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  ASSERT_NE(snap.counter("obs_test.race_window"), nullptr);
  EXPECT_EQ(snap.counter("obs_test.race_window")->value, 80000u);
}

// ---------------------------------------------------------------------------
// Lenient trace reading, writability probes, Prometheus exposition
// ---------------------------------------------------------------------------

TEST(TraceExport, LenientReaderSkipsMalformedLinesWithWarnings) {
  std::istringstream is(
      "{\"name\":\"good\",\"ph\":\"X\",\"ts\":1.0,\"dur\":2.0,"
      "\"tid\":1,\"args\":{\"id\":1,\"parent\":0}}\n"
      "this line is not json\n"
      "{\"name\":\"bad_phase\",\"ph\":\"Q\",\"ts\":1.0,\"tid\":1}\n"
      "{\"name\":\"also_good\",\"ph\":\"X\",\"ts\":5.0,\"dur\":1.0,"
      "\"tid\":2,\"args\":{\"id\":2,\"parent\":0}}\n");
  std::ostringstream warn;
  const obs::TraceReadReport report = obs::read_trace_jsonl_lenient(is, warn);
  ASSERT_EQ(report.events.size(), 2u);
  EXPECT_EQ(report.events[0].name, "good");
  EXPECT_EQ(report.events[1].name, "also_good");
  EXPECT_EQ(report.skipped_lines, 2u);
  // The warnings name the offending lines.
  EXPECT_NE(warn.str().find("line 2"), std::string::npos);
  EXPECT_NE(warn.str().find("line 3"), std::string::npos);
  EXPECT_EQ(warn.str().find("line 1"), std::string::npos);
}

TEST(TraceExport, LenientReaderHandlesEmptyInput) {
  std::istringstream is("");
  std::ostringstream warn;
  const obs::TraceReadReport report = obs::read_trace_jsonl_lenient(is, warn);
  EXPECT_TRUE(report.events.empty());
  EXPECT_EQ(report.skipped_lines, 0u);
  EXPECT_TRUE(warn.str().empty());
}

TEST(FileErrors, RequireWritableThrowsTypedErrorWithOffendingPath) {
  const std::string bad = "/nonexistent-swapp-dir/out.json";
  try {
    obs::require_writable(bad);
    FAIL() << "accepted an unwritable path";
  } catch (const FileError& e) {
    EXPECT_EQ(e.path(), bad);
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos);
  }
}

TEST(FileErrors, RequireWritableLeavesNoFileBehindAndKeepsContent) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "swapp-obs-test-writable";
  std::filesystem::create_directories(dir);
  const std::filesystem::path fresh = dir / "fresh.json";
  std::filesystem::remove(fresh);
  obs::require_writable(fresh);
  EXPECT_FALSE(std::filesystem::exists(fresh));  // probe left nothing
  const std::filesystem::path existing = dir / "existing.json";
  {
    std::ofstream os(existing);
    os << "precious";
  }
  obs::require_writable(existing);
  std::ifstream is(existing);
  std::string content;
  std::getline(is, content);
  EXPECT_EQ(content, "precious");  // probe did not truncate
  std::filesystem::remove_all(dir);
}

TEST(FileErrors, WriteTraceFileThrowsFileErrorForBadPath) {
  try {
    obs::write_trace_file("/nonexistent-swapp-dir/trace.jsonl", {});
    FAIL() << "accepted an unwritable path";
  } catch (const FileError& e) {
    EXPECT_EQ(e.path(), "/nonexistent-swapp-dir/trace.jsonl");
  }
}

TEST(MetricsExport, PrometheusExpositionCarriesAllKinds) {
  ObsGuard guard;
  obs::set_metrics_enabled(true);
  SWAPP_COUNT("obs_test.prom_count", 11);
  SWAPP_GAUGE_SET("obs_test.prom_gauge", 2.5);
  for (int i = 0; i < 10; ++i) SWAPP_OBSERVE("obs_test.prom_hist", 100.0);
  std::ostringstream os;
  obs::write_metrics_prometheus(os, obs::metrics_snapshot());
  const std::string text = os.str();
  // Names are sanitized (dots to underscores) and prefixed.
  EXPECT_NE(text.find("swapp_obs_test_prom_count_total 11"),
            std::string::npos);
  EXPECT_NE(text.find("swapp_obs_test_prom_gauge 2.5"), std::string::npos);
  EXPECT_NE(text.find("swapp_obs_test_prom_hist_bucket{le=\"128\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("swapp_obs_test_prom_hist_bucket{le=\"+Inf\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("swapp_obs_test_prom_hist_sum 1000"),
            std::string::npos);
  EXPECT_NE(text.find("swapp_obs_test_prom_hist_count 10"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE swapp_obs_test_prom_hist histogram"),
            std::string::npos);
}

}  // namespace
}  // namespace swapp
