// Tests for the parallel execution substrate (support/parallel.h): pool
// semantics — every index exactly once, result ordering, exception
// propagation, serial degradation, nesting — and the determinism guarantee
// the GA relies on: find_surrogate is bit-identical for every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/ga.h"
#include "core/spec_index.h"
#include "machine/machine.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp {
namespace {

/// Restores the default pool size when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(Parallel, ExecutesEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  set_thread_count(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, MapPreservesInputOrder) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::vector<int> items(257);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i);
  }
  const std::vector<int> squares =
      parallel_map(items, [](const int x) { return x * x; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(squares[i], items[i] * items[i]);
  }
}

TEST(Parallel, PropagatesWorkItemExceptions) {
  ThreadCountGuard guard;
  set_thread_count(4);
  EXPECT_THROW(parallel_for(100,
                            [](std::size_t i) {
                              if (i == 37) {
                                throw std::runtime_error("item 37 failed");
                              }
                            }),
               std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> count{0};
  parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(Parallel, OneThreadRunsInlineOnTheCaller) {
  ThreadCountGuard guard;
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  bool region_flag_seen = false;
  parallel_for(64, [&](std::size_t) {
    all_inline = all_inline && (std::this_thread::get_id() == caller);
    region_flag_seen = region_flag_seen || in_parallel_region();
  });
  EXPECT_TRUE(all_inline);
  // Serial degradation is the plain loop: no region bookkeeping at all.
  EXPECT_FALSE(region_flag_seen);
}

TEST(Parallel, SingleItemRunsInlineEvenWithManyThreads) {
  ThreadCountGuard guard;
  set_thread_count(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  parallel_for(1, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(Parallel, NestedRegionsDegradeToSerial) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::atomic<int> inner_total{0};
  parallel_for(4, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // Nested region: must complete serially instead of deadlocking.
    parallel_for(8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

// ---------------------------------------------------------------------------
// Chunked index claiming
// ---------------------------------------------------------------------------

TEST(ParallelChunked, EveryIndexExactlyOnceAcrossThreadAndChunkConfigs) {
  ThreadCountGuard guard;
  // chunk 0 = auto-sizing; 64 > n exercises one executor claiming the whole
  // range in a single run.
  const std::size_t chunks[] = {0, 1, 4, 64};
  const std::size_t threads[] = {1, 3, 16};
  constexpr std::size_t kN = 41;  // odd, not a chunk multiple, smaller than 64
  for (const std::size_t t : threads) {
    set_thread_count(t);
    for (const std::size_t chunk : chunks) {
      std::vector<std::atomic<int>> hits(kN);
      parallel_for_chunked(kN, chunk, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << t << " chunk=" << chunk << " index=" << i;
      }
    }
  }
}

TEST(ParallelChunked, LargeJobAutoChunksWithFullCoverage) {
  ThreadCountGuard guard;
  // 10000 items over 4 threads auto-sizes runs well above 1; every index
  // must still execute exactly once.
  set_thread_count(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelChunked, MapResultsIdenticalAcrossConfigs) {
  ThreadCountGuard guard;
  std::vector<int> items(513);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i);
  }
  const auto triple = [](const int x) { return 3 * x + 1; };
  set_thread_count(1);
  const std::vector<int> serial = parallel_map(items, triple);
  for (const std::size_t t : {3u, 16u}) {
    set_thread_count(t);
    EXPECT_EQ(parallel_map(items, triple), serial) << "threads=" << t;
  }
}

TEST(ParallelChunked, PropagatesExceptionsFromInsideAChunk) {
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_THROW(parallel_for_chunked(100, 8,
                                    [](std::size_t i) {
                                      if (i == 42) {
                                        throw std::runtime_error("item 42");
                                      }
                                    }),
               std::runtime_error);
  // The pool must stay usable after an aborted chunked region.
  std::atomic<int> count{0};
  parallel_for_chunked(10, 4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(Parallel, ResizingBetweenJobsKeepsExactlyOnceCoverage) {
  ThreadCountGuard guard;
  // Every resize restarts the pool after earlier jobs have advanced its
  // job generation.  Fresh workers must not take the finished job for a new
  // one: a worker counted twice ends a job early or leaves the caller
  // waiting forever.  The race is timing-dependent, hence the many rounds.
  const std::size_t sizes[] = {1, 4, 2, 8, 3, 5, 2, 7};
  constexpr std::size_t kN = 257;
  for (int round = 0; round < 500; ++round) {
    for (const std::size_t t : sizes) {
      set_thread_count(t);
      for (int job = 0; job < 2; ++job) {
        std::vector<std::atomic<int>> hits(kN);
        parallel_for(kN, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kN; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "round=" << round << " threads=" << t << " index=" << i;
        }
      }
    }
  }
}

TEST(Parallel, SetThreadCountInsideRegionIsRejected) {
  ThreadCountGuard guard;
  set_thread_count(2);
  EXPECT_THROW(parallel_for(4, [](std::size_t) { set_thread_count(3); }),
               InvalidArgument);
}

TEST(Parallel, ThreadCountHonoursOverride) {
  ThreadCountGuard guard;
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);
  EXPECT_GE(thread_count(), 1u);
}

TEST(Parallel, ParseThreadCountAcceptsPositiveIntegers) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("128"), 128u);
}

TEST(Parallel, ParseThreadCountRejectsBadValues) {
  // SWAPP_THREADS typos must fail loudly, not fall back to a default.
  EXPECT_THROW(parse_thread_count(""), InvalidArgument);
  EXPECT_THROW(parse_thread_count("0"), InvalidArgument);
  EXPECT_THROW(parse_thread_count("-2"), InvalidArgument);
  EXPECT_THROW(parse_thread_count("four"), InvalidArgument);
  EXPECT_THROW(parse_thread_count("4x"), InvalidArgument);
  EXPECT_THROW(parse_thread_count("2.5"), InvalidArgument);
  EXPECT_THROW(parse_thread_count(" 8"), InvalidArgument);
  try {
    parse_thread_count("banana");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos)
        << "error message should quote the offending value";
  }
}

// ---------------------------------------------------------------------------
// GA determinism across thread counts
// ---------------------------------------------------------------------------

machine::PmuCounters counters_with(double l3_per_instr, double mem_per_instr) {
  machine::PmuCounters c;
  c.instructions = 1e9;
  c.cycles = 1e9;
  c.seconds = 1.0;
  c.cpi_completion = 0.3;
  c.cpi_stall_fp = 0.2;
  c.cpi_stall_mem = l3_per_instr * 90.0 * 0.1 + mem_per_instr * 230.0 * 0.1;
  c.fp_per_instr = 0.4;
  c.data_from_l2_per_instr = 0.002;
  c.data_from_l3_per_instr = l3_per_instr;
  c.data_from_local_mem_per_instr = mem_per_instr;
  c.memory_bandwidth_gbs = mem_per_instr * 50.0;
  return c;
}

core::SpecData synthetic_spec() {
  core::SpecData spec;
  const auto add = [&](const std::string& name, double stall, Seconds base) {
    machine::PmuCounters c = counters_with(stall * 0.01, stall * 0.005);
    c.cpi_stall_mem = stall;
    spec.names.push_back(name);
    spec.base_counters_st.emplace(name, c);
    machine::PmuCounters smt = c;
    smt.cpi_completion *= 1.4;
    spec.base_counters_smt.emplace(name, smt);
    spec.base_runtime.emplace(name, base);
  };
  add("fast", 0.1, 50.0);
  add("slow", 4.0, 200.0);
  add("mid", 1.5, 100.0);
  add("wide", 2.4, 140.0);
  return spec;
}

core::Surrogate search(const core::SpecData& spec) {
  const machine::PmuCounters app = spec.base_counters_st.at("slow");
  const machine::PmuCounters app_smt = spec.base_counters_smt.at("slow");
  const core::SpecIndex index(spec, "base");
  core::GroupWeights weights;
  weights.weight.fill(1.0 / machine::kMetricGroupCount);
  core::GaOptions options;  // default: 5 restarts — exercises the fan-out
  options.generations = 60;
  options.seed = 4242;
  return core::find_surrogate(app, app_smt, weights, index, 100.0, options);
}

void expect_identical(const core::Surrogate& a, const core::Surrogate& b) {
  EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
  EXPECT_DOUBLE_EQ(a.metric_distance, b.metric_distance);
  EXPECT_DOUBLE_EQ(a.runtime_error, b.runtime_error);
  ASSERT_EQ(a.terms.size(), b.terms.size());
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(a.terms[i].benchmark, b.terms[i].benchmark);
    EXPECT_DOUBLE_EQ(a.terms[i].weight, b.terms[i].weight);
  }
}

TEST(GaDeterminism, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const core::SpecData spec = synthetic_spec();

  set_thread_count(1);
  const core::Surrogate serial = search(spec);
  const core::Surrogate serial_again = search(spec);
  expect_identical(serial, serial_again);  // repeatable at a fixed seed

  set_thread_count(4);
  const core::Surrogate pooled = search(spec);
  expect_identical(serial, pooled);

  set_thread_count(2);
  const core::Surrogate pooled2 = search(spec);
  expect_identical(serial, pooled2);

  // More threads than restarts: workers race for few items, chunked
  // claiming degrades to runs of 1, results still bit-identical.
  set_thread_count(16);
  const core::Surrogate pooled16 = search(spec);
  expect_identical(serial, pooled16);
}

}  // namespace
}  // namespace swapp
