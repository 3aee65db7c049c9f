// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cfenv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/fiber.h"
#include "support/error.h"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace swapp::sim {
namespace {

#if defined(__x86_64__)
constexpr bool kHasFlushToZero = true;
bool flush_to_zero() {
  return _MM_GET_FLUSH_ZERO_MODE() == _MM_FLUSH_ZERO_ON;
}
void set_flush_to_zero(bool on) {
  _MM_SET_FLUSH_ZERO_MODE(on ? _MM_FLUSH_ZERO_ON : _MM_FLUSH_ZERO_OFF);
}
#else
constexpr bool kHasFlushToZero = false;
bool flush_to_zero() { return false; }
void set_flush_to_zero(bool) {}
#endif

/// 1/3 in the current rounding mode (volatile keeps it a runtime division).
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Fiber, RunsBodyToCompletion) {
  int steps = 0;
  Fiber f([&] {
    ++steps;
    Fiber::yield();
    ++steps;
  });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(steps, 1);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(steps, 2);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, PropagatesExceptions) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, InFiberReflectsContext) {
  EXPECT_FALSE(Fiber::in_fiber());
  bool inside = false;
  Fiber f([&] { inside = Fiber::in_fiber(); });
  f.resume();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(Fiber::in_fiber());
}

TEST(Fiber, FloatingPointControlStaysWithItsContext) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  ASSERT_FALSE(flush_to_zero());
  const double nearest = third();
  double upward = 0.0;
  int round_seen_by_b = -1;
  bool ftz_seen_by_b = true;
  Fiber a([&] {
    std::fesetround(FE_UPWARD);  // x87 control word and MXCSR
    set_flush_to_zero(true);     // MXCSR only
    upward = third();
    Fiber::yield();
    EXPECT_EQ(std::fegetround(), FE_UPWARD);
    EXPECT_EQ(flush_to_zero(), kHasFlushToZero);
    EXPECT_EQ(third(), upward);
  });
  Fiber b([&] {
    round_seen_by_b = std::fegetround();
    ftz_seen_by_b = flush_to_zero();
    std::fesetround(FE_TOWARDZERO);
    Fiber::yield();
    EXPECT_EQ(std::fegetround(), FE_TOWARDZERO);
  });
  a.resume();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_FALSE(flush_to_zero());
  EXPECT_EQ(third(), nearest);
  b.resume();
  EXPECT_EQ(round_seen_by_b, FE_TONEAREST);
  EXPECT_FALSE(ftz_seen_by_b);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  a.resume();
  b.resume();
  EXPECT_TRUE(a.finished() && b.finished());
  EXPECT_GT(upward, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_FALSE(flush_to_zero());
  std::fesetround(FE_TONEAREST);  // keep a failure from leaking into others
  set_flush_to_zero(false);
}

TEST(Fiber, TransferHandsControlBetweenFibersWithTheirOwnFpControl) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  ASSERT_FALSE(flush_to_zero());
  std::vector<std::string> order;
  Fiber* b_fiber = nullptr;
  int round_seen_by_b = -1;
  bool ftz_seen_by_b = true;
  Fiber a([&] {
    std::fesetround(FE_UPWARD);
    set_flush_to_zero(true);
    order.push_back("a");
    Fiber::transfer(*b_fiber);  // A -> B, B not yet started
    order.push_back("a again");
    EXPECT_EQ(std::fegetround(), FE_UPWARD);
    EXPECT_EQ(flush_to_zero(), kHasFlushToZero);
  });
  Fiber b([&] {
    round_seen_by_b = std::fegetround();
    ftz_seen_by_b = flush_to_zero();
    std::fesetround(FE_TOWARDZERO);
    order.push_back("b");
    Fiber::transfer(a);  // B -> A, back into A's transfer call
    order.push_back("b again");
    EXPECT_EQ(std::fegetround(), FE_TOWARDZERO);
    EXPECT_FALSE(flush_to_zero());
  });
  b_fiber = &b;
  a.resume();  // comes back when A finishes
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a again"}));
  EXPECT_TRUE(a.finished());
  EXPECT_FALSE(b.finished());
  // B started with its creator's control state, not A's.
  EXPECT_EQ(round_seen_by_b, FE_TONEAREST);
  EXPECT_FALSE(ftz_seen_by_b);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_FALSE(flush_to_zero());
  EXPECT_FALSE(Fiber::in_fiber());
  b.resume();  // the scheduler resumes B where it transferred away
  EXPECT_EQ(order.back(), "b again");
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  std::fesetround(FE_TONEAREST);  // keep a failure from leaking into others
  set_flush_to_zero(false);
}

TEST(Fiber, ExceptionAfterSeveralYieldsReachesTheResumeCaller) {
  struct Flag {
    bool& set;
    ~Flag() { set = true; }
  };
  int yields = 0;
  bool unwound = false;
  Fiber f([&] {
    Flag on_unwind{unwound};
    while (yields < 3) {
      ++yields;
      Fiber::yield();
    }
    throw std::runtime_error("late failure");
  });
  for (int i = 1; i <= 3; ++i) {
    EXPECT_NO_THROW(f.resume());
    EXPECT_EQ(yields, i);
    EXPECT_FALSE(f.finished());
  }
  try {
    f.resume();
    FAIL() << "the body's exception did not reach resume()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "late failure");
  }
  EXPECT_TRUE(unwound);  // the fiber's own frames were unwound first
  EXPECT_TRUE(f.finished());
  EXPECT_FALSE(Fiber::in_fiber());
  EXPECT_THROW(f.resume(), InternalError);
}

TEST(Fiber, DestroyingAnUnfinishedFiberIsClean) {
  // Like BM_FiberSwitch: the body never returns, so its frames (with the
  // sanitizer redzones around `scratch`) are abandoned on the stack.  The
  // next fibers reuse that stack and must run cleanly on it.
  for (int round = 0; round < 3; ++round) {
    int switches = 0;
    {
      Fiber spinner([&] {
        volatile char scratch[512];
        while (true) {
          scratch[switches % 512] = 1;
          switches += scratch[switches % 512];
          Fiber::yield();
        }
      });
      for (int i = 0; i < 10; ++i) spinner.resume();
      EXPECT_FALSE(spinner.finished());
    }
    EXPECT_EQ(switches, 10);
    int sum = -1;
    Fiber writer([&] {
      char buffer[128 * 1024];
      std::memset(buffer, 1, sizeof buffer);
      try {
        throw std::runtime_error(std::string(buffer, 3));
      } catch (const std::runtime_error& e) {
        sum = static_cast<int>(std::strlen(e.what())) + buffer[sizeof buffer - 1];
      }
    });
    writer.resume();
    EXPECT_TRUE(writer.finished());
    EXPECT_EQ(sum, 4);
  }
}

// Uses about `depth` KiB of stack, then returns: the live 1 KiB array keeps
// every frame on the stack, and no frame is large enough to skip a guard
// page.  Without a guard the overrun would silently write below the stack.
int recurse(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  return recurse(depth - 1) + frame[0];
}

// The overflow must end the process through the guard page's fault: by
// SIGSEGV, or, in a sanitizer build, by the sanitizer's SEGV report.
bool died_from_fault(int status) {
  if (WIFSIGNALED(status)) {
    return WTERMSIG(status) == SIGSEGV || WTERMSIG(status) == SIGBUS;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) != 0;
}

TEST(FiberDeathTest, StackOverflowFaultsOnTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        Fiber f([] { recurse(64); }, 16 * 1024);
        f.resume();
      },
      died_from_fault, "^$|SEGV|stack-overflow");
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  for (const int t : {2, 1, 3}) {
    e.spawn("p" + std::to_string(t), [&, t](Process&) { order.push_back(t); },
            t);
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, EqualTimestampsFireFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.spawn("p" + std::to_string(i), [&, i](Process&) { order.push_back(i); },
            1.0);
  }
  e.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RejectsPastEvents) {
  Engine e;
  e.spawn("p", [&](Process& p) {
    p.advance(5.0);
    EXPECT_THROW(e.spawn("late", [](Process&) {}, 1.0), InvalidArgument);
  });
  e.run();  // the rejected process was never created, so nothing deadlocks
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, AdvanceOntoAQueuedWakeTimeYieldsFifo) {
  Engine e;
  std::vector<std::string> order;
  e.spawn("sleeper", [&](Process& p) {
    p.advance(2.0);  // queued: the runner's start is still pending
    order.push_back("sleeper@" + std::to_string(p.engine().now()));
  });
  e.spawn("runner", [&](Process& p) {
    p.advance(1.0);  // before the sleeper's wake: keeps running
    order.push_back("runner@" + std::to_string(p.engine().now()));
    p.advance(1.0);  // onto the sleeper's wake time: queued behind it
    order.push_back("runner@" + std::to_string(p.engine().now()));
  });
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"runner@1.000000",
                                             "sleeper@2.000000",
                                             "runner@2.000000"}));
  EXPECT_EQ(e.events_dispatched(), 5u);  // two starts, three advances
  EXPECT_EQ(e.inline_wakes(), 1u);
}

// Two processes exchange 50 round trips: each side pays its overheads with
// advance(), wakes the peer at the message's arrival time and blocks for
// the reply.  302 is the count the engine dispatched when every advance was
// a queued event, so inline wakes must keep counting.
TEST(Engine, PingPongDispatchCountIsPinned) {
  constexpr int kRounds = 50;
  Engine e;
  Process* pong = nullptr;
  Process& ping = e.spawn("ping", [&](Process& p) {
    for (int i = 0; i < kRounds; ++i) {
      p.advance(1e-6);                            // send overhead
      pong->unblock_at(p.engine().now() + 3e-6);  // arrival at the peer
      p.block();                                  // wait for the reply
      p.advance(0.5e-6);                          // receive overhead
    }
  });
  pong = &e.spawn("pong", [&](Process& p) {
    for (int i = 0; i < kRounds; ++i) {
      p.block();
      p.advance(0.5e-6);
      p.advance(1e-6);
      ping.unblock_at(p.engine().now() + 3e-6);
    }
  });
  e.run();
  EXPECT_EQ(e.events_dispatched(), 302u);
  EXPECT_GT(e.inline_wakes(), 0u);
}

TEST(Engine, RunRecordsEventAndInlineWakeCounters) {
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  Engine e;
  for (int i = 0; i < 4; ++i) {
    e.spawn("p" + std::to_string(i), [i](Process& p) {
      for (int k = 0; k < 10; ++k) p.advance(1.0 + 0.25 * i);
    });
  }
  e.run();
  obs::set_metrics_enabled(false);
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  obs::reset_metrics();
  const obs::CounterValue* events = snap.counter("sim.events");
  const obs::CounterValue* inline_wakes = snap.counter("sim.inline_wakes");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(inline_wakes, nullptr);
  EXPECT_EQ(events->value, e.events_dispatched());
  EXPECT_EQ(inline_wakes->value, e.inline_wakes());
  EXPECT_EQ(e.events_dispatched(), 44u);
  EXPECT_GT(e.inline_wakes(), 0u);
}

TEST(Engine, ProcessAdvancesClock) {
  Engine e;
  Seconds observed = -1.0;
  e.spawn("p", [&](Process& p) {
    p.advance(1.5);
    p.advance(0.5);
    observed = p.engine().now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(observed, 2.0);
}

TEST(Engine, BlockAndUnblockAt) {
  Engine e;
  Seconds resumed_at = -1.0;
  Process& waiter = e.spawn("waiter", [&](Process& p) {
    p.block();
    resumed_at = p.engine().now();
  });
  e.spawn("waker", [&](Process& p) {
    p.advance(1.0);
    waiter.unblock_at(4.0);
  });
  e.run();
  EXPECT_DOUBLE_EQ(resumed_at, 4.0);
}

TEST(Engine, UnblockInPastClampsToNow) {
  Engine e;
  Seconds resumed_at = -1.0;
  Process& waiter = e.spawn("waiter", [&](Process& p) {
    p.block();
    resumed_at = p.engine().now();
  });
  e.spawn("waker", [&](Process& p) {
    p.advance(3.0);
    waiter.unblock_at(1.0);  // already in the past
  });
  e.run();
  EXPECT_DOUBLE_EQ(resumed_at, 3.0);
}

TEST(Engine, DeadlockDetection) {
  Engine e;
  e.spawn("stuck", [&](Process& p) { p.block(); });
  EXPECT_THROW(e.run(), InternalError);
}

// "a" blocks with "b"'s start queued, so it hands control straight to "b";
// "b" then blocks on an empty queue, which must end the run as a deadlock
// naming both.
TEST(Engine, DeadlockReportedWhenTheLastRunningProcessBlocks) {
  Engine e;
  e.spawn("a", [](Process& p) { p.block(); });
  e.spawn("b", [](Process& p) {
    p.advance(1.0);
    p.block();
  });
  try {
    e.run();
    FAIL() << "the deadlock was not reported";
  } catch (const InternalError& err) {
    EXPECT_NE(std::string(err.what()).find("2 process(es) blocked: a, b"),
              std::string::npos)
        << err.what();
  }
  EXPECT_EQ(e.events_dispatched(), 3u);  // two starts, one inline advance
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, ManyProcessesDeterministic) {
  const auto run_once = [] {
    Engine e;
    std::vector<std::uint32_t> finish_order;
    for (int i = 0; i < 64; ++i) {
      e.spawn("p" + std::to_string(i), [&, i](Process& p) {
        p.advance(((i * 7) % 13) * 0.1 + 0.05);
        finish_order.push_back(p.id());
      });
    }
    e.run();
    return finish_order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
}

TEST(Engine, ThousandProcessesResumeInEngineOrder) {
  // Every third process sleeps 2 s per round, the rest 1 s.  At a shared
  // wake-up time the 2 s sleepers were scheduled first (one second
  // earlier), and within a group processes wake in id order, so the engine
  // must produce exactly the order built independently below.
  constexpr int kProcs = 1000;
  constexpr int kRounds = 20;
  const auto step = [](int i) { return i % 3 == 0 ? 2 : 1; };
  const auto fold = [](std::uint64_t h, int round) {
    return h * 1000003u + static_cast<std::uint64_t>(round);
  };
  Engine e;
  std::vector<std::uint32_t> woke;
  std::vector<std::uint64_t> folded(kProcs);
  for (int i = 0; i < kProcs; ++i) {
    e.spawn("p" + std::to_string(i), [&, i](Process& p) {
      std::uint64_t h = static_cast<std::uint64_t>(i);  // lives across yields
      for (int r = 0; r < kRounds; ++r) {
        p.advance(step(i));
        woke.push_back(p.id());
        h = fold(h, r);
      }
      folded[static_cast<std::size_t>(i)] = h;
    });
  }
  e.run();

  std::vector<std::uint32_t> expected;
  for (int t = 1; t <= 2 * kRounds; ++t) {
    for (const int s : {2, 1}) {
      if (t % s != 0 || t / s > kRounds) continue;
      for (int i = 0; i < kProcs; ++i) {
        if (step(i) == s) expected.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  EXPECT_EQ(woke, expected);
  EXPECT_DOUBLE_EQ(e.now(), 2.0 * kRounds);
  for (int i = 0; i < kProcs; ++i) {
    std::uint64_t h = static_cast<std::uint64_t>(i);
    for (int r = 0; r < kRounds; ++r) h = fold(h, r);
    ASSERT_EQ(folded[static_cast<std::size_t>(i)], h) << "process " << i;
  }
}

TEST(Engine, ProcessExceptionPropagates) {
  Engine e;
  e.spawn("bad", [](Process& p) {
    p.advance(1.0);
    throw std::runtime_error("rank failed");
  });
  EXPECT_THROW(e.run(), std::runtime_error);
}

// Engine::run resumes only "ticker"; every later dispatch is a handoff
// between the two processes, so "bad" starts, sleeps and throws without
// the run loop resuming it.  Its exception must still leave run().
TEST(Engine, ExceptionFromAHandedOffProcessPropagates) {
  Engine e;
  int ticks = 0;
  e.spawn("ticker", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      p.advance(1.0);
      ++ticks;
    }
  });
  e.spawn(
      "bad",
      [](Process& p) {
        p.advance(1.0);
        throw std::runtime_error("rank failed after a handoff");
      },
      0.5);
  try {
    e.run();
    FAIL() << "the process's exception did not reach run()";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "rank failed after a handoff");
  }
  EXPECT_EQ(ticks, 1);
  EXPECT_DOUBLE_EQ(e.now(), 1.5);
  EXPECT_FALSE(Fiber::in_fiber());
}

// 64 processes take seeded random steps: advance by 0..3 quarter-seconds,
// block while another process can still run, or unblock a blocked process
// at a time up to half a second ahead (or in the past, which clamps).  A
// finishing process unblocks every process still waiting, so the run always
// drains.  The resume trace (time, process) is folded into one checksum.
// The pinned values were recorded with the engine that resumed every
// process from Engine::run's loop, before the direct handoff, so any change
// in event order, tie-breaks or dispatch counting fails here.
TEST(Engine, RandomAdvanceBlockUnblockTraceIsPinned) {
  constexpr int kProcs = 64;
  constexpr int kSteps = 200;
  const auto splitmix = [](std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  Engine e;
  std::vector<Process*> procs;
  std::vector<std::uint32_t> waiting;  // blocked, no wake-up scheduled yet
  int runnable = kProcs;               // not finished and not waiting
  std::uint64_t trace = 0xcbf29ce484222325ULL;
  std::uint64_t resumes = 0;
  const auto record = [&](const Process& p) {
    std::uint64_t bits = 0;
    const double now = e.now();
    std::memcpy(&bits, &now, sizeof bits);
    for (const std::uint64_t word : {bits, std::uint64_t{p.id()}}) {
      trace = (trace ^ word) * 0x100000001b3ULL;
    }
    ++resumes;
  };
  const auto unblock = [&](std::size_t slot, Seconds when) {
    Process* target = procs[waiting[slot]];
    waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(slot));
    ++runnable;
    target->unblock_at(when);
  };
  for (int i = 0; i < kProcs; ++i) {
    procs.push_back(&e.spawn(
        "p" + std::to_string(i),
        [&, i](Process& p) {
          std::uint64_t rng = 0x5eed0000ULL + static_cast<std::uint64_t>(i);
          record(p);
          for (int step = 0; step < kSteps; ++step) {
            const std::uint64_t draw = splitmix(rng);
            const int action = static_cast<int>(draw % 8);
            const int quarters = static_cast<int>((draw >> 8) % 4);
            if (action < 4) {
              p.advance(0.25 * quarters);
            } else if (action < 6) {
              if (runnable < 2) continue;
              waiting.push_back(p.id());
              --runnable;
              p.block();
            } else {
              if (waiting.empty()) continue;
              const std::size_t slot = (draw >> 16) % waiting.size();
              unblock(slot, e.now() + 0.25 * (quarters - 1));
            }
            record(p);
          }
          while (!waiting.empty()) unblock(0, e.now() + 0.25);
          --runnable;
        },
        0.125 * (i % 5)));
  }
  e.run();
  EXPECT_EQ(e.live_process_count(), 0u);
  EXPECT_EQ(resumes, 12583u);
  EXPECT_EQ(trace, 5647450521536194811u);
  EXPECT_EQ(e.events_dispatched(), 7992u);
  EXPECT_EQ(e.inline_wakes(), 36u);
  EXPECT_DOUBLE_EQ(e.now(), 129.375);
}

}  // namespace
}  // namespace swapp::sim
