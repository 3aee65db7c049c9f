// Deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a time-ordered event queue with
// FIFO tie-breaking (events at equal timestamps fire in insertion order), so
// every simulation is exactly reproducible.  Simulated processes (MPI ranks,
// benchmark drivers) run on fibers and interact with the clock through
// Process::advance / block / unblock_at.  Every event resumes one process:
// an event is a plain {time, seq, process} record, so queueing one never
// touches the heap beyond the queue's own storage.
//
// A process that suspends dispatches the next event itself and switches
// straight into that event's process, so one dispatch costs one fiber
// switch.  Engine::run's loop takes over only to start the run, after a
// process body finishes, and when a process blocks on an empty queue.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/fiber.h"
#include "support/units.h"

namespace swapp::sim {

class Engine;

/// A simulated process: a named fiber with blocking primitives.
///
/// Created through Engine::spawn; lifetime is owned by the engine.  All
/// member functions other than unblock_at must be called from inside the
/// process's own fiber.
class Process {
 public:
  const std::string& name() const noexcept { return name_; }
  std::uint32_t id() const noexcept { return id_; }
  bool finished() const noexcept { return fiber_->finished(); }

  /// Advances this process's local view of time by `dt`: the process sleeps
  /// and resumes once the clock reaches now() + dt.  When no queued event is
  /// due at or before that time, the wake-up would be the next event
  /// dispatched anyway, so the clock moves without a fiber switch.
  /// Otherwise the wake-up takes the earliest event's place in the queue
  /// and that event's process runs next.
  void advance(Seconds dt);

  /// Suspends until another party calls unblock_at().  Returns the
  /// simulation time at which the process was resumed.
  Seconds block();

  /// Schedules this process to resume at simulation time `when` (clamped to
  /// the current time if in the past).  Callable from any context.  Calling
  /// it for a process that is not blocked is an error.
  void unblock_at(Seconds when);

  /// True while the process is waiting inside block().
  bool blocked() const noexcept { return blocked_; }

  Engine& engine() noexcept { return engine_; }

 private:
  friend class Engine;
  Process(Engine& engine, std::uint32_t id, std::string name,
          std::function<void(Process&)> body, std::size_t stack_bytes);
  /// Marks the process running again, for a dispatched wake-up event.
  void mark_woken() noexcept;
  /// Hands this thread from the calling process's fiber to `next`'s, or to
  /// Engine::run's loop when `next` is null; returns when this process is
  /// resumed.
  void switch_to(Process* next);

  Engine& engine_;
  std::uint32_t id_;
  std::string name_;
  std::unique_ptr<Fiber> fiber_;
  bool blocked_ = false;
  bool resume_scheduled_ = false;
};

/// The simulation engine: clock + event queue + process table.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time in seconds.
  Seconds now() const noexcept { return now_; }

  /// Creates a process whose body starts executing at time `start`
  /// (>= now(); an earlier start throws InvalidArgument).  The returned
  /// reference stays valid for the engine's lifetime.
  Process& spawn(std::string name, std::function<void(Process&)> body,
                 Seconds start = 0.0,
                 std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  /// Runs until the event queue drains, then records the run's dispatched
  /// events and inline wakes as the `sim.events` and `sim.inline_wakes`
  /// metrics.  Throws InternalError if processes remain blocked with no
  /// pending events (deadlock), or propagates the first exception thrown by
  /// a process body.
  void run();

  /// Number of processes that have not finished their body.
  std::size_t live_process_count() const noexcept;

  /// Total events dispatched so far, inline wakes included (for
  /// micro-benchmarks and tests).
  std::uint64_t events_dispatched() const noexcept { return dispatched_; }

  /// Wake-ups that Process::advance completed without a fiber switch.
  std::uint64_t inline_wakes() const noexcept { return inline_wakes_; }

 private:
  friend class Process;

  struct Event {
    Seconds time;
    std::uint64_t seq;
    Process* proc;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  /// The queue order: by time, FIFO (by seq) within a timestamp.
  static bool earlier(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Queues a wake-up of `p` at `when` (>= now).
  void schedule_wake(Seconds when, Process& p);
  /// Moves the clock to `when` and counts the wake-up as dispatched if it
  /// would be the next event popped; false if it must be queued instead.
  bool wake_inline(Seconds when);
  /// Dispatches the earliest event: removes it, moves the clock to it and
  /// counts it.  Returns its process, or null when the queue is empty.
  Process* dispatch_next();
  /// Queues a wake-up of `p` at `when` and dispatches the earliest event,
  /// for a queue whose earliest event is due at or before `when`.  Push
  /// then pop would pop that same event (on a tie the wake-up's larger seq
  /// loses), so the wake-up takes its place in one sift-down.  Returns the
  /// dispatched event's process.
  Process& exchange_next(Seconds when, Process& p);
  /// Puts `ev` into the hole at the root of heap_ and restores heap order.
  void sift_down_from_root(Event ev) noexcept;

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t inline_wakes_ = 0;
  /// Binary min-heap in earlier() order: heap_[0] is the next event.
  std::vector<Event> heap_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace swapp::sim
