#include "sim/engine.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "support/error.h"

namespace swapp::sim {

Process::Process(Engine& engine, std::uint32_t id, std::string name,
                 std::function<void(Process&)> body, std::size_t stack_bytes)
    : engine_(engine), id_(id), name_(std::move(name)) {
  fiber_ = std::make_unique<Fiber>([this, body = std::move(body)] { body(*this); },
                                   stack_bytes);
}

void Process::advance(Seconds dt) {
  SWAPP_REQUIRE(dt >= 0.0, "cannot advance time backwards");
  SWAPP_ASSERT(Fiber::in_fiber(), "advance() called outside process context");
  if (dt == 0.0) return;
  const Seconds when = engine_.now() + dt;
  if (engine_.wake_inline(when)) return;
  blocked_ = true;
  resume_scheduled_ = true;
  engine_.schedule_wake(when, *this);
  Fiber::yield();
}

Seconds Process::block() {
  SWAPP_ASSERT(Fiber::in_fiber(), "block() called outside process context");
  blocked_ = true;
  resume_scheduled_ = false;
  Fiber::yield();
  return engine_.now();
}

void Process::unblock_at(Seconds when) {
  SWAPP_ASSERT(blocked_, "unblock_at() on a process that is not blocked");
  SWAPP_ASSERT(!resume_scheduled_, "process already scheduled to resume");
  resume_scheduled_ = true;
  engine_.schedule_wake(std::max(when, engine_.now()), *this);
}

void Process::wake() {
  blocked_ = false;
  resume_scheduled_ = false;
  fiber_->resume();
}

void Engine::schedule_wake(Seconds when, Process& p) {
  SWAPP_ASSERT(when >= now_, "wake-up scheduled in the past");
  queue_.push(Event{when, next_seq_++, &p});
}

bool Engine::wake_inline(Seconds when) {
  // Queued as an event, this wake-up would carry the largest sequence
  // number, so it is popped next exactly when every queued event is due
  // strictly later: an event due at `when` was queued first and wins the
  // FIFO tie-break.  Popping it would set the clock, count one dispatch and
  // resume this same process, which is what returning without a yield does.
  if (!queue_.empty() && queue_.top().time <= when) return false;
  now_ = when;
  ++dispatched_;
  ++inline_wakes_;
  return true;
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body,
                       Seconds start, std::size_t stack_bytes) {
  SWAPP_REQUIRE(start >= now_, "cannot start a process in the past");
  auto proc = std::unique_ptr<Process>(new Process(
      *this, static_cast<std::uint32_t>(processes_.size()), std::move(name),
      std::move(body), stack_bytes));
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  schedule_wake(start, ref);
  return ref;
}

void Engine::run() {
  const std::uint64_t dispatched_before = dispatched_;
  const std::uint64_t inline_before = inline_wakes_;
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    SWAPP_ASSERT(ev.time >= now_, "event queue delivered a past event");
    now_ = ev.time;
    ++dispatched_;
    ev.proc->wake();
  }
  SWAPP_COUNT("sim.events", dispatched_ - dispatched_before);
  SWAPP_COUNT("sim.inline_wakes", inline_wakes_ - inline_before);
  if (live_process_count() > 0) {
    std::string stuck;
    for (const auto& p : processes_) {
      if (!p->finished()) {
        if (!stuck.empty()) stuck += ", ";
        stuck += p->name();
      }
    }
    throw InternalError("simulation deadlock: no events pending but " +
                        std::to_string(live_process_count()) +
                        " process(es) blocked: " + stuck);
  }
}

std::size_t Engine::live_process_count() const noexcept {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->finished()) ++n;
  }
  return n;
}

}  // namespace swapp::sim
