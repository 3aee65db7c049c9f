// Stackful cooperative fibers.
//
// Simulated MPI ranks are written as ordinary blocking C++ code (the same way
// the real NAS-MZ and IMB sources are written); each rank runs on a fiber and
// the discrete-event engine switches between them.  This is the execution
// model used by mature network simulators (e.g. SimGrid): one OS thread, many
// user-level contexts, fully deterministic scheduling.
//
// On x86-64 a switch is a short hand-written routine that saves the
// callee-saved registers and the SSE/x87 control words on the fiber's own
// stack and swaps the stack pointer (no system call).  Other ISAs fall back
// to POSIX ucontext.  Every stack has a PROT_NONE guard page below it, so an
// overrun faults instead of corrupting the heap, and released stacks are
// reused through a per-thread free list.
//
// The scheduler (the code outside every fiber) enters with resume(); a
// running fiber either hands control straight to another fiber with
// transfer() or returns it to the scheduler with yield() or by finishing.
// The scheduler's suspended context is one per-thread value, so any fiber
// can return to it.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace swapp::sim {

/// A single user-level execution context.
///
/// The fiber's body runs when `resume()` or `transfer()` is called.  Fibers
/// are not thread-safe: the whole simulation is single-threaded by design.
class Fiber {
 public:
  /// Default stack: generous enough for the deepest simulated call chains
  /// (collective algorithms recursing over log2(ranks) levels).
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfers control from the scheduler into the fiber and returns once
  /// control comes back to the scheduler: when this fiber, or one that
  /// control was transferred to since, yields or finishes.  If the fiber
  /// that handed control back exited with an exception, rethrows it.  Must
  /// be called from outside any fiber.
  void resume();

  /// Transfers control from the currently-running fiber straight into
  /// `next` (suspended or not yet started, never finished), without passing
  /// through the scheduler.  Returns when some context switches back into
  /// the calling fiber.  Must be called from inside a fiber body.
  static void transfer(Fiber& next);

  /// Transfers control from the currently-running fiber back to the
  /// scheduler.  Must be called from inside a fiber body.
  static void yield();

  /// True once the body has returned.  Resuming a finished fiber throws.
  bool finished() const noexcept { return finished_; }

  /// True while any fiber body is executing on this thread.
  static bool in_fiber() noexcept;

 private:
  [[noreturn]] static void entry(Fiber* self);
#if !defined(__x86_64__)
  static void trampoline(unsigned hi, unsigned lo);
#endif
  void switch_out(bool finishing);  ///< fiber -> scheduler

  std::function<void()> body_;
  char* stack_ = nullptr;  ///< lowest usable byte; the guard page is below
  std::size_t stack_bytes_ = 0;
#if defined(__x86_64__)
  void* sp_ = nullptr;  ///< fiber's stack pointer while suspended
#else
  ucontext_t context_{};
#endif
  void* tsan_fiber_ = nullptr;  ///< ThreadSanitizer handle (TSan builds)
  std::exception_ptr failure_;
  bool finished_ = false;
};

}  // namespace swapp::sim
