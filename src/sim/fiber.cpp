#include "sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "support/error.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// swapp_fiber_switch(save_sp, load_sp): pushes the callee-saved registers
// and the MXCSR / x87 control words (callee-saved under the SysV ABI) onto
// the current stack, stores the stack pointer to *save_sp, then pops the
// same frame off load_sp and returns on that stack.
//
// swapp_fiber_start: where a fresh fiber's first switch "returns" to.  Its
// initial frame (see Fiber::Fiber) carries the Fiber in r12 and the entry
// function in r13; the undefined return address ends unwinding here.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl swapp_fiber_switch
  .hidden swapp_fiber_switch
  .type swapp_fiber_switch, @function
swapp_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size swapp_fiber_switch, .-swapp_fiber_switch

  .p2align 4
  .globl swapp_fiber_start
  .hidden swapp_fiber_start
  .type swapp_fiber_start, @function
swapp_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size swapp_fiber_start, .-swapp_fiber_start
  .popsection
)");

extern "C" void swapp_fiber_switch(void** save_sp, void* load_sp);
extern "C" void swapp_fiber_start();
#endif

namespace swapp::sim {
namespace {

// The single running fiber on this thread (the simulation is single-threaded;
// thread_local keeps tests that run simulations on worker threads safe).
thread_local Fiber* g_current_fiber = nullptr;
// The fiber that last switched back to the scheduler; resume() rethrows its
// failure.
thread_local Fiber* g_returning_fiber = nullptr;

// The scheduler's context while a fiber runs.  Every fiber returns to the
// same one, whichever fiber the scheduler resumed.
#if defined(__x86_64__)
thread_local void* g_scheduler_sp = nullptr;
#else
thread_local ucontext_t g_scheduler_context;
#endif

#if defined(__SANITIZE_ADDRESS__)
// The scheduler's stack, learned on every switch out of the scheduler and
// announced to ASan on every switch back.
thread_local const void* g_scheduler_stack = nullptr;
thread_local std::size_t g_scheduler_stack_bytes = 0;
// Whether the switch in flight left the scheduler (resume) rather than
// another fiber (transfer): only then are the previous stack's bounds the
// scheduler's.
thread_local bool g_switch_from_scheduler = false;

/// Completes a switch onto a fiber's stack.
void finish_switch_into_fiber(void* fake_stack) {
  if (g_switch_from_scheduler) {
    __sanitizer_finish_switch_fiber(fake_stack, &g_scheduler_stack,
                                    &g_scheduler_stack_bytes);
  } else {
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
  }
}
#endif
#if defined(__SANITIZE_THREAD__)
thread_local void* g_scheduler_tsan_fiber = nullptr;
#endif

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// Released stacks of this thread, most recent last.  A cold projection
/// creates tens of thousands of fibers; reusing their stacks saves the
/// mmap/mprotect/munmap calls and the fresh-page faults of each one.  The
/// list never outgrows the thread's peak number of live fibers.
struct StackCache {
  std::vector<std::pair<char*, std::size_t>> stacks;
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (const auto& [base, bytes] : stacks) {
      munmap(base - page_bytes(), bytes + page_bytes());
    }
  }
};
thread_local StackCache g_stack_cache;

/// Returns `bytes` (a page multiple) of stack with a PROT_NONE guard page
/// directly below the returned base.
char* acquire_stack(std::size_t bytes) {
  auto& stacks = g_stack_cache.stacks;
  const auto reusable = std::find_if(
      stacks.rbegin(), stacks.rend(),
      [bytes](const auto& stack) { return stack.second == bytes; });
  if (reusable != stacks.rend()) {
    char* base = reusable->first;
    stacks.erase(std::next(reusable).base());
    return base;
  }
  void* mem = mmap(nullptr, bytes + page_bytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  if (mprotect(mem, page_bytes(), PROT_NONE) != 0) {
    munmap(mem, bytes + page_bytes());
    throw std::bad_alloc();
  }
  return static_cast<char*>(mem) + page_bytes();
}

void release_stack(char* base, std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  // Frames of a fiber that never finished leave poisoned redzones behind.
  ASAN_UNPOISON_MEMORY_REGION(base, bytes);
#endif
  g_stack_cache.stacks.emplace_back(base, bytes);
}

}  // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)) {
  SWAPP_REQUIRE(body_ != nullptr, "fiber body must be callable");
  SWAPP_REQUIRE(stack_bytes >= 16 * 1024, "fiber stack too small");
  const std::size_t page = page_bytes();
  stack_bytes_ = (stack_bytes + page - 1) / page * page;
  stack_ = acquire_stack(stack_bytes_);
#if defined(__x86_64__)
  // The frame swapp_fiber_switch pops on the first resume: control words,
  // r15..r12, rbx, rbp, then the return address.  The fiber inherits the
  // creator's floating-point control state, as getcontext would.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_cw));
  auto* top = reinterpret_cast<std::uintptr_t*>(stack_ + stack_bytes_);
  std::uintptr_t* frame = top - 10;  // leaves the start thunk 16-aligned
  frame[0] = mxcsr | (std::uintptr_t{fpu_cw} << 32);
  frame[1] = 0;                                              // r15
  frame[2] = 0;                                              // r14
  frame[3] = reinterpret_cast<std::uintptr_t>(&Fiber::entry);  // r13
  frame[4] = reinterpret_cast<std::uintptr_t>(this);         // r12
  frame[5] = 0;                                              // rbx
  frame[6] = 0;                                              // rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&swapp_fiber_start);
  frame[8] = 0;  // the start thunk's (absent) return address
  frame[9] = 0;
  sp_ = frame;
#else
  SWAPP_ASSERT(getcontext(&context_) == 0, "getcontext failed");
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = stack_bytes_;
  // makecontext only passes ints; split the pointer into two 32-bit halves.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#endif
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  // An unfinished fiber's frames are abandoned, as with any stackful
  // coroutine: objects still live on its stack are not destroyed.
  release_stack(stack_, stack_bytes_);
}

#if !defined(__x86_64__)
void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto self = (static_cast<std::uintptr_t>(hi) << 32) |
                    static_cast<std::uintptr_t>(lo);
  entry(reinterpret_cast<Fiber*>(self));
}
#endif

void Fiber::entry(Fiber* self) {
#if defined(__SANITIZE_ADDRESS__)
  finish_switch_into_fiber(nullptr);
#endif
  try {
    self->body_();
  } catch (...) {
    self->failure_ = std::current_exception();
  }
  self->finished_ = true;
  self->switch_out(/*finishing=*/true);
  __builtin_unreachable();
}

void Fiber::resume() {
  SWAPP_ASSERT(g_current_fiber == nullptr,
               "resume() called from inside a fiber");
  SWAPP_ASSERT(!finished_, "resume() on a finished fiber");
  g_current_fiber = this;
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  g_switch_from_scheduler = true;
  __sanitizer_start_switch_fiber(&fake_stack, stack_, stack_bytes_);
#endif
#if defined(__SANITIZE_THREAD__)
  g_scheduler_tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(__x86_64__)
  swapp_fiber_switch(&g_scheduler_sp, sp_);
#else
  SWAPP_ASSERT(swapcontext(&g_scheduler_context, &context_) == 0,
               "swapcontext into fiber failed");
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  if (std::exception_ptr failure =
          std::exchange(g_returning_fiber->failure_, nullptr)) {
    std::rethrow_exception(failure);
  }
}

void Fiber::transfer(Fiber& next) {
  Fiber* self = g_current_fiber;
  SWAPP_ASSERT(self != nullptr, "transfer() called outside a fiber");
  SWAPP_ASSERT(&next != self, "transfer() to the running fiber");
  SWAPP_ASSERT(!next.finished_, "transfer() to a finished fiber");
  g_current_fiber = &next;
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  g_switch_from_scheduler = false;
  __sanitizer_start_switch_fiber(&fake_stack, next.stack_, next.stack_bytes_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(next.tsan_fiber_, 0);
#endif
#if defined(__x86_64__)
  swapp_fiber_switch(&self->sp_, next.sp_);
#else
  SWAPP_ASSERT(swapcontext(&self->context_, &next.context_) == 0,
               "swapcontext between fibers failed");
#endif
#if defined(__SANITIZE_ADDRESS__)
  finish_switch_into_fiber(fake_stack);
#endif
}

void Fiber::switch_out([[maybe_unused]] bool finishing) {
  g_current_fiber = nullptr;
  g_returning_fiber = this;
#if defined(__SANITIZE_ADDRESS__)
  // A null save slot tells ASan this stack is being left for good.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(finishing ? nullptr : &fake_stack,
                                 g_scheduler_stack, g_scheduler_stack_bytes);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(g_scheduler_tsan_fiber, 0);
#endif
#if defined(__x86_64__)
  swapp_fiber_switch(&sp_, g_scheduler_sp);
#else
  SWAPP_ASSERT(swapcontext(&context_, &g_scheduler_context) == 0,
               "swapcontext out of fiber failed");
#endif
#if defined(__SANITIZE_ADDRESS__)
  finish_switch_into_fiber(fake_stack);
#endif
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  SWAPP_ASSERT(self != nullptr, "yield() called outside a fiber");
  self->switch_out(/*finishing=*/false);
}

bool Fiber::in_fiber() noexcept { return g_current_fiber != nullptr; }

}  // namespace swapp::sim
