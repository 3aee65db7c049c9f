// Span tracer: RAII spans with parent/child nesting that survives thread-pool
// fan-out, buffered per thread and drained to JSONL or Chrome trace-event
// files (obs/export.h).
//
// Model: a `Span` opens on construction and closes on destruction.  Its
// parent is the innermost span open on the same thread, or — when the thread
// has none, as a pool worker does — the *logical parent* installed by
// `LogicalParentScope`.  `support/parallel` installs the dispatching caller's
// current span as every worker's logical parent, so a trace taken across a
// `parallel_for` stitches into one tree: GA restart spans on four workers all
// hang off the caller's "ga.search" span.
//
// Every record carries a stable small thread id (registration order) and the
// span's own id, so exporters can emit both flat JSONL and nested Chrome
// trace events.  Counter samples (`trace_counter`) ride in the same buffers
// and become `ph:"C"` events — the GA uses them for per-generation
// convergence series.
//
// Disabled (the default), a Span construction is one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swapp::obs {

/// Runtime switch for span/counter recording.
bool tracing_enabled() noexcept;
void set_tracing_enabled(bool on) noexcept;

/// One completed trace record.
struct TraceEvent {
  enum class Kind { kSpan, kCounter };
  Kind kind = Kind::kSpan;
  std::string name;
  std::uint64_t id = 0;      ///< span id; 0 for counter samples
  std::uint64_t parent = 0;  ///< enclosing span id; 0 = root
  std::uint32_t tid = 0;     ///< stable per-thread id (registration order)
  double start_us = 0.0;     ///< µs since the process trace epoch
  double dur_us = 0.0;       ///< spans only
  double value = 0.0;        ///< counter samples only
};

class Span {
 public:
  /// `name` must outlive the span (string literals at every call site).
  explicit Span(const char* name) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id, or 0 when tracing was disabled at construction.
  std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_us_ = 0.0;
};

/// Innermost open span on this thread (else its logical parent, else 0) —
/// what a fan-out should install as its workers' logical parent.
std::uint64_t current_span_id() noexcept;

/// Scoped override of this thread's fallback parent; used by the thread pool
/// so worker-side spans attach to the dispatching caller's span.
class LogicalParentScope {
 public:
  explicit LogicalParentScope(std::uint64_t parent_id) noexcept;
  ~LogicalParentScope();

  LogicalParentScope(const LogicalParentScope&) = delete;
  LogicalParentScope& operator=(const LogicalParentScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// Records a named sample at the current time (Chrome `ph:"C"` counter
/// track).  No-op while tracing is disabled.
void trace_counter(const char* name, double value) noexcept;

/// Monotonic µs since the process trace epoch.
double trace_now_us() noexcept;

/// Moves every completed record out of every thread buffer, sorted by start
/// time (ties by id).  Spans still open stay with their thread and appear in
/// a later drain once closed.
std::vector<TraceEvent> drain_trace();

/// Open spans on the calling thread (test hook: 0 after balanced RAII).
std::size_t open_span_count() noexcept;

}  // namespace swapp::obs

#define SWAPP_OBS_CONCAT_(a, b) a##b
#define SWAPP_OBS_CONCAT(a, b) SWAPP_OBS_CONCAT_(a, b)

/// Opens a span for the rest of the enclosing scope.
#define SWAPP_SPAN(name) \
  const ::swapp::obs::Span SWAPP_OBS_CONCAT(swapp_span_, __LINE__){name}

#define SWAPP_TRACE_COUNTER(name, value)                \
  do {                                                  \
    if (::swapp::obs::tracing_enabled()) [[unlikely]] { \
      ::swapp::obs::trace_counter(name, value);         \
    }                                                   \
  } while (false)
