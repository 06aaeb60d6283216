#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/cost.hpp"

// Structured tracing: nested, thread-safe RAII spans with cost attribution.
//
// A span covers a lexical scope and records, when tracing is enabled, the
// scope's host wall-clock interval, the recording thread, its nesting depth,
// and — when bound to a CostLedger — the ledger delta (rounds, messages,
// local_ops) accrued inside the scope.  The ops library, the parallel
// envelope, and the Section 4/5 algorithms are annotated with spans, so an
// enabled trace shows *where* inside `envelope → merge → sort` the rounds
// and messages of a run were spent.
//
// Zero overhead when disabled.  The span constructor performs one relaxed
// atomic load and zero-initializes a few POD members; it allocates nothing
// and touches no shared state (tests/test_trace.cpp counts allocations to
// enforce this).  Tracing therefore stays compiled in unconditionally.
//
// Determinism contract (docs/PARALLELISM.md).  Spans only *read* the ledger;
// they never charge it, so enabling tracing cannot change any simulated
// figure.  Events are buffered per thread with no cross-thread
// synchronization on the record path, which keeps the host-parallel engine's
// "no coordination inside parallel regions" property intact.  Collection
// (snapshot / write_* / clear) must be called while no spans are being
// recorded concurrently; for pool workers this is guaranteed after any
// ThreadPool::run returns (its completion barrier orders the workers'
// buffer writes before the caller).
//
// Activation: trace::enable() programmatically, dyncg_cli --trace-out=FILE,
// or the DYNCG_TRACE environment variable.  DYNCG_TRACE=FILE enables
// tracing at startup and writes FILE at process exit — Chrome trace_event
// JSON by default (load in chrome://tracing or https://ui.perfetto.dev), or
// the flat JSONL metrics stream when FILE ends in ".jsonl".
// DYNCG_TRACE=1 enables recording without the exit writer.  See
// docs/OBSERVABILITY.md for the schemas.
namespace dyncg {
namespace trace {

// One completed span.
struct Event {
  std::string name;
  std::uint32_t tid = 0;    // tracer-assigned thread id, 0 = first recorder
  std::uint32_t depth = 0;  // nesting depth within the recording thread
  std::uint64_t start_ns = 0;  // steady-clock ns since process trace epoch
  std::uint64_t dur_ns = 0;
  CostSnapshot cost;  // ledger delta; all-zero for spans without a ledger
};

namespace detail {
extern std::atomic<bool> g_enabled;
// Opens a span on this thread: bumps the nesting depth and returns the
// start timestamp.
std::uint64_t open_span();
// Closes it: pops the depth and appends the completed event to the
// thread-local buffer.
void close_span(const char* name, std::uint64_t start_ns,
                const CostSnapshot& cost);
}  // namespace detail

// Is recording currently on?  (Relaxed; safe to call from any thread.)
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void enable();
void disable();

// Number of buffered events across all threads.
std::size_t event_count();

// All buffered events, merged across threads and sorted by (start_ns, tid).
// See the collection contract above.
std::vector<Event> snapshot();

// Drop every buffered event (does not change the enabled flag).
void clear();

// Per-label totals: the events of one span name, summed.  A name groups up
// to its first '#', so request-tagged "serve.query#<key>" spans count as
// "serve.query".  "Self" subtracts the direct children only: the spans one
// level deeper on the same thread whose interval lies inside this one.  A
// child's cost is subtracted field by field down to zero, so a span without
// a ledger keeps a zero self cost above children that have one.  When every
// span reads one ledger, the self costs of all names sum to the cost of the
// outermost spans (docs/OBSERVABILITY.md#per-label-totals).
struct Total {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t self_ns = 0;
  CostSnapshot inclusive_cost;
  CostSnapshot self_cost;
};

// Totals over `events` (any order, e.g. snapshot()), sorted by name.
std::vector<Total> totals(const std::vector<Event>& events);

// Export the buffered events.  Returns false (leaving errno from stdio) when
// the file cannot be written.  Neither clears the buffer.
bool write_chrome_trace(const std::string& path);
bool write_jsonl(const std::string& path);
// Dispatch on extension: ".jsonl" → JSONL, anything else → Chrome trace.
bool write(const std::string& path);

// Runtime flush for long-lived processes: write (same extension dispatch as
// write()), then drop the buffered events so the next flush starts fresh.
// The buffer is cleared only on a successful write.  dyncg_serve wires this
// to the `flush_trace` admin op and to SIGUSR1, so a daemon's trace is
// reachable without killing it.  Collection contract applies.
bool write_and_clear(const std::string& path);

// RAII span.  Prefer the TRACE_SPAN / TRACE_SPAN_COST macros.
class Span {
 public:
  explicit Span(const char* name, const CostLedger* ledger = nullptr) {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    name_ = name;
    ledger_ = ledger;
    if (ledger != nullptr) start_cost_ = ledger->snapshot();
    start_ns_ = detail::open_span();
    active_ = true;
  }
  ~Span() {
    if (!active_) return;
    CostSnapshot delta;
    if (ledger_ != nullptr) delta = ledger_->snapshot() - start_cost_;
    detail::close_span(name_, start_ns_, delta);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const CostLedger* ledger_ = nullptr;
  CostSnapshot start_cost_{};
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace trace
}  // namespace dyncg

#define DYNCG_TRACE_CONCAT_(a, b) a##b
#define DYNCG_TRACE_CONCAT(a, b) DYNCG_TRACE_CONCAT_(a, b)

// Wall-clock-only span over the enclosing scope.
#define TRACE_SPAN(name) \
  ::dyncg::trace::Span DYNCG_TRACE_CONCAT(dyncg_trace_span_, __LINE__)(name)

// Span that additionally attributes the given CostLedger's delta.
#define TRACE_SPAN_COST(name, ledger)                                       \
  ::dyncg::trace::Span DYNCG_TRACE_CONCAT(dyncg_trace_span_, __LINE__)(     \
      name, &(ledger))
