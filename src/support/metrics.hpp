#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

// Live metrics registry: process-wide counters, gauges, and fixed-bucket
// histograms for the serving path and the layers under it.
//
// trace.hpp answers "where did this run spend its rounds" as a post-hoc
// timeline; this module answers "what is the process doing *right now*" as
// a scrape-able snapshot — per-op request counts, cache hit/miss/eviction
// counters, queue depth, simulated-cost and host-latency distributions,
// fault-recovery charges.  dyncg_serve exposes the registry three ways: the
// `metrics` protocol op (registry JSON), `--metrics-out FILE` (Prometheus
// text exposition or registry JSON, rewritten periodically), and a registry
// dump inside BENCH_serve.json that the perf gate diffs exactly
// (docs/OBSERVABILITY.md#metrics).
//
// The contract is trace.hpp's, restated:
//
//   * Zero overhead when disabled.  Every record path (Counter::add,
//     Gauge::set, Histogram::observe) starts with one relaxed atomic load
//     and returns; it allocates nothing and touches no shared state
//     (tests/test_metrics.cpp counts allocations).  Metrics therefore stay
//     compiled in unconditionally.
//   * Per-thread shards, merged at collection.  Counter and histogram
//     increments land in a thread-local shard with no cross-thread
//     synchronization; collection sums the shards.  Sums are
//     order-independent, so every counter value and histogram bucket is
//     byte-identical at any DYNCG_THREADS for the same work (the
//     determinism contract of docs/PARALLELISM.md).  Gauges are set-last-
//     wins and must be set from one thread (the server's poll loop).
//   * Never perturbs simulated ledgers.  Metrics only *read* cost figures;
//     enabling them cannot change any simulated figure (asserted by
//     tests/test_metrics.cpp).
//   * Stability classes.  Every metric is registered as kDeterministic
//     (simulated-cost figures and pure functions of the request stream —
//     exact-compared by dyncg_bench_diff) or kHostNoisy (wall-clock and
//     traffic-shape figures — reported, never gated).
//
// Collection (snapshot / to_json / write / reset) must not run concurrently
// with recording; for pool workers this is guaranteed after ThreadPool::run
// returns, which is when the server collects (between batches).
//
// Activation: metrics::enable() programmatically (dyncg_serve enables at
// startup), or DYNCG_METRICS=1 / DYNCG_METRICS=FILE (write FILE at process
// exit; ".json" selects registry JSON, anything else Prometheus text).
namespace dyncg {
namespace metrics {

inline constexpr std::uint64_t kMetricsSchemaVersion = 1;

enum class Stability {
  kDeterministic,  // exact at any thread count; gated by dyncg_bench_diff
  kHostNoisy,      // wall-clock / traffic-shape; reported, never gated
};
// "deterministic" / "host-noisy" — the `stability` field of exports.
const char* stability_name(Stability s);

namespace detail {
extern std::atomic<bool> g_enabled;
void counter_add(std::uint32_t idx, std::uint64_t n);
std::uint64_t counter_value(std::uint32_t idx);
void histogram_observe(std::uint32_t idx, std::uint32_t bucket,
                       std::uint64_t value);
}  // namespace detail

// Is recording currently on?  (Relaxed; safe to call from any thread.)
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void enable();
void disable();

// Zero every counter, gauge, and histogram (registrations survive; the
// enabled flag is untouched).  Collection contract applies.
void reset();

// Monotone counter.  Handles are process-lifetime references returned by
// metrics::counter(); re-registering a name returns the same handle.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    detail::counter_add(idx_, n);
  }
  // Merged value across shards (locks the registry; not a record path).
  std::uint64_t value() const { return detail::counter_value(idx_); }

 private:
  friend Counter& counter(const std::string&, const std::string&, Stability);
  explicit Counter(std::uint32_t idx) : idx_(idx) {}
  std::uint32_t idx_;
};

// Set-last-wins gauge (single writer: the server's poll loop).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    value_->store(v, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_->load(std::memory_order_relaxed);
  }

 private:
  friend Gauge& gauge(const std::string&, const std::string&, Stability);
  explicit Gauge(std::atomic<std::int64_t>* value) : value_(value) {}
  std::atomic<std::int64_t>* value_;
};

// Fixed-bucket histogram over non-negative integer observations (simulated
// rounds/messages/local_ops, host nanoseconds).  `bounds` are inclusive
// upper bounds; an observation lands in the first bucket whose bound is
// >= v, or in the overflow bucket (so there are bounds.size()+1 buckets).
// Bucket counts are per-bucket, not cumulative; the Prometheus exposition
// cumulates them.
class Histogram {
 public:
  void observe(std::uint64_t v) {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    std::uint32_t bucket = 0;
    while (bucket < bounds_.size() && v > bounds_[bucket]) ++bucket;
    detail::histogram_observe(idx_, bucket, v);
  }
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }

 private:
  friend Histogram& histogram(const std::string&, const std::string&,
                              Stability, std::vector<std::uint64_t>);
  Histogram(std::uint32_t idx, std::vector<std::uint64_t> bounds)
      : idx_(idx), bounds_(std::move(bounds)) {}
  std::uint32_t idx_;
  std::vector<std::uint64_t> bounds_;
};

// Registration.  Names are flat, dot-separated ("serve.cache.hits"); the
// Prometheus exposition maps them to dyncg_serve_cache_hits.  Registering
// an existing name returns the existing handle; a kind or bucket-bounds
// mismatch on re-registration is a caller bug and aborts.  Registration
// locks the registry — do it at setup (constructors, function-local
// statics), not per record.
Counter& counter(const std::string& name, const std::string& help,
                 Stability stability);
Gauge& gauge(const std::string& name, const std::string& help,
             Stability stability);
Histogram& histogram(const std::string& name, const std::string& help,
                     Stability stability, std::vector<std::uint64_t> bounds);

// {1, 2, 4, ..., 2^(count-1)} — the standard bounds for simulated-cost
// histograms (exact, scale-free, stable across runs).
std::vector<std::uint64_t> pow2_bounds(unsigned count);

// --- collection -------------------------------------------------------------

struct CounterSnapshot {
  std::string name, help;
  Stability stability = Stability::kDeterministic;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name, help;
  Stability stability = Stability::kDeterministic;
  std::int64_t value = 0;
};
struct HistogramSnapshot {
  std::string name, help;
  Stability stability = Stability::kDeterministic;
  std::vector<std::uint64_t> bounds;   // upper bounds, ascending
  std::vector<std::uint64_t> buckets;  // bounds.size()+1, per-bucket counts
  std::uint64_t count = 0;             // sum of buckets
  std::uint64_t sum = 0;               // sum of observed values
};

// Merged registry state, each kind sorted by name (deterministic output).
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};
RegistrySnapshot snapshot();

// Registry JSON (docs/OBSERVABILITY.md#metrics; schema checked by
// Metrics.ToJsonIsSchemaValidAndSorted):
// {"schema_version":1,"kind":"dyncg-metrics",
//  "counters":[...],"gauges":[...],"histograms":[...]}.
std::string to_json();

// Prometheus text exposition format 0.0.4 (# HELP / # TYPE / samples;
// histogram buckets cumulated with le labels).
std::string to_prometheus();

// Write the current registry to `path`: ".json" suffix selects registry
// JSON, anything else Prometheus text.  Returns false when the file cannot
// be written.
bool write(const std::string& path);

}  // namespace metrics
}  // namespace dyncg
