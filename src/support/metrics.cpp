#include "support/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>

#include "support/assert.hpp"
#include "support/fatal.hpp"
#include "support/json.hpp"

namespace dyncg {
namespace metrics {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

const char* stability_name(Stability s) {
  return s == Stability::kDeterministic ? "deterministic" : "host-noisy";
}

namespace {

struct CounterDef {
  std::string name, help;
  Stability stability;
};
struct GaugeDef {
  std::string name, help;
  Stability stability;
  // Pointer (leaked with the registry) so handles stay valid across
  // vector growth.
  std::atomic<std::int64_t>* value;
};
struct HistogramDef {
  std::string name, help;
  Stability stability;
  std::vector<std::uint64_t> bounds;
};

// Per-thread recording shard.  The owning thread grows and bumps its shard
// without locking; collection walks all shards under the registry mutex
// (safe under the collection contract: no concurrent recording).  Shards
// are intentionally never freed — a thread that exits leaves its counts
// collectable, and the leak is bounded by threads-ever-created.
struct Shard {
  std::vector<std::uint64_t> counters;  // by counter idx
  // Per histogram idx: per-bucket counts (sized on first observe from the
  // handle's bound count, so no global reads on the record path).
  std::vector<std::vector<std::uint64_t>> hist_buckets;
  std::vector<std::uint64_t> hist_sums;  // by histogram idx
};

struct Kinds {
  std::deque<Counter> counters;  // deque: handle references stay valid
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
};

struct Registry {
  std::mutex mu;
  std::vector<CounterDef> counter_defs;
  std::vector<GaugeDef> gauge_defs;
  std::vector<HistogramDef> histogram_defs;
  Kinds handles;
  // name -> (kind, idx); kind: 0 counter, 1 gauge, 2 histogram.
  std::map<std::string, std::pair<int, std::uint32_t>> by_name;
  std::vector<Shard*> shards;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: threads may outlive statics
  return *r;
}

Shard& shard() {
  thread_local Shard* s = [] {
    auto* sh = new Shard;
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.shards.push_back(sh);
    return sh;
  }();
  return *s;
}

// DYNCG_METRICS env activation, mirroring DYNCG_TRACE: "1" enables
// recording; any other non-empty value enables and writes that path at
// process exit (and from the fatal path, so a crashed run keeps its
// last counts).
struct EnvActivation {
  std::string path;
  static EnvActivation& instance() {
    static EnvActivation* a = new EnvActivation;  // leaked: see trace.cpp
    return *a;
  }

 private:
  EnvActivation() {
    const char* s = std::getenv("DYNCG_METRICS");
    if (s == nullptr || *s == '\0' || std::string(s) == "0") return;
    detail::g_enabled.store(true, std::memory_order_relaxed);
    if (std::string(s) != "1") path = s;
    std::atexit([] {
      const std::string& p = EnvActivation::instance().path;
      if (p.empty()) return;
      if (!write(p)) {
        std::fprintf(stderr,
                     "dyncg: failed to write DYNCG_METRICS file '%s'\n",
                     p.c_str());
      }
    });
    fatal::register_flush([] {
      const std::string& p = EnvActivation::instance().path;
      if (!p.empty()) write(p);
    });
  }
};

[[maybe_unused]] const bool g_env_probe = (EnvActivation::instance(), true);

}  // namespace

namespace detail {

void counter_add(std::uint32_t idx, std::uint64_t n) {
  Shard& s = shard();
  if (s.counters.size() <= idx) s.counters.resize(idx + 1, 0);
  s.counters[idx] += n;
}

std::uint64_t counter_value(std::uint32_t idx) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t total = 0;
  for (const Shard* s : r.shards) {
    if (idx < s->counters.size()) total += s->counters[idx];
  }
  return total;
}

void histogram_observe(std::uint32_t idx, std::uint32_t bucket,
                       std::uint64_t value) {
  Shard& s = shard();
  if (s.hist_buckets.size() <= idx) {
    s.hist_buckets.resize(idx + 1);
    s.hist_sums.resize(idx + 1, 0);
  }
  std::vector<std::uint64_t>& buckets = s.hist_buckets[idx];
  if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0);
  ++buckets[bucket];
  s.hist_sums[idx] += value;
}

}  // namespace detail

void enable() {
  EnvActivation::instance();  // keep env/programmatic activation consistent
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (Shard* s : r.shards) {
    std::fill(s->counters.begin(), s->counters.end(), 0);
    for (auto& b : s->hist_buckets) std::fill(b.begin(), b.end(), 0);
    std::fill(s->hist_sums.begin(), s->hist_sums.end(), 0);
  }
  for (GaugeDef& g : r.gauge_defs) {
    g.value->store(0, std::memory_order_relaxed);
  }
}

Counter& counter(const std::string& name, const std::string& help,
                 Stability stability) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    DYNCG_ASSERT(it->second.first == 0,
                 "metric re-registered with a different kind");
    return r.handles.counters[it->second.second];
  }
  auto idx = static_cast<std::uint32_t>(r.counter_defs.size());
  r.counter_defs.push_back({name, help, stability});
  r.by_name.emplace(name, std::make_pair(0, idx));
  r.handles.counters.push_back(Counter(idx));
  return r.handles.counters.back();
}

Gauge& gauge(const std::string& name, const std::string& help,
             Stability stability) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    DYNCG_ASSERT(it->second.first == 1,
                 "metric re-registered with a different kind");
    return r.handles.gauges[it->second.second];
  }
  auto idx = static_cast<std::uint32_t>(r.gauge_defs.size());
  r.gauge_defs.push_back(
      {name, help, stability, new std::atomic<std::int64_t>(0)});
  r.by_name.emplace(name, std::make_pair(1, idx));
  r.handles.gauges.push_back(Gauge(r.gauge_defs.back().value));
  return r.handles.gauges.back();
}

Histogram& histogram(const std::string& name, const std::string& help,
                     Stability stability, std::vector<std::uint64_t> bounds) {
  DYNCG_ASSERT(!bounds.empty(), "histogram needs at least one bucket bound");
  DYNCG_ASSERT(std::is_sorted(bounds.begin(), bounds.end()) &&
                   std::adjacent_find(bounds.begin(), bounds.end()) ==
                       bounds.end(),
               "histogram bounds must be strictly ascending");
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) {
    DYNCG_ASSERT(it->second.first == 2,
                 "metric re-registered with a different kind");
    Histogram& h = r.handles.histograms[it->second.second];
    DYNCG_ASSERT(h.bounds() == bounds,
                 "histogram re-registered with different bounds");
    return h;
  }
  auto idx = static_cast<std::uint32_t>(r.histogram_defs.size());
  r.histogram_defs.push_back({name, help, stability, bounds});
  r.by_name.emplace(name, std::make_pair(2, idx));
  r.handles.histograms.push_back(Histogram(idx, std::move(bounds)));
  return r.handles.histograms.back();
}

std::vector<std::uint64_t> pow2_bounds(unsigned count) {
  DYNCG_ASSERT(count >= 1 && count <= 63, "pow2_bounds: count out of range");
  std::vector<std::uint64_t> b(count);
  for (unsigned i = 0; i < count; ++i) b[i] = std::uint64_t{1} << i;
  return b;
}

RegistrySnapshot snapshot() {
  Registry& r = registry();
  RegistrySnapshot out;
  std::lock_guard<std::mutex> lk(r.mu);
  out.counters.resize(r.counter_defs.size());
  for (std::size_t i = 0; i < r.counter_defs.size(); ++i) {
    const CounterDef& d = r.counter_defs[i];
    out.counters[i] = {d.name, d.help, d.stability, 0};
  }
  out.gauges.resize(r.gauge_defs.size());
  for (std::size_t i = 0; i < r.gauge_defs.size(); ++i) {
    const GaugeDef& d = r.gauge_defs[i];
    out.gauges[i] = {d.name, d.help, d.stability,
                     d.value->load(std::memory_order_relaxed)};
  }
  out.histograms.resize(r.histogram_defs.size());
  for (std::size_t i = 0; i < r.histogram_defs.size(); ++i) {
    const HistogramDef& d = r.histogram_defs[i];
    HistogramSnapshot& h = out.histograms[i];
    h.name = d.name;
    h.help = d.help;
    h.stability = d.stability;
    h.bounds = d.bounds;
    h.buckets.assign(d.bounds.size() + 1, 0);
  }
  // Merge the shards: plain sums, so the result is independent of which
  // thread recorded what.
  for (const Shard* s : r.shards) {
    for (std::size_t i = 0; i < s->counters.size(); ++i) {
      out.counters[i].value += s->counters[i];
    }
    for (std::size_t i = 0; i < s->hist_buckets.size(); ++i) {
      HistogramSnapshot& h = out.histograms[i];
      const std::vector<std::uint64_t>& b = s->hist_buckets[i];
      for (std::size_t j = 0; j < b.size(); ++j) h.buckets[j] += b[j];
      h.sum += s->hist_sums[i];
    }
  }
  for (HistogramSnapshot& h : out.histograms) {
    h.count = 0;
    for (std::uint64_t b : h.buckets) h.count += b;
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

std::string to_json() {
  RegistrySnapshot snap = snapshot();
  json::Writer w;
  w.begin_object();
  w.key("schema_version");
  w.value(kMetricsSchemaVersion);
  w.key("kind");
  w.value("dyncg-metrics");
  w.key("counters");
  w.begin_array();
  for (const CounterSnapshot& c : snap.counters) {
    w.begin_object();
    w.key("name");
    w.value(c.name);
    w.key("help");
    w.value(c.help);
    w.key("stability");
    w.value(stability_name(c.stability));
    w.key("value");
    w.value(c.value);
    w.end_object();
  }
  w.end_array();
  w.key("gauges");
  w.begin_array();
  for (const GaugeSnapshot& g : snap.gauges) {
    w.begin_object();
    w.key("name");
    w.value(g.name);
    w.key("help");
    w.value(g.help);
    w.key("stability");
    w.value(stability_name(g.stability));
    w.key("value");
    w.value(g.value);
    w.end_object();
  }
  w.end_array();
  w.key("histograms");
  w.begin_array();
  for (const HistogramSnapshot& h : snap.histograms) {
    w.begin_object();
    w.key("name");
    w.value(h.name);
    w.key("help");
    w.value(h.help);
    w.key("stability");
    w.value(stability_name(h.stability));
    w.key("bounds");
    w.begin_array();
    for (std::uint64_t b : h.bounds) w.value(b);
    w.end_array();
    w.key("buckets");
    w.begin_array();
    for (std::uint64_t b : h.buckets) w.value(b);
    w.end_array();
    w.key("count");
    w.value(h.count);
    w.key("sum");
    w.value(h.sum);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

namespace {

// Prometheus metric names: dyncg_ prefix, [a-zA-Z0-9_] only.
std::string prom_name(const std::string& name) {
  std::string out = "dyncg_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

// HELP text: escape backslash and newline per exposition format 0.0.4.
std::string prom_help(const std::string& help) {
  std::string out;
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void prom_header(std::string& out, const std::string& name,
                 const std::string& help, Stability stability,
                 const char* type) {
  out += "# HELP " + name + " " + prom_help(help) + " [" +
         stability_name(stability) + "]\n";
  out += "# TYPE " + name + " " + type + "\n";
}

}  // namespace

std::string to_prometheus() {
  RegistrySnapshot snap = snapshot();
  std::string out;
  for (const CounterSnapshot& c : snap.counters) {
    std::string n = prom_name(c.name);
    prom_header(out, n, c.help, c.stability, "counter");
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    std::string n = prom_name(g.name);
    prom_header(out, n, g.help, g.stability, "gauge");
    out += n + " " + std::to_string(g.value) + "\n";
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    std::string n = prom_name(h.name);
    prom_header(out, n, h.help, h.stability, "histogram");
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cum += h.buckets[i];
      out += n + "_bucket{le=\"" + std::to_string(h.bounds[i]) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + std::to_string(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

bool write(const std::string& path) {
  const std::string suffix = ".json";
  bool as_json =
      path.size() >= suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
  std::string content = as_json ? to_json() + "\n" : to_prometheus();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  int rc = std::fclose(f);
  return n == content.size() && rc == 0;
}

}  // namespace metrics
}  // namespace dyncg
