#include "serve/cache.hpp"

#include <utility>

#include "support/metrics.hpp"

namespace dyncg {
namespace serve {

namespace {

// Process-wide registry mirrors of the per-instance counters.  FIFO
// eviction makes all three a pure function of the request stream, hence
// deterministic (docs/SERVING.md#cache).  The per-instance CacheCounters
// stay the source of truth for ServeStats (tests assert them on standalone
// cache instances); the registry aggregates across instances for scrapes.
struct CacheMetrics {
  metrics::Counter& hits = metrics::counter(
      "serve.cache.hits", "Result-cache hits (counting find pass).",
      metrics::Stability::kDeterministic);
  metrics::Counter& misses = metrics::counter(
      "serve.cache.misses", "Result-cache misses (counting find pass).",
      metrics::Stability::kDeterministic);
  metrics::Counter& evictions = metrics::counter(
      "serve.cache.evictions", "Result-cache FIFO evictions.",
      metrics::Stability::kDeterministic);
};

CacheMetrics& cache_metrics() {
  static CacheMetrics* m = new CacheMetrics;  // leaked, like the registry
  return *m;
}

}  // namespace

const CachedResult* ResultCache::find(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++counters_.misses;
    cache_metrics().misses.add();
    return nullptr;
  }
  ++counters_.hits;
  cache_metrics().hits.add();
  return &it->second;
}

void ResultCache::insert(const std::string& key, CachedResult value) {
  if (capacity_ == 0) return;
  if (map_.find(key) != map_.end()) return;
  if (map_.size() >= capacity_) {
    map_.erase(fifo_.front());
    fifo_.pop_front();
    ++counters_.evictions;
    cache_metrics().evictions.add();
  }
  fifo_.push_back(key);
  map_.emplace(key, std::move(value));
}

}  // namespace serve
}  // namespace dyncg
