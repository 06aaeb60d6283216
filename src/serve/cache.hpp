#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "serve/protocol.hpp"

// Germ/trajectory-keyed result cache for the serving layer.
//
// Keys are the exact canonical scenario strings built by
// serve::parse_request (envelope/scenario_key.hpp): hex IEEE-754 bit
// patterns of every trajectory coefficient plus the op parameters and the
// canonical fault spec.  Buckets use the standard library's string hash,
// which reads the key a word at a time (keys run to tens of KB, and a
// hit hashes its key twice: contains, then find); the 64-bit FNV-1a
// fingerprint only names an entry in responses.  Equality is string
// equality, so a hash collision can degrade lookups but can never serve
// the wrong bytes.
//
// Eviction is FIFO by insertion order (not LRU): a lookup never reorders
// the queue, so the sequence of hits/misses/evictions for a given request
// stream is a pure function of that stream — independent of timing, batch
// boundaries, and thread count.  That is what lets the e2e tests assert
// exact hit/miss counters (docs/SERVING.md#cache).
//
// Not thread-safe: the server touches the cache only from its poll loop
// (batch compute fans out *between* the lookup and insert passes).
namespace dyncg {
namespace serve {

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class ResultCache {
 public:
  // capacity 0 disables caching: every find is a miss, inserts are dropped.
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  // Counting lookup.  The pointer is valid until the next insert.
  const CachedResult* find(const std::string& key);

  // Peek without touching the hit/miss counters (the server's batch
  // scheduler uses this to decide what to compute before the counting pass
  // replays the batch in order).
  bool contains(const std::string& key) const {
    return map_.find(key) != map_.end();
  }

  // Inserts (no-op if the key is already present), evicting the oldest
  // entry first when full.
  void insert(const std::string& key, CachedResult value);

  const CacheCounters& counters() const { return counters_; }
  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::unordered_map<std::string, CachedResult> map_;
  std::deque<std::string> fifo_;  // insertion order, front = oldest
  CacheCounters counters_;
};

}  // namespace serve
}  // namespace dyncg
