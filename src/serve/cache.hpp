#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "serve/protocol.hpp"

// Germ/trajectory-keyed result cache for the serving layer.
//
// Keys are the exact scenario keys built by serve::parse_request
// (Request::key): the op parameters and canonical fault spec as text, then
// every trajectory coefficient's 8 raw IEEE-754 bytes behind per-coordinate
// counts (envelope/scenario_key.hpp).  Each key is stored once, in its map
// node; the FIFO points at it there (node addresses survive rehashing).
// Buckets use the standard library's string hash, which reads the key a
// word at a time (keys run to KBs; a hit hashes its key once, in find); the
// 64-bit FNV-1a fingerprint only names an entry in responses.  Equality is
// byte equality, so a hash collision can degrade lookups but can never
// serve the wrong bytes.
//
// Eviction is FIFO by insertion order (not LRU): a lookup never reorders
// the queue, so the sequence of hits/misses/evictions for a given request
// stream is a pure function of that stream — independent of timing, batch
// boundaries, and thread count.  That is what lets the e2e tests assert
// exact hit/miss counters (docs/SERVING.md#cache).
//
// Not thread-safe: the server touches the cache only from its poll loop.
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

  // Inserts (no-op if the key is already present), evicting the oldest
  // entry first when full.
  void insert(const std::string& key, CachedResult value);

  const CacheCounters& counters() const { return counters_; }
  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::unordered_map<std::string, CachedResult> map_;
  // Insertion order, front = oldest: the keys inside map_'s nodes.
  std::deque<const std::string*> fifo_;
  CacheCounters counters_;
};

}  // namespace serve
}  // namespace dyncg
