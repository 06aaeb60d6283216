#pragma once

#include <cstdint>
#include <string>

#include "support/json.hpp"

// Cost accounting for the simulated parallel machines.
//
// The paper analyzes algorithms in synchronous rounds: in one round every PE
// may exchange O(1) words with a neighbor and do O(1) local work.  The
// ledger tracks
//   rounds     - communication rounds (the quantity the Theta bounds count),
//   messages   - total point-to-point words moved (work, for link-load
//                sanity checks),
//   local_ops  - the maximum per-PE local operation count, charged by the
//                ops layer whenever a PE does data-dependent serial work.
// Every algorithm reports `time()` = rounds + local_ops, matching the
// unit-time-operation model of Section 2.
namespace dyncg {

struct CostSnapshot {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t local_ops = 0;

  std::uint64_t time() const { return rounds + local_ops; }

  CostSnapshot operator-(const CostSnapshot& o) const {
    return CostSnapshot{rounds - o.rounds, messages - o.messages,
                        local_ops - o.local_ops};
  }
  CostSnapshot& operator+=(const CostSnapshot& o) {
    rounds += o.rounds;
    messages += o.messages;
    local_ops += o.local_ops;
    return *this;
  }
  CostSnapshot operator+(const CostSnapshot& o) const {
    CostSnapshot s = *this;
    s += o;
    return s;
  }
  bool operator==(const CostSnapshot& o) const {
    return rounds == o.rounds && messages == o.messages &&
           local_ops == o.local_ops;
  }
  bool operator!=(const CostSnapshot& o) const { return !(*this == o); }

  std::string to_string() const;
  // {"rounds":R,"messages":M,"local_ops":L,"time":T} — the fragment every
  // exporter (trace events, telemetry, bench reports) embeds.
  std::string to_json() const;
  // The same object written as the writer's next value.
  void write_json(json::Writer& w) const;
};

class CostLedger {
 public:
  void add_rounds(std::uint64_t r) { snap_.rounds += r; }
  void add_messages(std::uint64_t m) { snap_.messages += m; }
  void add_local_ops(std::uint64_t c) { snap_.local_ops += c; }

  const CostSnapshot& snapshot() const { return snap_; }
  void reset() { snap_ = CostSnapshot{}; }

 private:
  CostSnapshot snap_;
};

// RAII cost meter: captures the ledger on construction and reports the delta.
class CostMeter {
 public:
  explicit CostMeter(const CostLedger& ledger)
      : ledger_(ledger), start_(ledger.snapshot()) {}

  CostSnapshot elapsed() const { return ledger_.snapshot() - start_; }

 private:
  const CostLedger& ledger_;
  CostSnapshot start_;
};

}  // namespace dyncg
