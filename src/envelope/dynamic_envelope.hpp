#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "pieces/piecewise.hpp"
#include "poly/polynomial.hpp"

// Incremental maintenance of the lower (or upper) envelope under
// insert/erase/advance — the streaming-fleet dynamization the ROADMAP asks
// for, in the spirit of Chan's dynamic shallow-cutting structures
// (PAPERS.md): instead of paying the full Theorem 3.2/3.4 rebuild on every
// tick, a balanced merge-tree caches one envelope per internal node and an
// update recombines only the O(log n) path from the touched leaf to the
// root.  docs/PERFORMANCE.md#incremental-envelope-maintenance documents the
// design and the measured update-vs-rebuild crossover.
//
// The structure is exact, not approximate: after any update stream the
// maintained root envelope is byte-identical to a from-scratch rebuild over
// the same live members (tests/test_dynamic_envelope.cpp drives randomized
// streams against that oracle).  Two representation choices make the
// byte-identity hold regardless of update history:
//
//   * global crossings — FleetFamily computes the crossing times of a member
//     pair from t = 0 (once per pair: see its crossing memo) and filters
//     them into the query interval, so a root never depends on which
//     overlay cell asked for it.  (PolyFamily
//     brackets from the cell's left endpoint, which makes envelope bytes
//     depend on the merge shape — fine for one-shot builds, fatal for an
//     incremental structure whose merge shape is its update history.)
//     With global roots the pairwise combine is shape-independent: every
//     interior breakpoint of the final envelope is the crossing of the two
//     adjacent winners, computed from the same start point no matter when
//     or where the combine ran.
//   * score-identity aliasing — inserting a member whose score polynomial is
//     bit-identical to a live member's attaches the new external id to the
//     existing leaf instead of creating a second identical member, so the
//     slot-index tie-break inside the combine never has to order two equal
//     functions (the one case where merge shape could pick different
//     winners).  The serving layer layers trajectory-key dedupe on top
//     (src/serve/fleet.hpp).
//
// Time advance is certificate-driven (the kinetic view): each cached node
// envelope is valid on [trimmed_to, inf) and its failure certificate is its
// first breakpoint — the earliest time its leading piece stops being the
// winner.  advance(t) re-trims the root eagerly (queries read the root);
// other nodes hold their stale prefixes until an update path touches them,
// when the certificate says in O(1) whether any pieces actually expired.
namespace dyncg {

// Slot-indexed family of scalar "score" polynomials (for fleet proximity:
// the squared distance of each trajectory to the reference).  Models the
// Family concept of pieces/piecewise.hpp; slots are acquired lowest-first
// and recycled on release, so member ids stay dense and the merge tree's
// leaf array does not grow under churn.
//
// Crossing memo: the global roots of a slot pair are a pure function of
// the two members, so crossings_into isolates them once per ordered pair
// (a, b) — the paper's Lemma 3.1 step 4 primitive — and keeps them until
// either slot is released.  A path recombine
// then isolates roots only for the pairs its update introduced; the filter
// into the asking cell stays per call, so every byte is what a fresh
// isolation would give.  (a, b) and (b, a) are separate entries: with a
// zero linear coefficient the stable quadratic formula (poly/roots.cpp)
// computes the positive root of f - g and of g - f by different
// expressions, which can round to different bits.  The memo is
// `mutable`, which makes FleetFamily's const methods single-threaded, like
// the DynamicEnvelope that owns it.
class FleetFamily {
 public:
  std::size_t size() const { return members_.size(); }
  const Polynomial& member(int id) const {
    return members_[static_cast<std::size_t>(id)];
  }
  bool live(int id) const { return live_[static_cast<std::size_t>(id)] != 0; }

  double value(int id, double t) const {
    return members_[static_cast<std::size_t>(id)](t);
  }

  bool identical(int a, int b) const;
  // Crossing times strictly inside iv, into `out` (cleared first) — the
  // memoized roots of a - b from t = 0, filtered; never bracketed from
  // iv.lo (see the header comment: this is what makes incremental combines
  // byte-identical to from-scratch ones).
  void crossings_into(int a, int b, const Interval& iv,
                      std::vector<double>& out) const;
  std::vector<Interval> defined_intervals(int) const {
    return {Interval{0.0, kInfinity}};
  }

  // Lowest free slot (growing the family if none is free).
  int acquire_slot(Polynomial score);
  // Frees the slot and drops every memoized pair it is in.
  void release_slot(int slot);

  // Memo accounting: crossings_into calls, the root isolations they ran
  // (memo misses), and the pairs memoized now.
  std::uint64_t crossing_lookups() const { return lookups_; }
  std::uint64_t root_isolations() const { return isolations_; }
  std::size_t memoized_pairs() const { return memo_pairs_; }

 private:
  std::vector<Polynomial> members_;
  std::vector<char> live_;
  std::vector<int> free_slots_;  // kept as a min-heap
  // Per slot, back to back in 32-bit words: a record for each memoized pair
  // (slot, b) — a header (b, root count) and the roots' bits — and a
  // backref header (a) for each memoized pair (a, slot), which is what lets
  // release_slot find and drop the pair from a's list in O(its entries).
  // Headers hold 24-bit slots and 7-bit root counts (asserted); serving
  // caps fleets at 2^20 members and scores at degree 32.
  mutable std::vector<std::vector<std::uint32_t>> memo_;
  mutable std::size_t memo_pairs_ = 0;
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t isolations_ = 0;
};

// Deterministic update accounting, mirrored into the process-wide
// envelope.update.* metrics counters (docs/OBSERVABILITY.md#metrics) —
// except the two crossing-memo counts, which stay out of the registry so
// the serve gate's deterministic entry set does not change.
struct DynamicEnvelopeStats {
  std::uint64_t inserts = 0;        // insert() calls that mutated state
  std::uint64_t erases = 0;         // erase() calls that mutated state
  std::uint64_t recombines = 0;     // pairwise combines performed
  std::uint64_t nodes_touched = 0;  // tree nodes trimmed or recombined
  std::uint64_t crossing_lookups = 0;  // member-pair crossing requests
  std::uint64_t root_isolations = 0;   // ... that had to isolate roots
};

// The merge-tree envelope.  External ids are caller-chosen uint64 names
// (fleet member ids on the wire); internally each distinct score polynomial
// occupies one leaf slot of a power-of-two tree whose internal nodes cache
// the envelope of their subtree.
class DynamicEnvelope {
 public:
  enum class InsertOutcome {
    kInserted,     // new leaf, path to root recombined
    kAliased,      // score identical to a live member: no tree work
    kDuplicateId,  // external id already present: rejected, no change
  };

  // `s_bound` is the pairwise crossing bound of the scores (the s of
  // lambda(n, s); degree of the score polynomials).  `machine`, when given,
  // receives the simulated-cost charges of every update and must outlive
  // the envelope; pass nullptr for host-only use.
  explicit DynamicEnvelope(bool take_min = true, int s_bound = 4,
                           Machine* machine = nullptr);

  InsertOutcome insert(std::uint64_t id, Polynomial score);
  bool erase(std::uint64_t id);          // false: unknown id
  bool advance(double t);                // false: t < now() (time is monotone)

  double now() const { return now_; }
  std::size_t member_count() const { return external_.size(); }
  bool contains(std::uint64_t id) const { return external_.count(id) != 0; }

  // The maintained envelope on [now(), inf), pieces id'd by internal slot.
  // Trims the root lazily; the reference stays valid until the next update.
  const PiecewiseFn& envelope();
  // Failure certificate of the root: the first time the current leading
  // piece stops winning (kInfinity when the envelope never changes again).
  double next_event();
  // Smallest external id aliased to the slot — the canonical name used by
  // rendering and snapshots (independent of slot assignment history).
  std::uint64_t external_id(int slot) const;

  // Human-readable envelope, external ids, one line ("empty" when no
  // members).  Byte-identical between the incremental structure and the
  // from-scratch oracle — the fleet_query result field.
  std::string result_string();
  // Canonical byte string of the full state (time, member count, and per
  // piece the interval bits, external id, and score coefficient bits) — the
  // oracle-comparison and fingerprint surface.
  std::string snapshot();
  std::uint64_t state_fingerprint();

  DynamicEnvelopeStats stats() const;
  // Member pairs whose crossings are memoized now (see FleetFamily).
  std::size_t memoized_pairs() const { return fam_.memoized_pairs(); }

 private:
  struct Node {
    PiecewiseFn env;          // cached subtree envelope on [trimmed_to, inf)
    double trimmed_to = 0.0;  // left edge the cache is valid from
  };

  void grow();                      // double leaf capacity (one combine)
  void trim_node(std::size_t idx);  // re-trim a cache to [now_, inf)
  void refresh_path(int slot);      // recombine leaf->root, early-stopping
  void charge_combine(std::size_t pieces);
  void charge_trim(std::size_t dropped, std::size_t total);

  bool take_min_;
  int s_bound_;
  Machine* machine_;
  double now_ = 0.0;
  FleetFamily fam_;
  std::size_t cap_ = 0;      // leaf capacity, power of two
  std::vector<Node> nodes_;  // 1-based heap; leaves at [cap_, 2*cap_)
  PiecewiseFn empty_;        // returned by envelope() before any insert
  // External-id surface: id -> slot, slot -> aliased ids (smallest renders),
  // canonical score bytes -> slot (the score-identity dedupe index).
  std::unordered_map<std::uint64_t, int> external_;
  std::vector<std::set<std::uint64_t>> slot_ids_;
  std::unordered_map<std::string, int> score_index_;
  std::vector<std::string> slot_score_key_;
  DynamicEnvelopeStats stats_;
};

// The from-scratch oracle: a fresh envelope over `members`, inserted in
// ascending external-id order, advanced to `t`.  After any update stream a
// DynamicEnvelope holding the same live members at the same time must match
// this byte for byte (snapshot() / result_string()).
DynamicEnvelope canonical_rebuild(
    std::vector<std::pair<std::uint64_t, Polynomial>> members, double t,
    bool take_min = true, int s_bound = 4, Machine* machine = nullptr);

}  // namespace dyncg
