#include "envelope/dynamic_envelope.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include "envelope/scenario_key.hpp"
#include "poly/roots.hpp"
#include "support/ackermann.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace dyncg {

namespace {

// Deterministic update counters (docs/OBSERVABILITY.md#metrics): the merge
// tree, its recombine paths, and its trims are a pure function of the update
// stream — independent of thread count — so the serve registry gate pins
// them exactly.
struct UpdateMetrics {
  metrics::Counter& inserts = metrics::counter(
      "envelope.update.inserts", "dynamic envelope member inserts",
      metrics::Stability::kDeterministic);
  metrics::Counter& erases = metrics::counter(
      "envelope.update.erases", "dynamic envelope member erases",
      metrics::Stability::kDeterministic);
  metrics::Counter& recombines = metrics::counter(
      "envelope.update.recombines",
      "merge-tree pairwise envelope recombines",
      metrics::Stability::kDeterministic);
  metrics::Counter& nodes_touched = metrics::counter(
      "envelope.update.nodes_touched",
      "merge-tree nodes trimmed or recombined",
      metrics::Stability::kDeterministic);
};

UpdateMetrics& update_metrics() {
  static UpdateMetrics m;
  return m;
}

// Register at process start so a registry snapshot taken before the first
// fleet update still shows the counters at zero (the serve gate's registry
// diff compares the entry set).
[[maybe_unused]] const UpdateMetrics& g_eager_registration = update_metrics();

// Crossing-memo words (FleetFamily::memo_).  A record header packs the
// partner slot (low 24 bits), the root count (next 7) and the backref flag
// (top bit); an owned record's roots follow it as raw double bits, two
// words each.
constexpr unsigned kMemoSlotBits = 24;
constexpr std::size_t kMemoMaxRoots = 127;
constexpr std::uint32_t kBackref = std::uint32_t{1} << 31;

int memo_partner(std::uint32_t h) {
  return static_cast<int>(h & ((std::uint32_t{1} << kMemoSlotBits) - 1));
}
bool memo_backref(std::uint32_t h) { return (h & kBackref) != 0; }
std::size_t memo_roots(std::uint32_t h) {
  return (h >> kMemoSlotBits) & kMemoMaxRoots;
}
// Words of the record whose header is h.
std::size_t memo_words(std::uint32_t h) { return 1 + 2 * memo_roots(h); }

// Index of the owned record (or backref) for `partner` in a slot's list;
// list.size() when there is none.
std::size_t memo_find(const std::vector<std::uint32_t>& list, int partner,
                      bool backref) {
  for (std::size_t i = 0; i < list.size(); i += memo_words(list[i])) {
    if (memo_partner(list[i]) == partner && memo_backref(list[i]) == backref) {
      return i;
    }
  }
  return list.size();
}

void memo_erase(std::vector<std::uint32_t>& list, int partner, bool backref) {
  const std::size_t i = memo_find(list, partner, backref);
  DYNCG_ASSERT(i < list.size(), "crossing memo lost the other end of a pair");
  const auto first = list.begin() + static_cast<std::ptrdiff_t>(i);
  list.erase(first, first + static_cast<std::ptrdiff_t>(memo_words(*first)));
}

}  // namespace

// --- FleetFamily -----------------------------------------------------------

bool FleetFamily::identical(int a, int b) const {
  return members_[static_cast<std::size_t>(a)].coefficients() ==
         members_[static_cast<std::size_t>(b)].coefficients();
}

void FleetFamily::crossings_into(int a, int b, const Interval& iv,
                                 std::vector<double>& out) const {
  ++lookups_;
  std::vector<std::uint32_t>& own = memo_[static_cast<std::size_t>(a)];
  const std::size_t at = memo_find(own, b, /*backref=*/false);
  if (at == own.size()) {
    // Global roots: bracket from t = 0 regardless of the query interval, so
    // the bits of a crossing never depend on which overlay cell asked — the
    // property the incremental merge tree's byte-identity contract rests on
    // (and what makes them safe to memoize).
    ++isolations_;
    ++memo_pairs_;
    thread_local RootFindResult rr;
    crossing_times_into(members_[static_cast<std::size_t>(a)],
                        members_[static_cast<std::size_t>(b)], 0.0,
                        thread_root_scratch(), rr);
    const std::size_t n = rr.roots.size();
    DYNCG_ASSERT(n <= kMemoMaxRoots, "more crossings than a memo record holds");
    own.resize(at + 1 + 2 * n);
    own[at] = static_cast<std::uint32_t>(b) |
              static_cast<std::uint32_t>(n) << kMemoSlotBits;
    std::uint32_t* bits = own.data() + at + 1;
    for (double r : rr.roots) {
      std::memcpy(bits, &r, sizeof r);
      bits += 2;
    }
    memo_[static_cast<std::size_t>(b)].push_back(
        static_cast<std::uint32_t>(a) | kBackref);
  }
  out.clear();
  const std::size_t n = memo_roots(own[at]);
  for (std::size_t k = 0; k < n; ++k) {
    double r;
    std::memcpy(&r, own.data() + at + 1 + 2 * k, sizeof r);
    if (r > iv.lo && r < iv.hi) out.push_back(r);
  }
}

int FleetFamily::acquire_slot(Polynomial score) {
  int slot;
  if (!free_slots_.empty()) {
    std::pop_heap(free_slots_.begin(), free_slots_.end(),
                  std::greater<int>());
    slot = free_slots_.back();
    free_slots_.pop_back();
    members_[static_cast<std::size_t>(slot)] = std::move(score);
    live_[static_cast<std::size_t>(slot)] = 1;
  } else {
    DYNCG_ASSERT(members_.size() < (std::size_t{1} << kMemoSlotBits),
                 "fleet family slot count exceeds the crossing memo's range");
    slot = static_cast<int>(members_.size());
    members_.push_back(std::move(score));
    live_.push_back(1);
    memo_.emplace_back();
  }
  return slot;
}

void FleetFamily::release_slot(int slot) {
  DYNCG_ASSERT(live(slot), "releasing a slot that is not live");
  live_[static_cast<std::size_t>(slot)] = 0;
  // The slot's next member crosses its partners elsewhere: drop each pair
  // from the partner's list too (an owned record's partner holds a backref,
  // a backref's partner holds the record).  The storage goes as well: the
  // next member's list grows from empty, so no slot keeps the high-water
  // mark of every member it ever held.
  std::vector<std::uint32_t>& list = memo_[static_cast<std::size_t>(slot)];
  for (std::size_t i = 0; i < list.size(); i += memo_words(list[i])) {
    memo_erase(memo_[static_cast<std::size_t>(memo_partner(list[i]))], slot,
               !memo_backref(list[i]));
    --memo_pairs_;
  }
  std::vector<std::uint32_t>().swap(list);
  // Drop the coefficients (a tombstoned slot's leaf is empty, so no combine
  // ever evaluates it) and keep the slot addressable for reuse.
  members_[static_cast<std::size_t>(slot)] = Polynomial();
  free_slots_.push_back(slot);
  std::push_heap(free_slots_.begin(), free_slots_.end(), std::greater<int>());
}

// --- DynamicEnvelope -------------------------------------------------------

DynamicEnvelope::DynamicEnvelope(bool take_min, int s_bound, Machine* machine)
    : take_min_(take_min), s_bound_(s_bound), machine_(machine) {}

DynamicEnvelopeStats DynamicEnvelope::stats() const {
  DynamicEnvelopeStats s = stats_;
  s.crossing_lookups = fam_.crossing_lookups();
  s.root_isolations = fam_.root_isolations();
  return s;
}

// One Lemma 3.1 combine charged at the effective width the pieces occupy —
// the Section 3 adaptive-submesh observation applied per node: a path
// recombine runs on a ceil_pow2(pieces)-PE string, not the full machine, so
// both its rounds (ladders stop at log2(w_eff)) and its messages (w_eff per
// exchange, not P) are sublinear in the fleet.  The pattern is exactly
// envelope_detail::charge_combine_level with w_eff-wide exchanges; charges
// go through the ledger directly because Machine::charge_exchange always
// bills a full-machine exchange.
void DynamicEnvelope::charge_combine(std::size_t pieces) {
  ++stats_.recombines;
  ++stats_.nodes_touched;
  update_metrics().recombines.add();
  update_metrics().nodes_touched.add();
  if (machine_ == nullptr) return;
  // Clamped to the machine: a combine can never use a submesh wider than
  // the machine it runs on (and every exchange level must exist on it).
  const std::size_t w =
      std::min(ceil_pow2(std::max<std::size_t>(2, pieces)), machine_->size());
  const int levels = floor_log2(w);
  CostLedger& led = machine_->ledger();
  const Topology& topo = machine_->topology();
  auto exchange = [&](int k) {
    led.add_rounds(topo.exchange_rounds(static_cast<unsigned>(k)));
    led.add_messages(w);
  };
  // Step 2: bitonic merge of the doubled record file.
  for (int k = 0; k < levels; ++k) exchange(k);
  for (int k = 0; k < levels; ++k) exchange(k);
  led.add_local_ops(static_cast<std::uint64_t>(2 * levels));
  // Step 3: segmented scan + unit shift for cell ends.
  for (int k = 0; k < levels; ++k) exchange(k);
  led.add_rounds(topo.shift_rounds());
  led.add_messages(w);
  led.add_local_ops(static_cast<std::uint64_t>(levels));
  // Steps 4 + 5: PE-local root finding and subpiece ordering, O(s).
  led.add_local_ops(static_cast<std::uint64_t>(s_bound_) + 2);
  // Step 6: predecessor scan, segmented suffix scan, rebalance.
  for (int pass = 0; pass < 4; ++pass) {
    for (int k = 0; k < levels; ++k) exchange(k);
  }
  led.add_local_ops(static_cast<std::uint64_t>(levels));
}

// Certificate failure handling: drop the expired prefix and re-justify the
// survivors (one concentration ladder at the node's effective width).
void DynamicEnvelope::charge_trim(std::size_t dropped, std::size_t total) {
  ++stats_.nodes_touched;
  update_metrics().nodes_touched.add();
  if (machine_ == nullptr) return;
  CostLedger& led = machine_->ledger();
  led.add_local_ops(1);
  if (dropped == 0) return;
  const Topology& topo = machine_->topology();
  const std::size_t w =
      std::min(ceil_pow2(std::max<std::size_t>(2, total)), machine_->size());
  const int levels = floor_log2(w);
  for (int k = 0; k < levels; ++k) {
    led.add_rounds(topo.exchange_rounds(static_cast<unsigned>(k)));
    led.add_messages(w);
  }
  led.add_local_ops(1);
}

void DynamicEnvelope::grow() {
  if (cap_ == 0) {
    cap_ = 1;
    nodes_.assign(2, Node{});
    for (Node& nd : nodes_) nd.trimmed_to = now_;
    return;
  }
  const std::size_t new_cap = cap_ * 2;
  std::vector<Node> moved(2 * new_cap);
  for (Node& nd : moved) nd.trimmed_to = now_;
  // Depth shifts by one: node j (1-based heap) lands at j + 2^floor(log j),
  // which sends old leaf cap_+s to new leaf new_cap+s and keeps every
  // subtree intact.  The old root becomes the new root's left child; the
  // right subtree starts empty, so the one recombine below reproduces the
  // old root's bytes verbatim (combine with an empty side emits the live
  // side unchanged).
  for (std::size_t j = 1; j < 2 * cap_; ++j) {
    const std::size_t msb = std::size_t{1}
                            << static_cast<unsigned>(floor_log2(j));
    moved[j + msb] = std::move(nodes_[j]);
  }
  nodes_ = std::move(moved);
  cap_ = new_cap;
  trim_node(2);
  trim_node(3);
  PiecePool& pool = thread_piece_pool();
  PiecewiseFn combined{pool.acquire_pieces()};
  combine_extremum_into(fam_, nodes_[2].env, nodes_[3].env, take_min_, pool,
                        combined);
  charge_combine(nodes_[2].env.piece_count() + nodes_[3].env.piece_count());
  pool.release_pieces(std::move(nodes_[1].env.pieces));
  nodes_[1].env = std::move(combined);
  nodes_[1].trimmed_to = now_;
}

void DynamicEnvelope::trim_node(std::size_t idx) {
  Node& nd = nodes_[idx];
  if (nd.trimmed_to >= now_) return;
  nd.trimmed_to = now_;
  if (nd.env.empty()) return;
  const PieceSlab& ps = nd.env.pieces;
  const std::size_t count = ps.size();
  std::size_t drop = 0;
  while (drop < count && ps[drop].iv.hi <= now_) ++drop;
  const bool clip = drop < count && ps[drop].iv.lo < now_;
  if (drop == 0 && !clip) return;
  PiecePool& pool = thread_piece_pool();
  PieceSlab fresh = pool.acquire_pieces();
  for (std::size_t p = drop; p < count; ++p) {
    const Piece pc = ps[p];
    fresh.emplace_back(pc.iv.lo < now_ ? now_ : pc.iv.lo, pc.iv.hi, pc.id);
  }
  charge_trim(drop, count);
  pool.release_pieces(std::move(nd.env.pieces));
  nd.env.pieces = std::move(fresh);
}

void DynamicEnvelope::refresh_path(int slot) {
  std::size_t idx = cap_ + static_cast<std::size_t>(slot);
  while (idx > 1) {
    idx /= 2;
    const std::size_t left = 2 * idx;
    const std::size_t right = 2 * idx + 1;
    trim_node(left);
    trim_node(right);
    // Trim the node's own cache first so the early-stop comparison is
    // between two [now_, inf) forms.
    trim_node(idx);
    Node& nd = nodes_[idx];
    PiecePool& pool = thread_piece_pool();
    PiecewiseFn combined{pool.acquire_pieces()};
    combine_extremum_into(fam_, nodes_[left].env, nodes_[right].env,
                          take_min_, pool, combined);
    charge_combine(nodes_[left].env.piece_count() +
                   nodes_[right].env.piece_count());
    if (combined.pieces == nd.env.pieces) {
      // The update is invisible at this node, so it is invisible at every
      // ancestor (a member absent from a subtree envelope is dominated
      // there, hence dominated in every superset) — stop the path early.
      pool.release_pieces(std::move(combined.pieces));
      return;
    }
    pool.release_pieces(std::move(nd.env.pieces));
    nd.env = std::move(combined);
    nd.trimmed_to = now_;
  }
}

DynamicEnvelope::InsertOutcome DynamicEnvelope::insert(std::uint64_t id,
                                                       Polynomial score) {
  if (external_.count(id) != 0) return InsertOutcome::kDuplicateId;
  std::string score_key;
  append_canonical(score_key, score);
  ++stats_.inserts;
  update_metrics().inserts.add();
  if (auto it = score_index_.find(score_key); it != score_index_.end()) {
    // Bit-identical score already live: alias the external id to its slot.
    // The envelope is unchanged — no tree work, and the combine never sees
    // two equal members (the aliasing half of the byte-identity contract).
    const int slot = it->second;
    external_.emplace(id, slot);
    slot_ids_[static_cast<std::size_t>(slot)].insert(id);
    if (machine_ != nullptr) machine_->charge_local(1);
    return InsertOutcome::kAliased;
  }
  const int slot = fam_.acquire_slot(std::move(score));
  while (static_cast<std::size_t>(slot) >= cap_) grow();
  if (slot_ids_.size() < fam_.size()) {
    slot_ids_.resize(fam_.size());
    slot_score_key_.resize(fam_.size());
  }
  external_.emplace(id, slot);
  slot_ids_[static_cast<std::size_t>(slot)].insert(id);
  slot_score_key_[static_cast<std::size_t>(slot)] = score_key;
  score_index_.emplace(std::move(score_key), slot);
  // Leaf singleton on [now_, inf) — identical to a [0, inf) singleton
  // trimmed to the current time, which is what the from-scratch oracle
  // holds for the same member.  Leaf slabs are owned by their leaves for
  // the structure's lifetime (refilled in place, never pooled): an
  // erase+insert cycle would otherwise push one slab per cycle into the
  // thread pool and grow it without bound under churn.
  Node& leaf = nodes_[cap_ + static_cast<std::size_t>(slot)];
  leaf.env.pieces.clear();
  leaf.env.pieces.emplace_back(now_, kInfinity, slot);
  leaf.trimmed_to = now_;
  ++stats_.nodes_touched;
  update_metrics().nodes_touched.add();
  if (machine_ != nullptr) machine_->charge_local(1);
  refresh_path(slot);
  return InsertOutcome::kInserted;
}

bool DynamicEnvelope::erase(std::uint64_t id) {
  auto it = external_.find(id);
  if (it == external_.end()) return false;
  const int slot = it->second;
  external_.erase(it);
  slot_ids_[static_cast<std::size_t>(slot)].erase(id);
  ++stats_.erases;
  update_metrics().erases.add();
  if (machine_ != nullptr) machine_->charge_local(1);
  if (!slot_ids_[static_cast<std::size_t>(slot)].empty()) {
    // An alias went away; the slot (and the envelope) remain.
    return true;
  }
  score_index_.erase(slot_score_key_[static_cast<std::size_t>(slot)]);
  slot_score_key_[static_cast<std::size_t>(slot)].clear();
  fam_.release_slot(slot);
  Node& leaf = nodes_[cap_ + static_cast<std::size_t>(slot)];
  leaf.env.pieces.clear();  // leaf keeps its slab (see insert)
  leaf.trimmed_to = now_;
  ++stats_.nodes_touched;
  update_metrics().nodes_touched.add();
  refresh_path(slot);
  return true;
}

bool DynamicEnvelope::advance(double t) {
  if (!(t >= now_)) return false;  // time is monotone (and NaN is rejected)
  if (t == now_) return true;
  now_ = t;
  if (machine_ != nullptr) machine_->charge_local(1);
  // Eager at the root (queries read it; its certificate is the public
  // next_event surface), lazy everywhere else: a node keeps its expired
  // prefix until an update path reads it, when trim_node drops the pieces
  // its certificate says are stale.
  if (cap_ > 0) trim_node(1);
  return true;
}

const PiecewiseFn& DynamicEnvelope::envelope() {
  if (cap_ == 0) return empty_;
  trim_node(1);
  return nodes_[1].env;
}

double DynamicEnvelope::next_event() {
  const PiecewiseFn& env = envelope();
  return env.empty() ? kInfinity : env.pieces[0].iv.hi;
}

std::uint64_t DynamicEnvelope::external_id(int slot) const {
  const std::set<std::uint64_t>& ids =
      slot_ids_[static_cast<std::size_t>(slot)];
  DYNCG_ASSERT(!ids.empty(), "slot has no aliased external ids");
  return *ids.begin();
}

std::string DynamicEnvelope::result_string() {
  const PiecewiseFn& env = envelope();
  std::string out = take_min_ ? "min envelope of " : "max envelope of ";
  out += std::to_string(member_count());
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", now_);
  out += " at t=";
  out += buf;
  out += ": ";
  if (env.empty()) out += "empty";
  for (const Piece& pc : env.pieces) {
    out += 'E';
    out += std::to_string(external_id(pc.id));
    out += " on ";
    out += pc.iv.to_string();
    out += "; ";
  }
  out += '\n';
  return out;
}

std::string DynamicEnvelope::snapshot() {
  const PiecewiseFn& env = envelope();
  std::string out = "t";
  append_canonical(out, now_);
  out += 'n';
  out += std::to_string(member_count());
  for (const Piece& pc : env.pieces) {
    out += '|';
    append_canonical(out, pc.iv.lo);
    append_canonical(out, pc.iv.hi);
    out += 'e';
    out += std::to_string(external_id(pc.id));
    out += 'm';
    append_canonical(out, fam_.member(pc.id));
  }
  return out;
}

std::uint64_t DynamicEnvelope::state_fingerprint() {
  const std::string s = snapshot();
  return fingerprint_bytes(kFingerprintSeed, s.data(), s.size());
}

DynamicEnvelope canonical_rebuild(
    std::vector<std::pair<std::uint64_t, Polynomial>> members, double t,
    bool take_min, int s_bound, Machine* machine) {
  std::sort(members.begin(), members.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  DynamicEnvelope env(take_min, s_bound, machine);
  for (auto& [id, score] : members) {
    const DynamicEnvelope::InsertOutcome out =
        env.insert(id, std::move(score));
    DYNCG_ASSERT(out != DynamicEnvelope::InsertOutcome::kDuplicateId,
                 "canonical_rebuild: duplicate external id");
  }
  env.advance(t);
  return env;
}

}  // namespace dyncg
