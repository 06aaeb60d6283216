#include "machine/faults.hpp"

#include <algorithm>
#include <cctype>
#include <deque>

#include "machine/topology.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace dyncg {

namespace {

std::string window_to_string(std::uint64_t from, std::uint64_t to) {
  std::string s = std::to_string(from);
  if (to == FaultEvent::kForever) {
    s += "..";
  } else if (to != from) {
    s += ".." + std::to_string(to);
  }
  return s;
}

// Strict unsigned parse of spec[*pos...]: consumes digits, fails on none.
bool parse_number(const std::string& s, std::size_t* pos, std::uint64_t* out) {
  std::size_t start = *pos;
  std::uint64_t v = 0;
  while (*pos < s.size() && std::isdigit(static_cast<unsigned char>(s[*pos]))) {
    v = v * 10 + static_cast<std::uint64_t>(s[*pos] - '0');
    ++*pos;
  }
  if (*pos == start) return false;
  *out = v;
  return true;
}

Status event_error(const std::string& event, const std::string& why) {
  return Status::parse_error("bad fault event '" + event + "': " + why +
                             " (grammar: link:A-B@R[..[R2]] | "
                             "pe:N@R[..[R2]] | drop:A-B@R)");
}

// window := R | R'..' | R'..'R2, at spec[*pos..]; must consume to the end.
Status parse_window(const std::string& event, const std::string& s,
                    std::size_t pos, std::uint64_t* from, std::uint64_t* to) {
  if (!parse_number(s, &pos, from)) {
    return event_error(event, "expected a round number after '@'");
  }
  *to = *from;
  if (pos == s.size()) return Status::ok();
  if (s.compare(pos, 2, "..") != 0) {
    return event_error(event, "expected '..' in the round window");
  }
  pos += 2;
  if (pos == s.size()) {
    *to = FaultEvent::kForever;
    return Status::ok();
  }
  if (!parse_number(s, &pos, to) || pos != s.size()) {
    return event_error(event, "trailing characters after the round window");
  }
  if (*to < *from) {
    return event_error(event, "window ends before it starts");
  }
  return Status::ok();
}

Status parse_event(const std::string& event, FaultEvent* out) {
  FaultEvent e;
  std::size_t pos = 0;
  bool has_pair = false;
  if (event.compare(0, 5, "link:") == 0) {
    e.kind = FaultEvent::Kind::kLinkDown;
    pos = 5;
    has_pair = true;
  } else if (event.compare(0, 3, "pe:") == 0) {
    e.kind = FaultEvent::Kind::kPeDown;
    pos = 3;
  } else if (event.compare(0, 5, "drop:") == 0) {
    e.kind = FaultEvent::Kind::kWordDrop;
    pos = 5;
    has_pair = true;
  } else {
    return event_error(event, "unknown event kind");
  }
  std::uint64_t id = 0;
  if (!parse_number(event, &pos, &id)) {
    return event_error(event, "expected a node id");
  }
  e.a = static_cast<std::size_t>(id);
  if (has_pair) {
    if (pos >= event.size() || event[pos] != '-') {
      return event_error(event, "expected '-' between the link endpoints");
    }
    ++pos;
    if (!parse_number(event, &pos, &id)) {
      return event_error(event, "expected the second node id");
    }
    e.b = static_cast<std::size_t>(id);
    if (e.a == e.b) return event_error(event, "link endpoints are equal");
  }
  if (pos >= event.size() || event[pos] != '@') {
    return event_error(event, "expected '@' before the round window");
  }
  ++pos;
  DYNCG_RETURN_IF_ERROR(parse_window(event, event, pos, &e.from_round,
                                     &e.to_round));
  if (e.kind == FaultEvent::Kind::kWordDrop && e.to_round != e.from_round) {
    return event_error(event, "drop events name a single round");
  }
  *out = e;
  return Status::ok();
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string FaultEvent::to_string() const {
  switch (kind) {
    case Kind::kLinkDown:
      return "link:" + std::to_string(a) + "-" + std::to_string(b) + "@" +
             window_to_string(from_round, to_round);
    case Kind::kPeDown:
      return "pe:" + std::to_string(a) + "@" +
             window_to_string(from_round, to_round);
    case Kind::kWordDrop:
      return "drop:" + std::to_string(a) + "-" + std::to_string(b) + "@" +
             std::to_string(from_round);
  }
  return "?";
}

StatusOr<FaultPlan> FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    std::size_t end = comma == std::string::npos ? spec.size() : comma;
    std::string event = trim(spec.substr(pos, end - pos));
    if (event.empty()) {
      return Status::parse_error("empty fault event in spec '" + spec + "'");
    }
    FaultEvent e;
    DYNCG_RETURN_IF_ERROR(parse_event(event, &e));
    plan.events_.push_back(e);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (plan.events_.empty()) {
    return Status::parse_error("empty fault spec");
  }
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const Topology& topo,
                            std::size_t link_downs, std::size_t pe_downs,
                            std::size_t word_drops, std::uint64_t horizon) {
  Rng rng(seed);
  FaultPlan plan;
  if (horizon == 0) horizon = 1;
  // Undirected link census in (smaller id, larger id) order: deterministic
  // for a fixed topology.
  std::vector<std::pair<std::size_t, std::size_t>> links;
  for (std::size_t v = 0; v < topo.size(); ++v) {
    std::vector<std::size_t> nb = topo.neighbors(v);
    std::sort(nb.begin(), nb.end());
    for (std::size_t w : nb) {
      if (w > v) links.emplace_back(v, w);
    }
  }
  auto window = [&](FaultEvent* e) {
    std::uint64_t from = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<int>(horizon) - 1));
    std::uint64_t len = static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<int>(horizon)));
    e->from_round = from;
    e->to_round = from + len - 1;
  };
  for (std::size_t i = 0; i < link_downs && !links.empty(); ++i) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kLinkDown;
    auto [a, b] = links[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(links.size()) - 1))];
    e.a = a;
    e.b = b;
    window(&e);
    plan.events_.push_back(e);
  }
  for (std::size_t i = 0; i < pe_downs && topo.size() > 1; ++i) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kPeDown;
    e.a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(topo.size()) - 1));
    window(&e);
    plan.events_.push_back(e);
  }
  for (std::size_t i = 0; i < word_drops && !links.empty(); ++i) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kWordDrop;
    auto [a, b] = links[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(links.size()) - 1))];
    // Drops are directed; flip half the time.
    if (rng.uniform_int(0, 1) != 0) std::swap(a, b);
    e.a = a;
    e.b = b;
    e.from_round = e.to_round = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<int>(horizon) - 1));
    plan.events_.push_back(e);
  }
  return plan;
}

FaultPlan FaultPlan::single_link_down(std::size_t a, std::size_t b,
                                      std::uint64_t from, std::uint64_t to) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLinkDown;
  e.a = a;
  e.b = b;
  e.from_round = from;
  e.to_round = to;
  plan.events_.push_back(e);
  return plan;
}

FaultPlan FaultPlan::single_pe_down(std::size_t node, std::uint64_t from,
                                    std::uint64_t to) {
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultEvent::Kind::kPeDown;
  e.a = node;
  e.from_round = from;
  e.to_round = to;
  plan.events_.push_back(e);
  return plan;
}

bool FaultPlan::link_down(std::size_t a, std::size_t b,
                          std::uint64_t round) const {
  for (const FaultEvent& e : events_) {
    if (!e.active_at(round)) continue;
    if (e.kind == FaultEvent::Kind::kLinkDown &&
        ((e.a == a && e.b == b) || (e.a == b && e.b == a))) {
      return true;
    }
    // A downed PE takes all its incident links with it.
    if (e.kind == FaultEvent::Kind::kPeDown && (e.a == a || e.a == b)) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::pe_down(std::size_t node, std::uint64_t round) const {
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultEvent::Kind::kPeDown && e.a == node &&
        e.active_at(round)) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::drop_word(std::size_t from, std::size_t to,
                          std::uint64_t round) const {
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultEvent::Kind::kWordDrop && e.a == from && e.b == to &&
        e.from_round == round) {
      return true;
    }
  }
  return false;
}

std::string FaultPlan::to_string() const {
  std::string s;
  for (const FaultEvent& e : events_) {
    if (!s.empty()) s += ",";
    s += e.to_string();
  }
  return s;
}

std::string FaultPlan::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("spec");
  w.value(to_string());
  w.key("events");
  w.value(std::uint64_t{events_.size()});
  w.end_object();
  return w.take();
}

std::vector<std::size_t> route_avoiding(const Topology& topo,
                                        const FaultPlan& plan,
                                        std::size_t from, std::size_t to,
                                        std::uint64_t round) {
  if (plan.pe_down(from, round) || plan.pe_down(to, round)) return {};
  if (from == to) return {from};
  const std::size_t n = topo.size();
  std::vector<std::size_t> parent(n, kUnreachable);
  std::deque<std::size_t> queue;
  parent[from] = from;
  queue.push_back(from);
  while (!queue.empty()) {
    std::size_t v = queue.front();
    queue.pop_front();
    std::vector<std::size_t> nb = topo.neighbors(v);
    std::sort(nb.begin(), nb.end());  // smallest-id first: deterministic BFS
    for (std::size_t w : nb) {
      if (parent[w] != kUnreachable) continue;
      if (plan.link_down(v, w, round)) continue;
      if (w != to && plan.pe_down(w, round)) continue;
      parent[w] = v;
      if (w == to) {
        std::vector<std::size_t> path{to};
        while (path.back() != from) path.push_back(parent[path.back()]);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(w);
    }
  }
  return {};
}

std::size_t detour_extra_rounds(const Topology& topo, const FaultPlan& plan,
                                std::size_t a, std::size_t b,
                                std::uint64_t round) {
  std::vector<std::size_t> path = route_avoiding(topo, plan, a, b, round);
  if (path.empty()) return kUnreachable;
  return path.size() - 2;  // hops minus the direct hop
}

std::size_t remap_spare(const Topology& topo, const FaultPlan& plan,
                        std::size_t down_node, std::uint64_t round) {
  for (std::size_t r = topo.size(); r-- > 0;) {
    std::size_t v = topo.node_of_rank(r);
    if (v != down_node && !plan.pe_down(v, round)) return v;
  }
  return kUnreachable;
}

void RouteCache::attach(const FaultPlan* plan) {
  plan_ = plan;
  boundaries_.clear();
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
  if (plan_ == nullptr) return;
  for (const FaultEvent& e : plan_->events()) {
    if (e.kind == FaultEvent::Kind::kWordDrop) continue;  // never routes
    boundaries_.push_back(e.from_round);
    if (e.to_round != FaultEvent::kForever) {
      boundaries_.push_back(e.to_round + 1);
    }
  }
  std::sort(boundaries_.begin(), boundaries_.end());
  boundaries_.erase(std::unique(boundaries_.begin(), boundaries_.end()),
                    boundaries_.end());
}

std::uint64_t RouteCache::epoch_of(std::uint64_t round) const {
  return static_cast<std::uint64_t>(
      std::upper_bound(boundaries_.begin(), boundaries_.end(), round) -
      boundaries_.begin());
}

const std::vector<std::size_t>& RouteCache::route(const Topology& topo,
                                                  std::size_t from,
                                                  std::size_t to,
                                                  std::uint64_t round) {
  DYNCG_ASSERT(plan_ != nullptr, "RouteCache::route without a plan attached");
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
  // Epoch 0 is a valid segment, so shift by one: stored epoch 0 means
  // "never computed".
  const std::uint64_t epoch = epoch_of(round) + 1;
  Entry& e = entries_[key];
  if (e.epoch == epoch) {
    ++hits_;
    return e.path;
  }
  ++misses_;
  e.path = route_avoiding(topo, *plan_, from, to, round);
  e.epoch = epoch;
  return e.path;
}

namespace faults_global {
namespace {
struct Counters {
  std::atomic<std::uint64_t> link_down_hits{0};
  std::atomic<std::uint64_t> pe_down_hits{0};
  std::atomic<std::uint64_t> words_dropped{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> detour_rounds{0};
  std::atomic<std::uint64_t> remaps{0};
};
Counters& counters() {
  static Counters* c = new Counters;  // leaked: bump-able from atexit hooks
  return *c;
}

// Registry mirrors of the process-wide fault counters, bumped here so one
// bridge covers both layers that count (Fabric delivery and Machine
// recovery penalties).  Fault schedules are seeded and consulted at
// deterministic rounds, so all six are deterministic figures.
struct FaultMetrics {
  metrics::Counter& link_down_hits = metrics::counter(
      "machine.fault.link_down_hits", "Words that met a downed link.",
      metrics::Stability::kDeterministic);
  metrics::Counter& pe_down_hits = metrics::counter(
      "machine.fault.pe_down_hits", "Words that met a downed PE.",
      metrics::Stability::kDeterministic);
  metrics::Counter& words_dropped = metrics::counter(
      "machine.fault.words_dropped", "Words dropped by word-drop faults.",
      metrics::Stability::kDeterministic);
  metrics::Counter& retries = metrics::counter(
      "machine.fault.retries", "Retransmissions after drops.",
      metrics::Stability::kDeterministic);
  metrics::Counter& detour_rounds = metrics::counter(
      "machine.fault.detour_rounds", "Extra rounds charged for detours.",
      metrics::Stability::kDeterministic);
  metrics::Counter& remaps = metrics::counter(
      "machine.fault.remaps", "PE remaps after pe-down recovery.",
      metrics::Stability::kDeterministic);
};
FaultMetrics& fault_metrics() {
  static FaultMetrics* m = new FaultMetrics;  // leaked, like the registry
  return *m;
}
}  // namespace

void count_link_down_hit(std::uint64_t n) {
  counters().link_down_hits.fetch_add(n, std::memory_order_relaxed);
  fault_metrics().link_down_hits.add(n);
}
void count_pe_down_hit(std::uint64_t n) {
  counters().pe_down_hits.fetch_add(n, std::memory_order_relaxed);
  fault_metrics().pe_down_hits.add(n);
}
void count_word_dropped(std::uint64_t n) {
  counters().words_dropped.fetch_add(n, std::memory_order_relaxed);
  fault_metrics().words_dropped.add(n);
}
void count_retry(std::uint64_t n) {
  counters().retries.fetch_add(n, std::memory_order_relaxed);
  fault_metrics().retries.add(n);
}
void count_detour_rounds(std::uint64_t n) {
  counters().detour_rounds.fetch_add(n, std::memory_order_relaxed);
  fault_metrics().detour_rounds.add(n);
}
void count_remap(std::uint64_t n) {
  counters().remaps.fetch_add(n, std::memory_order_relaxed);
  fault_metrics().remaps.add(n);
}

FaultCountersSnapshot snapshot() {
  Counters& c = counters();
  FaultCountersSnapshot s;
  s.link_down_hits = c.link_down_hits.load(std::memory_order_relaxed);
  s.pe_down_hits = c.pe_down_hits.load(std::memory_order_relaxed);
  s.words_dropped = c.words_dropped.load(std::memory_order_relaxed);
  s.retries = c.retries.load(std::memory_order_relaxed);
  s.detour_rounds = c.detour_rounds.load(std::memory_order_relaxed);
  s.remaps = c.remaps.load(std::memory_order_relaxed);
  return s;
}
}  // namespace faults_global

const FaultPlan* env_fault_plan() {
  static const FaultPlan* plan = []() -> const FaultPlan* {
    const char* s = std::getenv("DYNCG_FAULTS");
    if (s == nullptr || *s == '\0') return nullptr;
    StatusOr<FaultPlan> parsed = FaultPlan::parse(s);
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "dyncg: bad DYNCG_FAULTS: %s\n",
                   parsed.status().to_string().c_str());
      DYNCG_ASSERT(false, "malformed DYNCG_FAULTS fault spec");
    }
    return new FaultPlan(std::move(parsed).value());
  }();
  return plan;
}

}  // namespace dyncg
