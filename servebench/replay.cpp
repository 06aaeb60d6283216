#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>

#include "dyncg/allpairs.hpp"
#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/proximity.hpp"
#include "envelope/dynamic_envelope.hpp"
#include "machine/faults.hpp"
#include "machine/machine.hpp"
#include "poly/kernels.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "steady/machine_geometry.hpp"
#include "support/ackermann.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace servebench {

namespace {

using namespace dyncg;
using Clock = std::chrono::steady_clock;

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// The engine's machine sizing (src/serve/engine.cpp run_query), rebuilt
// from the public constructors so machine construction is timed on its own.
Machine make_machine(const std::string& name, std::size_t capacity) {
  return name == "hypercube" ? Machine(make_hypercube_for(capacity))
                             : Machine(make_mesh_for(capacity));
}

Machine build_machine(const serve::Request& r) {
  const MotionSystem& sys = *r.system;
  const bool mesh = r.machine == "mesh";
  switch (r.op) {
    case serve::Op::kNeighbor:
      return make_machine(
          r.machine, lambda_upper_bound(ceil_pow2(sys.size()),
                                        std::max(1, 2 * sys.motion_degree())));
    case serve::Op::kPairs:
      return mesh ? allpairs_machine_mesh(sys) : allpairs_machine_hypercube(sys);
    case serve::Op::kHullwhen:
      return mesh ? hull_membership_machine_mesh(sys)
                  : hull_membership_machine_hypercube(sys);
    case serve::Op::kContain:
      return mesh ? containment_machine_mesh(sys)
                  : containment_machine_hypercube(sys);
    default:  // collisions, steady
      return make_machine(r.machine, sys.size());
  }
}

// The Section 4/5 algorithm the engine calls for this op, without rendering.
bool run_algorithm(Machine& m, const serve::Request& r) {
  const MotionSystem& sys = *r.system;
  switch (r.op) {
    case serve::Op::kNeighbor:
      return try_neighbor_sequence(m, sys, r.query, r.farthest).is_ok();
    case serve::Op::kPairs:
      return !closest_pair_sequence(m, sys, r.farthest).to_string().empty();
    case serve::Op::kCollisions:
      return try_collision_times(m, sys, r.query).is_ok();
    case serve::Op::kHullwhen:
      return try_hull_membership_intervals(m, sys, r.query).is_ok();
    case serve::Op::kContain:
      if (r.has_box) return try_containment_intervals(m, sys, r.box).is_ok();
      return smallest_enclosing_cube(m, sys).edge >= 0.0;
    case serve::Op::kSteady: {
      const std::size_t nn =
          machine_steady_neighbor(m, sys, r.query, r.farthest);
      const std::size_t hull = machine_steady_hull_ids(m, sys).size();
      const auto far = machine_steady_farthest_pair(m, sys);
      return nn < sys.size() && hull <= sys.size() && far.a < sys.size();
    }
    default:
      return false;
  }
}

struct Counts {
  std::uint64_t horner = 0;
  std::uint64_t compare = 0;
  FaultCountersSnapshot faults;
};

Counts read_counts() {
  Counts c;
  for (const metrics::CounterSnapshot& s : metrics::snapshot().counters) {
    if (s.name == "kernels.horner.elements") c.horner = s.value;
    if (s.name == "kernels.compare.elements") c.compare = s.value;
  }
  c.faults = faults_global::snapshot();
  return c;
}

std::uint64_t u64_field(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_number() ? static_cast<std::uint64_t>(f->number)
                                        : 0;
}

CostSnapshot cost_field(const json::Value& v) {
  CostSnapshot c;
  if (const json::Value* cost = v.find("cost")) {
    c.rounds = u64_field(*cost, "rounds");
    c.messages = u64_field(*cost, "messages");
    c.local_ops = u64_field(*cost, "local_ops");
  }
  return c;
}

double time_field(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_string() ? std::strtod(f->string.c_str(), nullptr)
                                        : 0.0;
}

std::string string_field(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_string() ? f->string : std::string();
}

// Self time per span: its duration minus its direct children's, with
// parents found by per-thread nesting depth.
void aggregate(std::vector<trace::Event> ev,
               std::map<std::string, ReplayResult::SpanSelf>* spans) {
  std::sort(ev.begin(), ev.end(),
            [](const trace::Event& a, const trace::Event& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.depth < b.depth;
            });
  std::vector<double> child(ev.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (i > 0 && ev[i].tid != ev[i - 1].tid) open.clear();
    while (!open.empty() && ev[open.back()].depth >= ev[i].depth) {
      open.pop_back();
    }
    if (!open.empty()) child[open.back()] += static_cast<double>(ev[i].dur_ns);
    open.push_back(i);
  }
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const std::string& name = ev[i].name;
    ReplayResult::SpanSelf& s = (*spans)[name.substr(0, name.find('#'))];
    ++s.count;
    s.self_ns += static_cast<double>(ev[i].dur_ns) - child[i];
  }
}

// One pass over fresh serving state.  Only the recording pass keeps per-call
// times and counts.
class Pass {
 public:
  Pass(ReplayResult* out, bool recording) : out_(out), recording_(recording) {}

  void run(const std::string& line, bool timed) {
    timed_ = timed;
    std::optional<StatusOr<serve::Request>> parsed;
    timed_call("bench.parse", "parse",
               [&] { parsed.emplace(serve::parse_request(line)); });
    if (!parsed->is_ok()) {
      fail("request rejected: " + parsed->status().to_string());
      return;
    }
    const serve::Request& r = parsed->value();
    if (serve::is_fleet_op(r.op)) {
      run_fleet(r);
    } else {
      run_query(r);
    }
  }

 private:
  bool recording() const { return timed_ && recording_; }

  Counts counts() const { return recording() ? read_counts() : Counts{}; }

  // Runs f under a span; records its host time under `key` when recording.
  template <class F>
  double timed_call(const char* span, const std::string& key, F&& f) {
    trace::Span s(span);
    const Clock::time_point t0 = Clock::now();
    f();
    const double us = micros(Clock::now() - t0);
    if (recording() && !key.empty()) out_->us[key].push_back(us);
    return us;
  }

  void fail(const std::string& why) {
    if (out_->error.empty()) out_->error = why;
  }

  void add_counts(const Counts& a, const Counts& b) {
    out_->horner_elems += b.horner - a.horner;
    out_->compare_elems += b.compare - a.compare;
    out_->fault_retries += b.faults.retries - a.faults.retries;
    out_->fault_detour_rounds +=
        b.faults.detour_rounds - a.faults.detour_rounds;
  }

  void run_query(const serve::Request& r) {
    const std::string op = serve::op_name(r.op);
    const serve::CachedResult* hit = nullptr;
    timed_call("bench.cache.find", "cache.find",
               [&] { hit = cache_.find(r.key); });
    std::string response;
    if (hit != nullptr) {
      timed_call("bench.render", "render", [&] {
        response = serve::render_result(r.id_json, r.op, *hit, true,
                                        r.fingerprint);
      });
      return;
    }
    const Counts before = counts();
    std::optional<StatusOr<serve::CachedResult>> computed;
    timed_call("bench.engine", "engine." + op,
               [&] { computed.emplace(serve::run_query(r)); });
    if (!computed->is_ok()) {
      fail(op + " failed: " + computed->status().to_string());
      return;
    }
    const serve::CachedResult& result = computed->value();
    if (recording()) {
      add_counts(before, counts());
      out_->sim_messages += result.cost.messages;
    }
    if (timed_) drill_down(r, op);
    cache_.insert(r.key, result);
    timed_call("bench.render", "render", [&] {
      response = serve::render_result(r.id_json, r.op, result, false,
                                      r.fingerprint);
    });
  }

  // Machine construction and the algorithm, timed apart from the engine's
  // bookkeeping and rendering.
  void drill_down(const serve::Request& r, const std::string& op) {
    std::optional<Machine> m;
    timed_call("bench.machine.build", "machine.build",
               [&] { m.emplace(build_machine(r)); });
    if (r.has_faults) m->set_fault_plan(&r.faults);
    const std::uint64_t rounds0 = m->ledger().snapshot().rounds;
    bool ok = false;
    const double us = timed_call("bench.dyncg", "dyncg." + op,
                                 [&] { ok = run_algorithm(*m, r); });
    if (!ok) fail(op + " algorithm failed");
    if (recording()) {
      out_->algo_ns += us * 1e3;
      out_->algo_rounds += m->ledger().snapshot().rounds - rounds0;
    }
  }

  void run_fleet(const serve::Request& r) {
    const char* key = r.op == serve::Op::kFleetUpdate  ? "fleet.update"
                      : r.op == serve::Op::kFleetQuery ? "fleet.query"
                                                       : "";
    const Counts before = counts();
    std::optional<StatusOr<std::string>> handled;
    timed_call("bench.fleet.handle", key,
               [&] { handled.emplace(fleets_.handle(r)); });
    if (!handled->is_ok()) {
      fail("fleet op failed: " + handled->status().to_string());
      return;
    }
    if (recording()) add_counts(before, counts());
    json::Value v;
    if (!json::parse(handled->value(), &v)) {
      fail("unparseable fleet response");
      return;
    }
    if (r.op == serve::Op::kFleetOpen) {
      envs_[string_field(v, "fleet")] = std::make_unique<DynamicEnvelope>(
          /*take_min=*/true, serve::fleet_s_bound(r.fleet_k));
      return;
    }
    if (recording()) out_->sim_messages += cost_field(v).messages;
    rerender(r, v, handled->value());
    replay_dynenv(r, string_field(v, "result"));
  }

  // render_fleet_* on the fields the registry rendered: times the render
  // step on its own, and the round trip must reproduce the bytes.
  void rerender(const serve::Request& r, const json::Value& v,
                const std::string& original) {
    std::string again;
    if (r.op == serve::Op::kFleetUpdate) {
      serve::FleetUpdateInfo info;
      info.fleet = string_field(v, "fleet");
      info.inserted = u64_field(v, "inserted");
      info.deduped = u64_field(v, "deduped");
      info.erased = u64_field(v, "erased");
      info.members = u64_field(v, "members");
      info.t = time_field(v, "t");
      info.next_event = time_field(v, "next_event");
      info.cost = cost_field(v);
      timed_call("bench.render", "render",
                 [&] { again = serve::render_fleet_update(r.id_json, info); });
    } else if (r.op == serve::Op::kFleetQuery) {
      serve::FleetQueryInfo info;
      info.fleet = string_field(v, "fleet");
      info.fingerprint =
          std::strtoull(string_field(v, "key").c_str(), nullptr, 16);
      info.members = u64_field(v, "members");
      info.t = time_field(v, "t");
      info.next_event = time_field(v, "next_event");
      info.cost = cost_field(v);
      info.result = string_field(v, "result");
      timed_call("bench.render", "render",
                 [&] { again = serve::render_fleet_query(r.id_json, info); });
    } else {
      return;
    }
    if (again != original) fail("fleet response does not re-render: " + original);
  }

  // The same update on a standalone DynamicEnvelope over fleet_score
  // polynomials (erases, then inserts, then the advance — the registry's
  // order).  A query's result must equal the registry's.
  void replay_dynenv(const serve::Request& r, const std::string& result) {
    auto it = envs_.find(r.fleet);
    if (it == envs_.end()) {
      fail("no envelope for session " + r.fleet);
      return;
    }
    DynamicEnvelope& env = *it->second;
    if (r.op == serve::Op::kFleetQuery) {
      std::string mine;
      timed_call("bench.dynenv", "dynenv.query", [&] {
        (void)env.envelope();
        mine = env.result_string();
      });
      if (mine != result) fail("standalone envelope diverged on " + r.fleet);
      return;
    }
    const std::uint64_t recombines0 = env.stats().recombines;
    for (std::uint64_t id : r.fleet_erase) {
      timed_call("bench.dynenv", "dynenv.erase", [&] { env.erase(id); });
    }
    const Trajectory origin = serve::fleet_origin(2);
    for (const auto& [id, point] : r.fleet_insert) {
      Polynomial score = serve::fleet_score(point, origin);
      timed_call("bench.dynenv", "dynenv.insert",
                 [&] { env.insert(id, std::move(score)); });
    }
    if (r.fleet_has_advance) {
      timed_call("bench.dynenv", "dynenv.advance",
                 [&] { env.advance(r.fleet_advance); });
    }
    if (recording()) {
      ++out_->dynenv_updates;
      out_->dynenv_recombines += env.stats().recombines - recombines0;
    }
  }

  ReplayResult* out_;
  bool recording_;
  bool timed_ = false;
  serve::ResultCache cache_{serve::ServerOptions{}.cache_cap};
  serve::FleetRegistry fleets_{serve::FleetOptions{}};
  std::map<std::string, std::unique_ptr<DynamicEnvelope>> envs_;
};

}  // namespace

ReplayResult replay(const std::vector<std::string>& setup,
                    const std::vector<Item>& items) {
  set_host_threads(1);
  metrics::enable();
  ReplayResult out;
  out.items = items.size();
  // Pass 1 records per-call times and counts.
  {
    Pass pass(&out, /*recording=*/true);
    for (const std::string& line : setup) pass.run(line, /*timed=*/false);
    for (const Item& item : items) pass.run(item.line, /*timed=*/true);
  }
  // Then a traced and an untraced pass in lockstep, alternating which goes
  // first, so a drift in host speed hits both alike: their wall-time ratio
  // is the tracing overhead.
  Pass traced(&out, false);
  Pass plain(&out, false);
  for (const std::string& line : setup) {
    traced.run(line, /*timed=*/false);
    plain.run(line, /*timed=*/false);
  }
  trace::clear();
  auto wall = [](Pass& pass, const std::string& line) {
    const Clock::time_point t0 = Clock::now();
    pass.run(line, /*timed=*/true);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i % 2 == 1) out.untraced_s += wall(plain, items[i].line);
    trace::enable();
    out.traced_s += wall(traced, items[i].line);
    trace::disable();
    aggregate(trace::snapshot(), &out.spans);
    trace::clear();
    if (i % 2 == 0) out.untraced_s += wall(plain, items[i].line);
  }
  return out;
}

volatile double g_horner_sink = 0.0;

double horner_ns_per_elem() {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kCalls = 100000;
  Rng rng(20260101);
  std::vector<double> coeffs(5), ts(kBatch), out(kBatch);
  for (double& c : coeffs) c = rng.uniform(-2.0, 2.0);
  for (double& t : ts) t = rng.uniform(0.0, 8.0);
  std::vector<double> ns;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      kernels::horner_many(coeffs.data(), coeffs.size(), ts.data(), kBatch,
                           out.data());
      sink += out[i % kBatch];
    }
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                     .count() /
                 static_cast<double>(kCalls * kBatch));
  }
  g_horner_sink = sink;  // keeps the timed loop observable
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

}  // namespace servebench
