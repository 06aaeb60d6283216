#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "dyncg/allpairs.hpp"
#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/proximity.hpp"
#include "envelope/scenario_key.hpp"
#include "machine/machine.hpp"
#include "machine/other_topologies.hpp"
#include "steady/machine_geometry.hpp"
#include "support/ackermann.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dyncg {
namespace serve {

namespace {

// Per-request distributions.  The simulated figures are ledger deltas —
// pure functions of the scenario, and the server computes each miss in
// arrival order — so their histograms are deterministic at any
// DYNCG_THREADS and batch boundary.  Host latency is wall clock and marked
// noisy.  24 power-of-two buckets cover 1 .. 8M rounds/messages/ops.
struct QueryMetrics {
  metrics::Histogram& rounds = metrics::histogram(
      "serve.query.rounds", "Simulated rounds per computed query.",
      metrics::Stability::kDeterministic, metrics::pow2_bounds(24));
  metrics::Histogram& messages = metrics::histogram(
      "serve.query.messages", "Simulated messages per computed query.",
      metrics::Stability::kDeterministic, metrics::pow2_bounds(24));
  metrics::Histogram& local_ops = metrics::histogram(
      "serve.query.local_ops", "Simulated local operations per computed query.",
      metrics::Stability::kDeterministic, metrics::pow2_bounds(24));
  metrics::Histogram& host_ns = metrics::histogram(
      "serve.query.host_ns", "Host nanoseconds per computed query.",
      metrics::Stability::kHostNoisy,
      {1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000,
       10000000000ull});
};

QueryMetrics& query_metrics() {
  static QueryMetrics* m = new QueryMetrics;  // leaked, like the registry
  return *m;
}

// printf-exact rendering into the answer text.  The common line fits the
// stack buffer and is formatted once; a longer one (a cube edge near 1e300)
// is formatted again at its exact size, never cut.
template <class... Args>
void appendf(std::string* out, const char* fmt, Args... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n <= 0) return;
  const std::size_t len = static_cast<std::size_t>(n);
  if (len < sizeof(buf)) {
    out->append(buf, len);
  } else {
    const std::size_t at = out->size();
    out->resize(at + len + 1);  // snprintf writes the terminating NUL too
    std::snprintf(out->data() + at, len + 1, fmt, args...);
    out->resize(at + len);
  }
}

}  // namespace

Machine make_machine(const std::string& name, std::size_t capacity) {
  if (name == "hypercube") return Machine(make_hypercube_for(capacity));
  if (name == "ccc") return Machine(make_ccc_for(capacity));
  if (name == "shuffle") return Machine(make_shuffle_exchange_for(capacity));
  DYNCG_ASSERT(name == "mesh", "unvalidated machine name reached the engine");
  return Machine(make_mesh_for(capacity));
}

Status check_machine_size(const std::string& op, const std::string& name,
                          std::size_t capacity) {
  const std::size_t limit = name == "ccc"       ? kMaxCccPes
                            : name == "shuffle" ? kMaxShuffleExchangePes
                                                : capacity;
  if (capacity <= limit) return Status::ok();
  return Status::invalid_argument("op \"" + op + "\" needs " +
                                  std::to_string(capacity) +
                                  " PEs, but machine \"" + name +
                                  "\" simulates at most " +
                                  std::to_string(limit));
}

StatusOr<Machine> query_machine(const Request& req) {
  DYNCG_ASSERT(req.system.has_value(), "the engine needs a scenario");
  const MotionSystem& sys = *req.system;
  if (sys.size() < 2 && (req.op == Op::kPairs || req.op == Op::kContain ||
                         req.op == Op::kSteady)) {
    return Status::invalid_argument(std::string("op \"") + op_name(req.op) +
                                    "\" needs at least 2 points, got " +
                                    std::to_string(sys.size()));
  }
  if (req.op == Op::kSteady && req.query >= sys.size()) {
    return Status::invalid_argument(
        "query index " + std::to_string(req.query) + " out of range [0, " +
        std::to_string(sys.size()) + ")");
  }
  // neighbor sizes its machine to the envelope's piece bound, collisions
  // and steady to one PE per point; the other ops run on mesh or hypercube
  // only (the protocol and dyncg_cli see to that).
  const std::size_t capacity =
      req.op == Op::kNeighbor
          ? lambda_upper_bound(ceil_pow2(sys.size()),
                               std::max(1, 2 * sys.motion_degree()))
          : sys.size();
  if (Status st = check_machine_size(op_name(req.op), req.machine, capacity);
      !st.is_ok()) {
    return st;
  }
  Machine m = [&] {
    switch (req.op) {
      case Op::kNeighbor:
        return make_machine(req.machine, capacity);
      case Op::kPairs:
        return req.machine == "mesh" ? allpairs_machine_mesh(sys)
                                     : allpairs_machine_hypercube(sys);
      case Op::kHullwhen:
        return req.machine == "mesh" ? hull_membership_machine_mesh(sys)
                                     : hull_membership_machine_hypercube(sys);
      case Op::kContain:
        return req.machine == "mesh" ? containment_machine_mesh(sys)
                                     : containment_machine_hypercube(sys);
      default:  // kCollisions, kSteady: one PE per point
        return make_machine(req.machine, capacity);
    }
  }();
  if (req.has_faults) m.set_fault_plan(&req.faults);
  m.record_unrecoverable_faults();
  return m;
}

namespace {

// answer_query without the fault check.
StatusOr<std::string> run_op(Machine& m, const Request& req) {
  const MotionSystem& sys = *req.system;
  std::string text;
  switch (req.op) {
    case Op::kNeighbor: {
      StatusOr<NeighborSequence> seq =
          try_neighbor_sequence(m, sys, req.query, req.farthest);
      if (!seq.is_ok()) return seq.status();
      text = seq.value().to_string() + "\n";
      break;
    }
    case Op::kPairs:
      text = closest_pair_sequence(m, sys, req.farthest).to_string() + "\n";
      break;
    case Op::kCollisions: {
      StatusOr<CollisionReport> rep = try_collision_times(m, sys, req.query);
      if (!rep.is_ok()) return rep.status();
      if (rep.value().events.empty()) {
        appendf(&text, "no collisions for P%zu\n", req.query);
      }
      for (const CollisionEvent& e : rep.value().events) {
        appendf(&text, "t = %10.4f  P%zu <-> P%zu\n", e.time, req.query,
                e.other);
      }
      break;
    }
    case Op::kHullwhen: {
      StatusOr<IntervalSet> hit =
          try_hull_membership_intervals(m, sys, req.query);
      if (!hit.is_ok()) return hit.status();
      appendf(&text, "P%zu is a hull vertex during ", req.query);
      text += hit.value().to_string() + "\n";
      break;
    }
    case Op::kContain: {
      if (req.has_box) {
        StatusOr<IntervalSet> J = try_containment_intervals(m, sys, req.box);
        if (!J.is_ok()) return J.status();
        text = "fits the box during " + J.value().to_string() + "\n";
      } else {
        SmallestCube cube = smallest_enclosing_cube(m, sys);
        appendf(&text, "smallest enclosing cube: edge %.4f at t = %.4f\n",
                cube.edge, cube.time);
      }
      break;
    }
    case Op::kSteady: {
      appendf(&text, "steady NN of P%zu: P%zu\n", req.query,
              machine_steady_neighbor(m, sys, req.query, req.farthest));
      // One hull serves both rows.
      const std::vector<Point2<RationalGerm>> hull =
          machine_steady_hull(m, sys);
      text += "steady hull: ";
      for (const Point2<RationalGerm>& p : hull) appendf(&text, "P%zu ", p.id);
      text += "\n";
      auto far = machine_steady_farthest_pair(m, sys, hull);
      appendf(&text, "steady farthest pair: (P%zu, P%zu)\n", far.a, far.b);
      break;
    }
    case Op::kStats:
    case Op::kPing:
    case Op::kMetrics:
    case Op::kFlushTrace:
    case Op::kFleetOpen:    // fleet ops run in the server's sequential
    case Op::kFleetUpdate:  // pass (serve/fleet.hpp), never the engine
    case Op::kFleetQuery:
    case Op::kFleetClose:
      return Status::invalid_argument("op carries no scenario to run");
  }
  return text;
}

}  // namespace

StatusOr<std::string> answer_query(Machine& m, const Request& req) {
  StatusOr<std::string> text = run_op(m, req);
  // The run would have aborted at the recorded event, so it outranks
  // whatever the driver returned.
  if (!m.fault_status().is_ok()) return m.fault_status();
  return text;
}

StatusOr<CachedResult> run_query(const Request& req) {
  const auto host_start = std::chrono::steady_clock::now();
  StatusOr<Machine> machine = query_machine(req);
  if (!machine.is_ok()) return machine.status();
  Machine& m = machine.value();

  // Request-tagged span with the machine's ledger attached, so a trace of
  // a serving run attributes rounds/messages to the fingerprint it served.
  // The tag allocates, so it is built only when tracing is on (the span
  // itself is free when disabled).
  std::string span_name;
  if (trace::enabled()) {
    span_name = "serve.query#" + fingerprint_hex(req.fingerprint);
  }
  trace::Span span(span_name.empty() ? "serve.query" : span_name.c_str(),
                   &m.ledger());

  CostMeter meter(m.ledger());
  StatusOr<std::string> text = answer_query(m, req);
  if (!text.is_ok()) return text.status();
  CachedResult out;
  out.text = std::move(text).value();
  out.cost = meter.elapsed();
  out.topology = m.topology().name();
  out.pes = m.size();
  out.fingerprint = req.fingerprint;
  QueryMetrics& qm = query_metrics();
  qm.rounds.observe(out.cost.rounds);
  qm.messages.observe(out.cost.messages);
  qm.local_ops.observe(out.cost.local_ops);
  qm.host_ns.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_start)
          .count()));
  return out;
}

}  // namespace serve
}  // namespace dyncg
