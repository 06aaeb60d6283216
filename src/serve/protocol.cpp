#include "serve/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "envelope/scenario_key.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace serve {

namespace {

// Defaults mirror dyncg_cli so a request that names only an op queries the
// same scenario the bare CLI command would.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kDefaultN = 8;
constexpr std::size_t kDefaultDim = 2;
constexpr int kDefaultK = 2;

Status bad(const std::string& msg) { return Status::invalid_argument(msg); }

// The JSON layer preserves duplicate members (json::Value::object is an
// ordered vector); last-wins coercion would make a request mean something
// its author may not have written, so duplicates are rejected outright.
// O(n^2) over a request's handful of fields.
Status check_duplicate_members(const json::Value& obj, const char* what) {
  for (std::size_t i = 0; i < obj.object.size(); ++i) {
    for (std::size_t j = i + 1; j < obj.object.size(); ++j) {
      if (obj.object[i].first == obj.object[j].first) {
        return bad(std::string("duplicate ") + what + " field '" +
                   obj.object[i].first + "'");
      }
    }
  }
  return Status::ok();
}

// JSON numbers arrive as doubles; integer fields must hold exactly.
bool to_index(const json::Value& v, std::uint64_t max, std::uint64_t* out) {
  if (!v.is_number() || v.number < 0 ||
      v.number != std::floor(v.number) ||
      v.number > static_cast<double>(max)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v.number);
  return true;
}

// One trajectory in wire form: an array of 1..kMaxDimension coordinate
// polynomials, each a non-empty array of at most kMaxDegree+1 finite
// coefficients (constant term first).  The one parser for scenario
// 'points' entries, fleet 'ref' and fleet 'insert' points.
Status parse_point(const json::Value& pt, const char* what,
                   std::optional<Trajectory>* out) {
  if (!pt.is_array() || pt.array.empty() ||
      pt.array.size() > kMaxDimension) {
    return bad(std::string(what) + " must be an array of 1.." +
               std::to_string(kMaxDimension) +
               " coordinate polynomials (arrays of coefficients)");
  }
  std::vector<Polynomial> coords;
  coords.reserve(pt.array.size());
  for (const json::Value& poly : pt.array) {
    if (!poly.is_array() || poly.array.empty() ||
        poly.array.size() > static_cast<std::size_t>(kMaxDegree) + 1) {
      return bad(std::string(what) +
                 " coordinates must be non-empty arrays of at most " +
                 std::to_string(kMaxDegree + 1) +
                 " coefficients (constant term first)");
    }
    std::vector<double> c(poly.array.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
      // strtod turns "1e999" into infinity; a non-finite coefficient
      // would poison every downstream comparison, so reject it here.
      const json::Value& coeff = poly.array[i];
      if (!coeff.is_number() || !std::isfinite(coeff.number)) {
        return bad("polynomial coefficients must be finite numbers");
      }
      c[i] = coeff.number;
    }
    coords.emplace_back(std::move(c));
  }
  out->emplace(std::move(coords));
  return Status::ok();
}

struct Scenario {
  bool inline_points = false;
  std::uint64_t seed = kDefaultSeed;
  std::size_t n = kDefaultN;
  std::size_t d = kDefaultDim;
  bool has_d = false;
  int k = kDefaultK;
  std::vector<Trajectory> points;
};

Status parse_scenario(const json::Value& v, Scenario* out) {
  if (!v.is_object()) return bad("'scenario' must be an object");
  if (Status st = check_duplicate_members(v, "scenario"); !st.is_ok()) {
    return st;
  }
  for (const auto& [name, member] : v.object) {
    if (name == "seed") {
      std::uint64_t x;
      if (!to_index(member, 1ull << 40, &x)) {
        return bad("scenario 'seed' must be an integer in [0, 2^40]");
      }
      out->seed = x;
    } else if (name == "n") {
      std::uint64_t x;
      if (!to_index(member, kMaxPoints, &x) || x == 0) {
        return bad("scenario 'n' must be an integer in [1, " +
                   std::to_string(kMaxPoints) + "]");
      }
      out->n = static_cast<std::size_t>(x);
    } else if (name == "d") {
      std::uint64_t x;
      if (!to_index(member, kMaxDimension, &x) || x == 0) {
        return bad("scenario 'd' must be an integer in [1, " +
                   std::to_string(kMaxDimension) + "]");
      }
      out->d = static_cast<std::size_t>(x);
      out->has_d = true;
    } else if (name == "k") {
      std::uint64_t x;
      if (!to_index(member, static_cast<std::uint64_t>(kMaxDegree), &x)) {
        return bad("scenario 'k' must be an integer in [0, " +
                   std::to_string(kMaxDegree) + "]");
      }
      out->k = static_cast<int>(x);
    } else if (name == "points") {
      if (!member.is_array() || member.array.empty() ||
          member.array.size() > kMaxPoints) {
        return bad("scenario 'points' must be a non-empty array of at most " +
                   std::to_string(kMaxPoints) + " points");
      }
      out->inline_points = true;
      out->points.reserve(member.array.size());
      for (const json::Value& pt : member.array) {
        std::optional<Trajectory> point;
        if (Status st = parse_point(pt, "scenario point", &point);
            !st.is_ok()) {
          return st;
        }
        out->points.push_back(std::move(*point));
      }
    } else {
      return bad("unknown scenario field '" + name + "'");
    }
  }
  if (out->inline_points) {
    if (out->seed != kDefaultSeed || out->n != kDefaultN || out->k != kDefaultK) {
      // A request that sets both forms is ambiguous about what it queries.
      return bad("scenario mixes inline 'points' with generator fields "
                 "('seed'/'n'/'k')");
    }
    if (!out->has_d) out->d = out->points.front().dimension();
  }
  return Status::ok();
}

// Which fleet fields the request carried (parse-time presence, so defaults
// and explicit values are distinguishable in the admissibility checks).
struct FleetFields {
  bool fleet = false;
  bool d = false;
  bool k = false;
  bool ref = false;
  bool insert = false;
  bool erase = false;
  bool advance = false;
  bool any() const { return fleet || d || k || ref || insert || erase ||
                            advance; }
};

// op-specific field admissibility, applied after the full object is read.
Status check_fields(const Request& r, bool has_scenario, bool has_query,
                    bool has_machine, const FleetFields& ff) {
  if (!is_fleet_op(r.op) && ff.any()) {
    return bad(std::string("'") + op_name(r.op) +
               "' takes no fleet fields "
               "('fleet'/'d'/'k'/'ref'/'insert'/'erase'/'advance')");
  }
  if (is_fleet_op(r.op)) {
    if (has_scenario || has_query || r.has_box || r.has_faults) {
      return bad(std::string("'") + op_name(r.op) +
                 "' takes no scenario/query/box/faults fields");
    }
    if (r.op == Op::kFleetOpen) {
      if (ff.fleet) {
        return bad("'fleet_open' names its own session — "
                   "'fleet' is not valid");
      }
      if (ff.insert || ff.erase || ff.advance) {
        return bad("'fleet_open' takes no 'insert'/'erase'/'advance' "
                   "fields");
      }
      if (r.machine != "mesh" && r.machine != "hypercube") {
        return bad("fleet sessions support machine \"mesh\" or "
                   "\"hypercube\" only");
      }
      if (ff.ref && r.fleet_ref->dimension() != r.fleet_d) {
        return bad("fleet 'ref' has " +
                   std::to_string(r.fleet_ref->dimension()) +
                   " coordinates but the session dimension is " +
                   std::to_string(r.fleet_d));
      }
      if (ff.ref && r.fleet_ref->motion_degree() > r.fleet_k) {
        return bad("fleet 'ref' motion degree exceeds the session's 'k'");
      }
    } else {
      if (!ff.fleet) {
        return bad(std::string("'") + op_name(r.op) +
                   "' requires a 'fleet' session name");
      }
      if (has_machine || ff.d || ff.k || ff.ref) {
        return bad("'machine'/'d'/'k'/'ref' are fixed at fleet_open");
      }
      if (r.op != Op::kFleetUpdate &&
          (ff.insert || ff.erase || ff.advance)) {
        return bad(std::string("'") + op_name(r.op) +
                   "' takes no 'insert'/'erase'/'advance' fields");
      }
      if (r.op == Op::kFleetUpdate && !ff.insert && !ff.erase &&
          !ff.advance) {
        return bad("'fleet_update' needs at least one of "
                   "'insert'/'erase'/'advance'");
      }
    }
    return Status::ok();
  }
  const bool geometry = !is_admin_op(r.op);
  if (!geometry) {
    if (has_scenario || has_query || r.has_box || r.has_faults) {
      return bad(std::string("'") + op_name(r.op) +
                 "' takes no scenario/query/box/faults fields");
    }
    return Status::ok();
  }
  if (r.has_box && r.op != Op::kContain) {
    return bad("'box' is only valid for op \"contain\"");
  }
  const bool pairwise = r.op == Op::kPairs || r.op == Op::kHullwhen ||
                        r.op == Op::kContain;
  if (pairwise && r.machine != "mesh" && r.machine != "hypercube") {
    // dyncg_cli silently maps other topologies to hypercube here; the
    // protocol rejects them instead so a response never comes from a
    // machine the request did not name.
    return bad(std::string("op \"") + op_name(r.op) +
               "\" supports machine \"mesh\" or \"hypercube\" only");
  }
  const bool pointless = r.op == Op::kPairs || r.op == Op::kContain;
  if (pointless && has_query) {
    return bad(std::string("'query' is not valid for op \"") +
               op_name(r.op) + "\"");
  }
  return Status::ok();
}

void build_key(Request* r) {
  std::string key = op_name(r->op);
  key += '|';
  key += r->machine;
  key += "|q";
  key += std::to_string(r->query);
  key += r->farthest ? "|f1" : "|f0";
  if (r->has_box) {
    key += "|b";
    for (double v : r->box) append_canonical(key, v);
  }
  if (r->has_faults) {
    key += "|x";
    key += r->faults_spec;
  }
  key += "|s";
  // The text so far is shared by both forms; the scenario is appended
  // compactly while its hex form streams into the fingerprint.
  const std::uint64_t h =
      fingerprint_bytes(kFingerprintSeed, key.data(), key.size());
  r->fingerprint = append_scenario_key(key, *r->system, h);
  r->key = std::move(key);
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kNeighbor:
      return "neighbor";
    case Op::kPairs:
      return "pairs";
    case Op::kCollisions:
      return "collisions";
    case Op::kHullwhen:
      return "hullwhen";
    case Op::kContain:
      return "contain";
    case Op::kSteady:
      return "steady";
    case Op::kStats:
      return "stats";
    case Op::kPing:
      return "ping";
    case Op::kMetrics:
      return "metrics";
    case Op::kFlushTrace:
      return "flush_trace";
    case Op::kFleetOpen:
      return "fleet_open";
    case Op::kFleetUpdate:
      return "fleet_update";
    case Op::kFleetQuery:
      return "fleet_query";
    case Op::kFleetClose:
      return "fleet_close";
  }
  return "?";
}

std::vector<double> fit_box(std::vector<double> box, std::size_t dimension) {
  const double last = box.back();
  box.resize(dimension, last);
  return box;
}

StatusOr<Request> parse_request(const std::string& line) {
  json::Value root;
  std::string err;
  if (!json::parse(line, &root, &err)) {
    return Status::parse_error("request is not valid JSON: " + err);
  }
  if (!root.is_object()) return bad("request must be a JSON object");
  if (Status st = check_duplicate_members(root, "request"); !st.is_ok()) {
    return st;
  }

  Request r;
  bool has_op = false;
  bool has_scenario = false;
  bool has_query = false;
  bool has_machine = false;
  FleetFields ff;
  Scenario sc;
  for (const auto& [name, member] : root.object) {
    if (name == "op") {
      if (!member.is_string()) return bad("'op' must be a string");
      has_op = true;
      const std::string& op = member.string;
      bool known = false;
      for (Op candidate : kAllOps) {
        if (op == op_name(candidate)) {
          r.op = candidate;
          known = true;
          break;
        }
      }
      if (!known) return bad("unknown op '" + op + "'");
    } else if (name == "id") {
      if (!member.is_string() && !member.is_number()) {
        return bad("'id' must be a string or a number");
      }
      r.id_json = json::dump(member);
    } else if (name == "scenario") {
      has_scenario = true;
      if (Status st = parse_scenario(member, &sc); !st.is_ok()) return st;
    } else if (name == "machine") {
      if (!member.is_string() ||
          (member.string != "mesh" && member.string != "hypercube" &&
           member.string != "ccc" && member.string != "shuffle")) {
        return bad("'machine' must be \"mesh\", \"hypercube\", \"ccc\", or "
                   "\"shuffle\"");
      }
      r.machine = member.string;
      has_machine = true;
    } else if (name == "query") {
      std::uint64_t x;
      if (!to_index(member, kMaxPoints - 1, &x)) {
        return bad("'query' must be an integer in [0, " +
                   std::to_string(kMaxPoints - 1) + "]");
      }
      r.query = static_cast<std::size_t>(x);
      has_query = true;
    } else if (name == "farthest") {
      if (member.type != json::Value::Type::kBool) {
        return bad("'farthest' must be a boolean");
      }
      r.farthest = member.boolean;
    } else if (name == "box") {
      if (!member.is_array() || member.array.empty() ||
          member.array.size() > kMaxDimension) {
        return bad("'box' must be a non-empty array of at most " +
                   std::to_string(kMaxDimension) + " numbers");
      }
      for (const json::Value& dim : member.array) {
        if (!dim.is_number() || !std::isfinite(dim.number)) {
          return bad("'box' entries must be finite numbers");
        }
        r.box.push_back(dim.number);
      }
      r.has_box = true;
    } else if (name == "deadline_ms") {
      std::uint64_t x;
      if (!to_index(member, kMaxDeadlineMs, &x) || x == 0) {
        return bad("'deadline_ms' must be an integer in [1, " +
                   std::to_string(kMaxDeadlineMs) + "]");
      }
      r.deadline_ms = x;
    } else if (name == "faults") {
      if (!member.is_string() || member.string.empty()) {
        return bad("'faults' must be a non-empty fault-spec string");
      }
      StatusOr<FaultPlan> plan = FaultPlan::parse(member.string);
      if (!plan.is_ok()) return plan.status();
      r.faults = std::move(plan).value();
      r.faults_spec = r.faults.to_string();
      r.has_faults = true;
    } else if (name == "fleet") {
      if (!member.is_string() || member.string.empty()) {
        return bad("'fleet' must be a non-empty session name string");
      }
      r.fleet = member.string;
      ff.fleet = true;
    } else if (name == "d") {
      std::uint64_t x;
      if (!to_index(member, kMaxDimension, &x) || x == 0) {
        return bad("'d' must be an integer in [1, " +
                   std::to_string(kMaxDimension) + "]");
      }
      r.fleet_d = static_cast<std::size_t>(x);
      ff.d = true;
    } else if (name == "k") {
      std::uint64_t x;
      if (!to_index(member, static_cast<std::uint64_t>(kMaxDegree), &x)) {
        return bad("'k' must be an integer in [0, " +
                   std::to_string(kMaxDegree) + "]");
      }
      r.fleet_k = static_cast<int>(x);
      ff.k = true;
    } else if (name == "ref") {
      if (Status st = parse_point(member, "'ref'", &r.fleet_ref);
          !st.is_ok()) {
        return st;
      }
      ff.ref = true;
    } else if (name == "insert") {
      if (!member.is_array() || member.array.empty() ||
          member.array.size() > kMaxPoints) {
        return bad("'insert' must be a non-empty array of at most " +
                   std::to_string(kMaxPoints) +
                   " {\"id\", \"point\"} entries");
      }
      for (const json::Value& entry : member.array) {
        if (!entry.is_object()) {
          return bad("'insert' entries must be {\"id\", \"point\"} objects");
        }
        if (Status st = check_duplicate_members(entry, "insert entry");
            !st.is_ok()) {
          return st;
        }
        std::uint64_t id = 0;
        bool has_id = false;
        std::optional<Trajectory> point;
        for (const auto& [ename, evalue] : entry.object) {
          if (ename == "id") {
            if (!to_index(evalue, std::uint64_t{1} << 53, &id)) {
              return bad("insert 'id' must be an integer in [0, 2^53]");
            }
            has_id = true;
          } else if (ename == "point") {
            if (Status st = parse_point(evalue, "insert 'point'", &point);
                !st.is_ok()) {
              return st;
            }
          } else {
            return bad("unknown insert entry field '" + ename + "'");
          }
        }
        if (!has_id || !point.has_value()) {
          return bad("'insert' entries need both \"id\" and \"point\"");
        }
        r.fleet_insert.emplace_back(id, std::move(*point));
      }
      ff.insert = true;
    } else if (name == "erase") {
      if (!member.is_array() || member.array.empty() ||
          member.array.size() > kMaxPoints) {
        return bad("'erase' must be a non-empty array of at most " +
                   std::to_string(kMaxPoints) + " member ids");
      }
      for (const json::Value& idv : member.array) {
        std::uint64_t id = 0;
        if (!to_index(idv, std::uint64_t{1} << 53, &id)) {
          return bad("'erase' ids must be integers in [0, 2^53]");
        }
        r.fleet_erase.push_back(id);
      }
      ff.erase = true;
    } else if (name == "advance") {
      if (!member.is_number() || !std::isfinite(member.number) ||
          member.number < 0) {
        return bad("'advance' must be a finite number >= 0");
      }
      r.fleet_advance = member.number;
      r.fleet_has_advance = true;
      ff.advance = true;
    } else {
      return bad("unknown request field '" + name + "'");
    }
  }
  if (!has_op) return bad("request has no 'op' field");
  if (Status st = check_fields(r, has_scenario, has_query, has_machine, ff);
      !st.is_ok()) {
    return st;
  }
  // Fleet ops are stateful: they bypass the result cache (no key) and the
  // session registry validates everything that needs session state.
  if (is_admin_op(r.op) || is_fleet_op(r.op)) return r;

  // Materialize the scenario (absent scenario = CLI defaults).
  if (r.op == Op::kSteady) {
    if (sc.inline_points || sc.has_d) {
      return bad("op \"steady\" takes generator scenarios only "
                 "('seed'/'n'/'k'; the survey builds diverging motion "
                 "itself)");
    }
    Rng rng(sc.seed);
    r.system = diverging_motion_system(rng, sc.n, std::max(1, sc.k));
  } else if (sc.inline_points) {
    StatusOr<MotionSystem> sys =
        MotionSystem::try_create(sc.d, std::move(sc.points));
    if (!sys.is_ok()) return sys.status();
    r.system = std::move(sys).value();
  } else {
    Rng rng(sc.seed);
    r.system = random_motion_system(rng, sc.n, sc.d, sc.k);
  }
  if (r.op != Op::kPairs && r.op != Op::kContain &&
      r.query >= r.system->size()) {
    return bad("query index " + std::to_string(r.query) +
               " out of range [0, " + std::to_string(r.system->size()) + ")");
  }
  if (r.has_box) r.box = fit_box(std::move(r.box), r.system->dimension());
  build_key(&r);
  return r;
}

namespace {

void open_response(json::Writer* w, const std::string& id_json) {
  w->begin_object();
  if (!id_json.empty()) {
    w->key("id");
    w->value_raw(id_json);
  }
}

}  // namespace

std::string render_result(const std::string& id_json, Op op,
                          const CachedResult& r, bool hit,
                          std::uint64_t fingerprint) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value(op_name(op));
  w.key("cache");
  w.value(hit ? "hit" : "miss");
  w.key("key");
  w.value(fingerprint_hex(fingerprint));
  w.key("machine");
  w.begin_object();
  w.key("topology");
  w.value(r.topology);
  w.key("pes");
  w.value(static_cast<std::uint64_t>(r.pes));
  w.end_object();
  w.key("cost");
  w.value_raw(r.cost.to_json());
  w.key("result");
  w.value(r.text);
  w.end_object();
  return w.str();
}

std::string render_error(const std::string& id_json, const Status& st,
                         bool draining) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value(status_code_name(st.code()));
  if (draining) {
    w.key("draining");
    w.value(true);
  }
  w.key("error");
  w.value(st.message());
  w.end_object();
  return w.str();
}

std::string render_pong(const std::string& id_json) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value("ping");
  w.key("result");
  w.value("pong");
  w.end_object();
  return w.str();
}

std::string render_stats(const std::string& id_json, const ServeStats& s) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value("stats");
  w.key("stats");
  w.begin_object();
  w.key("schema_version");
  w.value(s.schema_version);
  w.key("git_rev");
  w.value(s.git_rev);
  w.key("uptime_seconds");
  w.value(s.uptime_seconds);
  w.key("connections");
  w.value(s.connections);
  w.key("requests");
  w.value(s.requests);
  w.key("errors");
  w.value(s.errors);
  w.key("rejected");
  w.value(s.rejected);
  w.key("shed");
  w.value(s.shed);
  w.key("deadline_exceeded");
  w.value(s.deadline_exceeded);
  w.key("batches");
  w.value(s.batches);
  w.key("hits");
  w.value(s.hits);
  w.key("misses");
  w.value(s.misses);
  w.key("evictions");
  w.value(s.evictions);
  w.key("entries");
  w.value(s.entries);
  w.key("fleets");
  w.value(s.fleets);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string render_metrics(const std::string& id_json,
                           const std::string& registry_json) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value("metrics");
  w.key("metrics");
  w.value_raw(registry_json);
  w.end_object();
  return w.str();
}

// %.17g round-trips a double exactly through strtod, and renders infinity
// as "inf" — which is why next_event travels as a string (JSON has no
// infinity literal, and the envelope of a fleet whose leader never changes
// legitimately has none coming).
std::string exact_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

void fleet_state_fields(json::Writer* w, std::uint64_t members, double t,
                        double next_event) {
  w->key("members");
  w->value(members);
  // Both times travel as exact strings (Writer::value(double) is %.12g,
  // which is lossy; fleet clients mirror server state bit for bit).
  w->key("t");
  w->value(exact_double(t));
  w->key("next_event");
  w->value(exact_double(next_event));
}

}  // namespace

std::string render_fleet_open(const std::string& id_json,
                              const FleetOpenInfo& info) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value("fleet_open");
  w.key("fleet");
  w.value(info.fleet);
  w.key("d");
  w.value(static_cast<std::uint64_t>(info.d));
  w.key("k");
  w.value(static_cast<std::uint64_t>(info.k));
  w.key("max_members");
  w.value(static_cast<std::uint64_t>(info.max_members));
  w.key("result");
  w.value("opened");
  w.end_object();
  return w.str();
}

std::string render_fleet_update(const std::string& id_json,
                                const FleetUpdateInfo& info) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value("fleet_update");
  w.key("fleet");
  w.value(info.fleet);
  w.key("inserted");
  w.value(info.inserted);
  w.key("deduped");
  w.value(info.deduped);
  w.key("erased");
  w.value(info.erased);
  fleet_state_fields(&w, info.members, info.t, info.next_event);
  w.key("cost");
  w.value_raw(info.cost.to_json());
  w.end_object();
  return w.str();
}

std::string render_fleet_query(const std::string& id_json,
                               const FleetQueryInfo& info) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value("fleet_query");
  w.key("fleet");
  w.value(info.fleet);
  w.key("key");
  w.value(fingerprint_hex(info.fingerprint));
  fleet_state_fields(&w, info.members, info.t, info.next_event);
  w.key("cost");
  w.value_raw(info.cost.to_json());
  w.key("result");
  w.value(info.result);
  w.end_object();
  return w.str();
}

std::string render_fleet_close(const std::string& id_json,
                               const std::string& fleet,
                               std::uint64_t members) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value("fleet_close");
  w.key("fleet");
  w.value(fleet);
  w.key("members");
  w.value(members);
  w.key("result");
  w.value("closed");
  w.end_object();
  return w.str();
}

std::string render_flush_trace(const std::string& id_json,
                               std::uint64_t spans, const std::string& path) {
  json::Writer w;
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value("flush_trace");
  w.key("spans");
  w.value(spans);
  w.key("path");
  w.value(path);
  w.end_object();
  return w.str();
}

}  // namespace serve
}  // namespace dyncg
