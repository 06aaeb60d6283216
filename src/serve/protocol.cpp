#include "serve/protocol.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <unordered_map>
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

using Kind = json::Reader::Kind;

// Every reader below takes the value whose start `in` just read and leaves
// it fully read, even after a field error: bytes further on can still hold
// an error that outranks the one found (see read_request).

// The duplicate rule of one object: the error names the first member whose
// name occurs again.  Names the object knows are tracked by position, names
// it does not know (an error already) in a map.
template <std::size_t N>
class Members {
 public:
  explicit Members(const char* const (&names)[N]) : names_(names) {
    first_.fill(kNone);
  }

  // The index of `name` among the known names, or -1.
  int see(const std::string& name) {
    const std::size_t at = seen_++;
    for (std::size_t f = 0; f < N; ++f) {
      if (name != names_[f]) continue;
      if (first_[f] == kNone) {
        first_[f] = at;
      } else {
        note(first_[f], name);
      }
      return static_cast<int>(f);
    }
    const auto [it, fresh] = unknown_.emplace(name, at);
    if (!fresh) note(it->second, name);
    return -1;
  }

  Status duplicate(const char* what) const {
    if (dup_at_ == kNone) return Status::ok();
    return bad(std::string("duplicate ") + what + " field '" + dup_name_ +
               "'");
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  void note(std::size_t first, const std::string& name) {
    if (first < dup_at_) {
      dup_at_ = first;
      dup_name_ = name;
    }
  }

  const char* const (&names_)[N];
  std::array<std::size_t, N> first_;
  std::unordered_map<std::string, std::size_t> unknown_;
  std::size_t seen_ = 0;
  std::size_t dup_at_ = kNone;
  std::string dup_name_;
};

// JSON numbers arrive as doubles; integer fields must hold exactly.
bool read_index(json::Reader& in, Kind kind, std::uint64_t max,
                std::uint64_t* out) {
  in.skip(kind);
  const double v = in.number();
  if (kind != Kind::kNumber || v < 0 || v != std::floor(v) ||
      v > static_cast<double>(max)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v);
  return true;
}

// A string field: the payload, or false for any other value.
bool read_string(json::Reader& in, Kind kind, std::string* out) {
  in.skip(kind);
  if (kind != Kind::kString) return false;
  *out = std::move(in.string());
  return true;
}

// An array of 1..max elements, each read by `element(kind, index)`, which
// returns its error.  The array's size error (`shape`) outranks its
// elements' errors: the array is checked whole before its elements.
template <class Shape, class ReadElement>
Status read_array(json::Reader& in, Kind kind, std::size_t max, Shape&& shape,
                  ReadElement&& element) {
  if (kind != Kind::kArray) {
    in.skip(kind);
    return shape();
  }
  Status first;
  std::size_t size = 0;
  while (in.element()) {
    const Kind v = in.value();
    if (first.is_ok() && size < max) {
      first = element(v, size);
    } else {
      in.skip(v);
    }
    ++size;
  }
  if (size == 0 || size > max) return shape();
  return first;
}

// A finite number; strtod turns "1e999" into infinity, and a non-finite
// value would poison every downstream comparison.
bool read_finite(json::Reader& in, Kind kind, double* out) {
  in.skip(kind);
  if (kind != Kind::kNumber || !std::isfinite(in.number())) return false;
  *out = in.number();
  return true;
}

// One trajectory as read: up to kMaxDimension coordinate polynomials of up
// to kMaxDegree+1 coefficients each, as the wire spelled them (untrimmed).
struct PointBuffer {
  std::size_t dim = 0;
  std::size_t count[kMaxDimension] = {};
  double coeff[kMaxDimension][kMaxDegree + 1] = {};
};

// One trajectory in wire form: an array of 1..kMaxDimension coordinate
// polynomials, each a non-empty array of at most kMaxDegree+1 finite
// coefficients (constant term first).  The one reader for scenario
// 'points' entries, fleet 'ref' and fleet 'insert' points.
Status read_point(json::Reader& in, Kind kind, const char* what,
                  PointBuffer* out) {
  out->dim = 0;
  return read_array(
      in, kind, kMaxDimension,
      [what] {
        return bad(std::string(what) + " must be an array of 1.." +
                   std::to_string(kMaxDimension) +
                   " coordinate polynomials (arrays of coefficients)");
      },
      [&](Kind poly, std::size_t c) {
        out->dim = c + 1;
        out->count[c] = 0;
        return read_array(
            in, poly, kMaxDegree + 1,
            [what] {
              return bad(std::string(what) +
                         " coordinates must be non-empty arrays of at most " +
                         std::to_string(kMaxDegree + 1) +
                         " coefficients (constant term first)");
            },
            [&](Kind coeff, std::size_t i) {
              if (!read_finite(in, coeff, &out->coeff[c][i])) {
                return bad("polynomial coefficients must be finite numbers");
              }
              out->count[c] = i + 1;
              return Status::ok();
            });
      });
}

Trajectory to_trajectory(const PointBuffer& pt) {
  std::vector<Polynomial> coords;
  coords.reserve(pt.dim);
  for (std::size_t c = 0; c < pt.dim; ++c) {
    coords.emplace_back(
        std::vector<double>(pt.coeff[c], pt.coeff[c] + pt.count[c]));
  }
  return Trajectory(std::move(coords));
}

struct Scenario {
  bool inline_points = false;
  std::uint64_t seed = kDefaultSeed;
  std::size_t n = kDefaultN;
  std::size_t d = kDefaultDim;
  bool has_d = false;
  int k = kDefaultK;
  // Inline points in their scenario-key form (the append_key_* pieces of
  // append_scenario_key, without the dimension header), each coordinate
  // trimmed as Polynomial trims it.
  std::string* points = nullptr;
  std::size_t size = 0;  // inline points read
  // MotionSystem::try_create's dimension check, kept without the points:
  // the first point's dimension and the first point that differs from it.
  std::size_t dim0 = 0;
  std::size_t odd = 0;  // index; 0 = none
  std::size_t odd_dim = 0;
};

Status read_points(json::Reader& in, Kind kind, Scenario* sc) {
  PointBuffer pt;
  std::size_t size = 0;
  Status st = read_array(
      in, kind, kMaxPoints,
      [] {
        return bad("scenario 'points' must be a non-empty array of at most " +
                   std::to_string(kMaxPoints) + " points");
      },
      [&](Kind point, std::size_t i) {
        if (Status ps = read_point(in, point, "scenario point", &pt);
            !ps.is_ok()) {
          return ps;
        }
        append_key_point(*sc->points);
        for (std::size_t c = 0; c < pt.dim; ++c) {
          append_key_coordinate(
              *sc->points, pt.coeff[c],
              Polynomial::trimmed_size(pt.coeff[c], pt.count[c]));
        }
        if (i == 0) {
          sc->dim0 = pt.dim;
        } else if (pt.dim != sc->dim0 && sc->odd == 0) {
          sc->odd = i;
          sc->odd_dim = pt.dim;
        }
        size = i + 1;
        return Status::ok();
      });
  if (!st.is_ok()) return st;
  sc->inline_points = true;
  sc->size = size;
  return Status::ok();
}

enum ScenarioField { kSeed, kN, kDim, kDegree, kPoints };
constexpr const char* kScenarioFields[] = {"seed", "n", "d", "k", "points"};

Status read_scenario(json::Reader& in, Kind kind, Scenario* out) {
  if (kind != Kind::kObject) {
    in.skip(kind);
    return bad("'scenario' must be an object");
  }
  Members names(kScenarioFields);
  Status first;
  std::string name;
  while (in.member(&name)) {
    const int field = names.see(name);
    const Kind v = in.value();
    if (!first.is_ok()) {
      in.skip(v);
      continue;
    }
    std::uint64_t x = 0;
    switch (field) {
      case kSeed:
        if (!read_index(in, v, 1ull << 40, &x)) {
          first = bad("scenario 'seed' must be an integer in [0, 2^40]");
          break;
        }
        out->seed = x;
        break;
      case kN:
        if (!read_index(in, v, kMaxPoints, &x) || x == 0) {
          first = bad("scenario 'n' must be an integer in [1, " +
                      std::to_string(kMaxPoints) + "]");
          break;
        }
        out->n = static_cast<std::size_t>(x);
        break;
      case kDim:
        if (!read_index(in, v, kMaxDimension, &x) || x == 0) {
          first = bad("scenario 'd' must be an integer in [1, " +
                      std::to_string(kMaxDimension) + "]");
          break;
        }
        out->d = static_cast<std::size_t>(x);
        out->has_d = true;
        break;
      case kDegree:
        if (!read_index(in, v, static_cast<std::uint64_t>(kMaxDegree), &x)) {
          first = bad("scenario 'k' must be an integer in [0, " +
                      std::to_string(kMaxDegree) + "]");
          break;
        }
        out->k = static_cast<int>(x);
        break;
      case kPoints:
        first = read_points(in, v, out);
        break;
      default:
        in.skip(v);
        first = bad("unknown scenario field '" + name + "'");
    }
  }
  if (Status st = names.duplicate("scenario"); !st.is_ok()) return st;
  if (!first.is_ok()) return first;
  if (out->inline_points) {
    if (out->seed != kDefaultSeed || out->n != kDefaultN || out->k != kDefaultK) {
      // A request that sets both forms is ambiguous about what it queries.
      return bad("scenario mixes inline 'points' with generator fields "
                 "('seed'/'n'/'k')");
    }
    if (!out->has_d) out->d = out->dim0;
  }
  return Status::ok();
}

enum InsertField { kInsertId, kInsertPoint };
constexpr const char* kInsertFields[] = {"id", "point"};

Status read_insert_entry(json::Reader& in, Kind kind, Request* r) {
  if (kind != Kind::kObject) {
    in.skip(kind);
    return bad("'insert' entries must be {\"id\", \"point\"} objects");
  }
  Members names(kInsertFields);
  Status first;
  std::uint64_t id = 0;
  bool has_id = false;
  bool has_point = false;
  PointBuffer pt;
  std::string name;
  while (in.member(&name)) {
    const int field = names.see(name);
    const Kind v = in.value();
    if (!first.is_ok()) {
      in.skip(v);
    } else if (field == kInsertId) {
      has_id = read_index(in, v, std::uint64_t{1} << 53, &id);
      if (!has_id) first = bad("insert 'id' must be an integer in [0, 2^53]");
    } else if (field == kInsertPoint) {
      first = read_point(in, v, "insert 'point'", &pt);
      has_point = true;
    } else {
      in.skip(v);
      first = bad("unknown insert entry field '" + name + "'");
    }
  }
  if (Status st = names.duplicate("insert entry"); !st.is_ok()) return st;
  if (!first.is_ok()) return first;
  if (!has_id || !has_point) {
    return bad("'insert' entries need both \"id\" and \"point\"");
  }
  r->fleet_insert.emplace_back(id, to_trajectory(pt));
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

// The text part of the key, shared by both scenario forms.
void append_key_prefix(const Request& r, std::string* key) {
  *key += op_name(r.op);
  *key += '|';
  *key += r.machine;
  *key += "|q";
  *key += std::to_string(r.query);
  *key += r.farthest ? "|f1" : "|f0";
  if (r.has_box) {
    *key += "|b";
    for (double v : r.box) append_canonical(*key, v);
  }
  if (r.has_faults) {
    *key += "|x";
    *key += r.faults_spec;
  }
  *key += "|s";
}

// Inline points are read into this buffer and copied once into the key,
// sized exactly.  It keeps its capacity from request to request on a
// thread, so a read allocates the same at any scenario size; an outsized
// line's buffer is given back.
constexpr std::size_t kKeepScratch = std::size_t{1} << 20;

std::string& points_scratch() {
  thread_local std::string scratch;
  if (scratch.capacity() > kKeepScratch) std::string().swap(scratch);
  scratch.clear();
  return scratch;
}

enum RootField {
  kOp, kId, kScenario, kMachine, kQuery, kFarthest, kBox, kDeadlineMs,
  kFaults, kFleet, kFleetD, kFleetK, kRef, kInsert, kErase, kAdvance,
};
constexpr const char* kRootFields[] = {
    "op",     "id",          "scenario", "machine", "query", "farthest",
    "box",    "deadline_ms", "faults",   "fleet",   "d",     "k",
    "ref",    "insert",      "erase",    "advance"};

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

// Error precedence (docs/SERVING.md#request-stages, pinned by the golden
// table in tests/data): a JSON syntax error anywhere in the line outranks
// every field error; an object's duplicate member outranks the errors
// inside that object, and an array's size error the errors inside that
// array; otherwise the first field error in member order wins, then the
// checks that need the whole request (a missing op, field admissibility,
// inline dimensions, the query range).  One pass keeps that order by
// reading on after a field error.
StatusOr<Request> read_request(const std::string& line) {
  json::Reader in(line);
  Request r;
  bool has_op = false;
  bool has_scenario = false;
  bool has_query = false;
  bool has_machine = false;
  FleetFields ff;
  Scenario sc;
  sc.points = &points_scratch();
  Members names(kRootFields);
  Status first;
  const Kind root = in.value();
  if (root != Kind::kObject) in.skip(root);
  std::string name;
  while (root == Kind::kObject && in.member(&name)) {
    const int field = names.see(name);
    const Kind v = in.value();
    if (!first.is_ok()) {
      in.skip(v);
      continue;
    }
    std::uint64_t x = 0;
    std::string text;
    switch (field) {
      case kOp: {
        if (!read_string(in, v, &text)) {
          first = bad("'op' must be a string");
          break;
        }
        has_op = true;
        bool known = false;
        for (Op candidate : kAllOps) {
          if (text == op_name(candidate)) {
            r.op = candidate;
            known = true;
            break;
          }
        }
        if (!known) first = bad("unknown op '" + text + "'");
        break;
      }
      case kId: {
        in.skip(v);
        json::Value id;
        if (v == Kind::kString) {
          id.type = json::Value::Type::kString;
          id.string = std::move(in.string());
        } else if (v == Kind::kNumber) {
          id.type = json::Value::Type::kNumber;
          id.number = in.number();
        } else {
          first = bad("'id' must be a string or a number");
          break;
        }
        r.id_json = json::dump(id);
        break;
      }
      case kScenario:
        has_scenario = true;
        first = read_scenario(in, v, &sc);
        break;
      case kMachine:
        if (!read_string(in, v, &text) ||
            (text != "mesh" && text != "hypercube" && text != "ccc" &&
             text != "shuffle")) {
          first = bad("'machine' must be \"mesh\", \"hypercube\", \"ccc\", "
                      "or \"shuffle\"");
          break;
        }
        r.machine = std::move(text);
        has_machine = true;
        break;
      case kQuery:
        if (!read_index(in, v, kMaxPoints - 1, &x)) {
          first = bad("'query' must be an integer in [0, " +
                      std::to_string(kMaxPoints - 1) + "]");
          break;
        }
        r.query = static_cast<std::size_t>(x);
        has_query = true;
        break;
      case kFarthest:
        in.skip(v);
        if (v != Kind::kBool) {
          first = bad("'farthest' must be a boolean");
          break;
        }
        r.farthest = in.boolean();
        break;
      case kBox: {
        r.box.resize(kMaxDimension);
        std::size_t size = 0;
        first = read_array(
            in, v, kMaxDimension,
            [] {
              return bad("'box' must be a non-empty array of at most " +
                         std::to_string(kMaxDimension) + " numbers");
            },
            [&](Kind dim, std::size_t i) {
              if (!read_finite(in, dim, &r.box[i])) {
                return bad("'box' entries must be finite numbers");
              }
              size = i + 1;
              return Status::ok();
            });
        r.box.resize(size);
        r.has_box = true;
        break;
      }
      case kDeadlineMs:
        if (!read_index(in, v, kMaxDeadlineMs, &x) || x == 0) {
          first = bad("'deadline_ms' must be an integer in [1, " +
                      std::to_string(kMaxDeadlineMs) + "]");
          break;
        }
        r.deadline_ms = x;
        break;
      case kFaults: {
        if (!read_string(in, v, &text) || text.empty()) {
          first = bad("'faults' must be a non-empty fault-spec string");
          break;
        }
        StatusOr<FaultPlan> plan = FaultPlan::parse(text);
        if (!plan.is_ok()) {
          first = plan.status();
          break;
        }
        r.faults = std::move(plan).value();
        r.faults_spec = r.faults.to_string();
        r.has_faults = true;
        break;
      }
      case kFleet:
        if (!read_string(in, v, &r.fleet) || r.fleet.empty()) {
          first = bad("'fleet' must be a non-empty session name string");
        }
        ff.fleet = true;
        break;
      case kFleetD:
        if (!read_index(in, v, kMaxDimension, &x) || x == 0) {
          first = bad("'d' must be an integer in [1, " +
                      std::to_string(kMaxDimension) + "]");
          break;
        }
        r.fleet_d = static_cast<std::size_t>(x);
        ff.d = true;
        break;
      case kFleetK:
        if (!read_index(in, v, static_cast<std::uint64_t>(kMaxDegree), &x)) {
          first = bad("'k' must be an integer in [0, " +
                      std::to_string(kMaxDegree) + "]");
          break;
        }
        r.fleet_k = static_cast<int>(x);
        ff.k = true;
        break;
      case kRef: {
        PointBuffer pt;
        first = read_point(in, v, "'ref'", &pt);
        if (first.is_ok()) r.fleet_ref = to_trajectory(pt);
        ff.ref = true;
        break;
      }
      case kInsert:
        first = read_array(
            in, v, kMaxPoints,
            [] {
              return bad("'insert' must be a non-empty array of at most " +
                         std::to_string(kMaxPoints) +
                         " {\"id\", \"point\"} entries");
            },
            [&](Kind entry, std::size_t) {
              return read_insert_entry(in, entry, &r);
            });
        ff.insert = true;
        break;
      case kErase:
        first = read_array(
            in, v, kMaxPoints,
            [] {
              return bad("'erase' must be a non-empty array of at most " +
                         std::to_string(kMaxPoints) + " member ids");
            },
            [&](Kind id, std::size_t) {
              if (!read_index(in, id, std::uint64_t{1} << 53, &x)) {
                return bad("'erase' ids must be integers in [0, 2^53]");
              }
              r.fleet_erase.push_back(x);
              return Status::ok();
            });
        ff.erase = true;
        break;
      case kAdvance:
        in.skip(v);
        if (v != Kind::kNumber || !std::isfinite(in.number()) ||
            in.number() < 0) {
          first = bad("'advance' must be a finite number >= 0");
          break;
        }
        r.fleet_advance = in.number();
        r.fleet_has_advance = true;
        ff.advance = true;
        break;
      default:
        in.skip(v);
        first = bad("unknown request field '" + name + "'");
    }
  }
  if (!in.end()) {
    return Status::parse_error("request is not valid JSON: " + in.error());
  }
  if (root != Kind::kObject) return bad("request must be a JSON object");
  if (Status st = names.duplicate("request"); !st.is_ok()) return st;
  if (!first.is_ok()) return first;
  if (!has_op) return bad("request has no 'op' field");
  if (Status st = check_fields(r, has_scenario, has_query, has_machine, ff);
      !st.is_ok()) {
    return st;
  }
  // Fleet ops are stateful: they bypass the result cache (no key) and the
  // session registry validates everything that needs session state.
  if (is_admin_op(r.op) || is_fleet_op(r.op)) return r;

  // Generator scenarios are expanded here, since their key is the system's
  // bits; inline ones are checked as MotionSystem::try_create would and
  // stay in key form until finish_request (absent scenario = CLI defaults).
  std::size_t size = sc.size;
  if (r.op == Op::kSteady) {
    if (sc.inline_points || sc.has_d) {
      return bad(kSteadyGeneratorOnly);
    }
    Rng rng(sc.seed);
    r.system = diverging_motion_system(rng, sc.n, std::max(1, sc.k));
  } else if (sc.inline_points) {
    if (sc.dim0 != sc.d || sc.odd != 0) {
      const bool first_differs = sc.dim0 != sc.d;
      return bad("trajectory " + std::to_string(first_differs ? 0 : sc.odd) +
                 " has dimension " +
                 std::to_string(first_differs ? sc.dim0 : sc.odd_dim) +
                 ", expected " + std::to_string(sc.d));
    }
  } else {
    Rng rng(sc.seed);
    r.system = random_motion_system(rng, sc.n, sc.d, sc.k);
  }
  if (r.system) {
    size = r.system->size();
    sc.d = r.system->dimension();
  }
  if (r.op != Op::kPairs && r.op != Op::kContain && r.query >= size) {
    return bad("query index " + std::to_string(r.query) +
               " out of range [0, " + std::to_string(size) + ")");
  }
  if (r.has_box) r.box = fit_box(std::move(r.box), sc.d);
  // Room for the text part (op, machine, query, flags, 'd' header) plus
  // what varies: the box, the fault spec and the inline points.
  r.key.reserve(64 + 16 * r.box.size() + r.faults_spec.size() +
                sc.points->size());
  append_key_prefix(r, &r.key);
  r.scenario_at = r.key.size();
  if (r.system) {
    append_scenario_key(r.key, *r.system);
  } else {
    append_key_dimension(r.key, sc.d);
    r.key += *sc.points;
  }
  return r;
}

void finish_request(Request* r) {
  if (r->key.empty()) return;  // admin and fleet ops
  const std::string_view scenario =
      std::string_view(r->key).substr(r->scenario_at);
  if (!r->system) r->system = scenario_from_key(scenario);
  r->fingerprint = fingerprint_scenario_key(
      fingerprint_bytes(kFingerprintSeed, r->key.data(), r->scenario_at),
      scenario);
}

StatusOr<Request> parse_request(const std::string& line) {
  StatusOr<Request> r = read_request(line);
  if (r.is_ok()) finish_request(&r.value());
  return r;
}

namespace {

void write_fingerprint(json::Writer* w, std::uint64_t fingerprint) {
  char hex[16];
  fingerprint_hex_into(hex, fingerprint);
  w->value(std::string_view(hex, sizeof hex));
}

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
  // The fixed fields and a cost of counts under 12 digits take under 256
  // bytes, so such a result without escapes renders into this one
  // allocation.
  json::Writer w(id_json.size() + r.topology.size() + r.text.size() + 256);
  open_response(&w, id_json);
  w.key("status");
  w.value("OK");
  w.key("op");
  w.value(op_name(op));
  w.key("cache");
  w.value(hit ? "hit" : "miss");
  w.key("key");
  write_fingerprint(&w, fingerprint);
  w.key("machine");
  w.begin_object();
  w.key("topology");
  w.value(r.topology);
  w.key("pes");
  w.value(static_cast<std::uint64_t>(r.pes));
  w.end_object();
  w.key("cost");
  r.cost.write_json(w);
  w.key("result");
  w.value(r.text);
  w.end_object();
  return w.take();
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
  return w.take();
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
  return w.take();
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
  return w.take();
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
  return w.take();
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
  return w.take();
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
  info.cost.write_json(w);
  w.end_object();
  return w.take();
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
  write_fingerprint(&w, info.fingerprint);
  fleet_state_fields(&w, info.members, info.t, info.next_event);
  w.key("cost");
  info.cost.write_json(w);
  w.key("result");
  w.value(info.result);
  w.end_object();
  return w.take();
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
  return w.take();
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
  return w.take();
}

}  // namespace serve
}  // namespace dyncg
