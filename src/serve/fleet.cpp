#include "serve/fleet.hpp"

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "envelope/dynamic_envelope.hpp"
#include "envelope/parallel_envelope.hpp"
#include "envelope/scenario_key.hpp"
#include "support/assert.hpp"

namespace dyncg {
namespace serve {

Polynomial fleet_score(const Trajectory& point, const Trajectory& ref) {
  return point.distance_squared(ref);
}

Trajectory fleet_origin(std::size_t d) {
  std::vector<Polynomial> coords(d, Polynomial({0.0}));
  return Trajectory(std::move(coords));
}

int fleet_s_bound(int k) { return k > 0 ? 2 * k : 1; }

namespace {

Status bad(const std::string& msg) { return Status::invalid_argument(msg); }

Machine make_fleet_machine(const std::string& name, std::size_t max_members,
                           int s_bound) {
  // Sized once, for the session's member cap: the per-node effective-width
  // charges of DynamicEnvelope never exceed the lambda bound for
  // max_members functions, so every ladder level exists on this machine.
  if (name == "hypercube") {
    return envelope_machine_hypercube(max_members, s_bound);
  }
  return envelope_machine_mesh(max_members, s_bound);
}

}  // namespace

struct FleetRegistry::Session {
  std::string name;
  std::size_t d;
  int k;
  Trajectory ref;
  Machine machine;
  DynamicEnvelope env;
  // Trajectory-key dedupe (envelope/scenario_key.hpp trajectory_key): a
  // re-inserted identical trajectory reuses the cached score polynomial
  // instead of recomputing distance_squared, and the response reports it
  // `deduped`.  Refcounted so erase drops entries when the last alias goes.
  struct TrajEntry {
    Polynomial score;
    std::size_t live = 0;
  };
  std::unordered_map<std::string, TrajEntry> trajectories;
  std::unordered_map<std::uint64_t, std::string> id_traj;

  Session(std::string session_name, std::size_t dim, int degree,
          Trajectory reference, const std::string& machine_name,
          std::size_t max_members)
      : name(std::move(session_name)),
        d(dim),
        k(degree),
        ref(std::move(reference)),
        machine(make_fleet_machine(machine_name, max_members,
                                   fleet_s_bound(degree))),
        env(/*take_min=*/true, fleet_s_bound(degree), &machine) {}
};

// Out of line so the sessions_ map is only instantiated where Session is
// complete.
FleetRegistry::FleetRegistry(FleetOptions opts) : opts_(opts) {}
FleetRegistry::~FleetRegistry() = default;

StatusOr<FleetRegistry::Session*> FleetRegistry::find(
    const std::string& name) {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return bad("unknown fleet session '" + name + "'");
  }
  return it->second.get();
}

StatusOr<std::string> FleetRegistry::handle(const Request& r) {
  switch (r.op) {
    case Op::kFleetOpen:
      return open(r);
    case Op::kFleetUpdate:
      return update(r);
    case Op::kFleetQuery:
      return query(r);
    case Op::kFleetClose:
      return close(r);
    default:
      DYNCG_ASSERT(false, "non-fleet op routed to FleetRegistry");
      return bad("not a fleet op");
  }
}

StatusOr<std::string> FleetRegistry::open(const Request& r) {
  if (sessions_.size() >= opts_.max_fleets) {
    return Status::unavailable(
        "fleet session limit reached (" + std::to_string(opts_.max_fleets) +
        " open; close one or raise --max-fleets)");
  }
  const std::string name = "fleet-" + std::to_string(next_name_);
  ++next_name_;
  Trajectory ref =
      r.fleet_ref.has_value() ? *r.fleet_ref : fleet_origin(r.fleet_d);
  sessions_.emplace(name, std::make_unique<Session>(
                              name, r.fleet_d, r.fleet_k, std::move(ref),
                              r.machine, opts_.max_members));
  FleetOpenInfo info;
  info.fleet = name;
  info.d = r.fleet_d;
  info.k = r.fleet_k;
  info.max_members = opts_.max_members;
  return render_fleet_open(r.id_json, info);
}

StatusOr<std::string> FleetRegistry::update(const Request& r) {
  StatusOr<Session*> found = find(r.fleet);
  if (!found.is_ok()) return found.status();
  Session& s = *found.value();

  // Validate the whole batch before touching anything: a rejected
  // fleet_update leaves the session exactly as it was.
  std::set<std::uint64_t> erasing;
  for (std::uint64_t id : r.fleet_erase) {
    if (!s.env.contains(id)) {
      return bad("erase of unknown member id " + std::to_string(id));
    }
    if (!erasing.insert(id).second) {
      return bad("duplicate erase id " + std::to_string(id));
    }
  }
  std::set<std::uint64_t> inserting;
  for (const auto& [id, point] : r.fleet_insert) {
    if (!inserting.insert(id).second) {
      return bad("duplicate insert id " + std::to_string(id));
    }
    if (s.env.contains(id) && erasing.count(id) == 0) {
      return bad("insert of duplicate member id " + std::to_string(id));
    }
    if (point.dimension() != s.d) {
      return bad("insert point for id " + std::to_string(id) + " has " +
                 std::to_string(point.dimension()) +
                 " coordinates but the session dimension is " +
                 std::to_string(s.d));
    }
    if (point.motion_degree() > s.k) {
      return bad("insert point for id " + std::to_string(id) +
                 " has motion degree " +
                 std::to_string(point.motion_degree()) +
                 " but the session's 'k' is " + std::to_string(s.k));
    }
  }
  const std::size_t after = s.env.member_count() - erasing.size() +
                            r.fleet_insert.size();
  if (after > opts_.max_members) {
    return Status::unavailable(
        "fleet would hold " + std::to_string(after) +
        " members; the per-session cap is " +
        std::to_string(opts_.max_members) + " (--max-fleet-members)");
  }
  if (r.fleet_has_advance && r.fleet_advance < s.env.now()) {
    return bad("advance to " + exact_double(r.fleet_advance) +
               " is before the session time " + exact_double(s.env.now()) +
               " (time is monotone)");
  }

  // Apply: erases, then inserts, then the advance.
  const CostSnapshot before = s.machine.ledger().snapshot();
  FleetUpdateInfo info;
  info.fleet = s.name;
  for (std::uint64_t id : r.fleet_erase) {
    const bool erased = s.env.erase(id);
    DYNCG_ASSERT(erased, "validated erase failed");
    ++info.erased;
    auto ti = s.id_traj.find(id);
    DYNCG_ASSERT(ti != s.id_traj.end(), "erased id has no trajectory key");
    auto te = s.trajectories.find(ti->second);
    if (--te->second.live == 0) s.trajectories.erase(te);
    s.id_traj.erase(ti);
  }
  for (const auto& [id, point] : r.fleet_insert) {
    std::string tkey = trajectory_key(point);
    auto [te, fresh] = s.trajectories.try_emplace(std::move(tkey));
    if (fresh) te->second.score = fleet_score(point, s.ref);
    ++te->second.live;
    s.id_traj.emplace(id, te->first);
    const DynamicEnvelope::InsertOutcome out =
        s.env.insert(id, te->second.score);
    DYNCG_ASSERT(out != DynamicEnvelope::InsertOutcome::kDuplicateId,
                 "validated insert failed");
    if (out == DynamicEnvelope::InsertOutcome::kAliased) {
      ++info.deduped;
    } else {
      ++info.inserted;
    }
  }
  if (r.fleet_has_advance) {
    const bool advanced = s.env.advance(r.fleet_advance);
    DYNCG_ASSERT(advanced, "validated advance failed");
  }
  info.members = s.env.member_count();
  info.t = s.env.now();
  info.next_event = s.env.next_event();
  info.cost = s.machine.ledger().snapshot() - before;
  return render_fleet_update(r.id_json, info);
}

StatusOr<std::string> FleetRegistry::query(const Request& r) {
  StatusOr<Session*> found = find(r.fleet);
  if (!found.is_ok()) return found.status();
  Session& s = *found.value();
  const CostSnapshot before = s.machine.ledger().snapshot();
  FleetQueryInfo info;
  info.fleet = s.name;
  info.result = s.env.result_string();
  info.fingerprint = s.env.state_fingerprint();
  info.members = s.env.member_count();
  info.t = s.env.now();
  info.next_event = s.env.next_event();
  info.cost = s.machine.ledger().snapshot() - before;
  return render_fleet_query(r.id_json, info);
}

StatusOr<std::string> FleetRegistry::close(const Request& r) {
  StatusOr<Session*> found = find(r.fleet);
  if (!found.is_ok()) return found.status();
  const std::uint64_t members = found.value()->env.member_count();
  sessions_.erase(r.fleet);
  return render_fleet_close(r.id_json, r.fleet, members);
}

}  // namespace serve
}  // namespace dyncg
