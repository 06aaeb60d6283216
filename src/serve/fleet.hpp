#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "dyncg/motion.hpp"
#include "serve/protocol.hpp"
#include "support/status.hpp"

// Stateful fleet sessions: the serving-path face of the incremental
// envelope (envelope/dynamic_envelope.hpp).
//
// A session is one DynamicEnvelope plus the cost-model Machine it charges:
// the minimum over the fleet of each member's squared distance to the
// session's reference trajectory, maintained under fleet_update batches
// (erases, then inserts, then a time advance — validated atomically: a
// rejected batch changes nothing).  fleet_query renders the maintained
// envelope; its `key` is the state fingerprint, so a client holding the
// same member set at the same time can verify byte-identity without
// shipping coefficients back (dyncg_load --stream does exactly that
// against the canonical_rebuild oracle).
//
// Admission (docs/SERVING.md#fleet-sessions): the registry caps open
// sessions (--max-fleets) and members per session (--max-fleet-members) —
// the per-session memory cap, since members bound the merge tree, its
// crossing memo (about four memoized member pairs per member: ~0.15 MiB of
// heap for a 768-member fleet_churn session), and the simulated machine,
// which is sized once at open for max_members.
// Capacity rejections are UNAVAILABLE, semantic errors INVALID_ARGUMENT.
//
// Everything here is deterministic: sessions are named "fleet-1",
// "fleet-2", ... in open order, handled sequentially in arrival order by
// the server's batch pass, and never touch the result cache.
namespace dyncg {
namespace serve {

struct FleetOptions {
  std::size_t max_fleets = 16;
  std::size_t max_members = 1024;
};

// The score polynomial a fleet member contributes to the envelope: squared
// distance to the reference (degree <= 2k).  The fleet oracle
// (serve/client.hpp) scores with it too, so server and oracle agree.
Polynomial fleet_score(const Trajectory& point, const Trajectory& ref);
// The default reference when fleet_open carries no 'ref': the origin.
Trajectory fleet_origin(std::size_t d);
// The envelope's crossing bound for motion degree k (scores have degree
// <= 2k; constant fleets still need a positive bound).
int fleet_s_bound(int k);

class FleetRegistry {
 public:
  explicit FleetRegistry(FleetOptions opts);
  ~FleetRegistry();
  FleetRegistry(const FleetRegistry&) = delete;
  FleetRegistry& operator=(const FleetRegistry&) = delete;

  // Handle one parsed fleet_* request; returns the rendered response line.
  // Must be called sequentially in arrival order (the server's pass 3).
  StatusOr<std::string> handle(const Request& r);

  std::size_t open_count() const { return sessions_.size(); }

 private:
  struct Session;
  StatusOr<std::string> open(const Request& r);
  StatusOr<std::string> update(const Request& r);
  StatusOr<std::string> query(const Request& r);
  StatusOr<std::string> close(const Request& r);
  StatusOr<Session*> find(const std::string& name);

  FleetOptions opts_;
  std::uint64_t next_name_ = 1;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
};

}  // namespace serve
}  // namespace dyncg
