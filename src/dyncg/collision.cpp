#include "dyncg/collision.hpp"

#include <cmath>

#include "ops/basic.hpp"
#include "ops/sorting.hpp"
#include "poly/roots.hpp"
#include "support/assert.hpp"
#include "support/trace.hpp"

namespace dyncg {

namespace {

// The first coordinate whose difference is not identically zero;
// a.dimension() when a and b are the same trajectory.
std::size_t first_difference(const Trajectory& a, const Trajectory& b) {
  std::size_t i = 0;
  while (i < a.dimension() && (a.coordinate(i) - b.coordinate(i)).is_zero()) {
    ++i;
  }
  return i;
}

}  // namespace

std::vector<double> pair_collision_times(const Trajectory& a,
                                         const Trajectory& b) {
  DYNCG_ASSERT(a.dimension() == b.dimension(), "dimension mismatch");
  // Use the roots of the first coordinate difference that is not
  // identically zero as (clean, sign-changing) candidates; a candidate is a
  // collision iff every other coordinate difference also vanishes there, up
  // to how far the candidate can be from the pivot's true root.
  const std::size_t pivot = first_difference(a, b);
  DYNCG_ASSERT(pivot < a.dimension(),
               "identical trajectories: the initial-position assumption of "
               "Section 2.4 is violated");
  RootFindResult rr;
  real_roots_from_into(a.coordinate(pivot) - b.coordinate(pivot), 0.0,
                       thread_root_scratch(), rr);
  std::vector<double> out;
  for (double t : rr.roots) {
    bool all_zero = true;
    for (std::size_t i = 0; i < a.dimension() && all_zero; ++i) {
      if (i == pivot) continue;
      if (!vanishes_at_isolated_root(a.coordinate(i) - b.coordinate(i), t)) {
        all_zero = false;
      }
    }
    if (all_zero) out.push_back(t);
  }
  return out;
}

CollisionReport collision_times(Machine& m, const MotionSystem& system,
                                std::size_t query,
                                bool use_randomized_sort_model) {
  TRACE_SPAN_COST("dyncg.collision_times", m.ledger());
  const std::size_t n = system.size();
  DYNCG_ASSERT(query < n, "query index out of range");
  DYNCG_ASSERT(m.size() >= n, "machine smaller than the system");

  // Broadcast the query trajectory; then PE_j solves d_{0j}(t) = 0 locally
  // (at most k roots per coordinate, Theta(1) work for bounded k, d).
  {
    std::vector<int> token(m.size(), 0);
    ops::broadcast(m, token, 0);
  }
  int k = std::max(1, system.motion_degree());
  m.charge_local(static_cast<std::uint64_t>(k) *
                 static_cast<std::uint64_t>(system.dimension()));

  // Fixed root capacity per PE: a pair collides at most k times.
  std::size_t slots = ceil_pow2(static_cast<std::size_t>(k));

  constexpr double kInfSentinel = 1e300;
  struct Slot {
    double time;
    std::size_t other;
    bool operator<(const Slot& o) const { return time < o.time; }
  };
  const Slot kDead{kInfSentinel, ~std::size_t{0}};
  std::vector<Slot> file(m.size() * slots, kDead);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == query) continue;
    std::vector<double> roots =
        pair_collision_times(system.point(query), system.point(j));
    DYNCG_ASSERT(roots.size() <= slots,
                 "more collisions than the k-motion bound allows");
    for (std::size_t r = 0; r < roots.size(); ++r) {
      file[j * slots + r] = Slot{roots[r], j};
    }
  }

  // Sort the union chronologically (Theta(n^(1/2)) mesh, Theta(log^2 n)
  // hypercube; the randomized model charges the Reif-Valiant bound).
  if (use_randomized_sort_model) {
    std::size_t total = file.size();
    m.ledger().add_rounds(ops::kFlashsortConstant *
                          static_cast<std::uint64_t>(floor_log2(total)));
    m.ledger().add_messages(total);
    std::stable_sort(file.begin(), file.end());
  } else {
    ops::bitonic_sort_slotted(m, file, slots);
  }

  CollisionReport report;
  report.query = query;
  for (const Slot& s : file) {
    if (s.time >= kInfSentinel) break;
    report.events.push_back(CollisionEvent{s.time, s.other});
  }
  return report;
}

StatusOr<CollisionReport> try_collision_times(Machine& m,
                                              const MotionSystem& system,
                                              std::size_t query,
                                              bool use_randomized_sort_model) {
  const std::size_t n = system.size();
  if (query >= n) {
    return Status::invalid_argument("query index " + std::to_string(query) +
                                    " out of range [0, " + std::to_string(n) +
                                    ")");
  }
  if (m.size() < n) {
    return Status::failed_precondition(
        "machine smaller than the system: " + std::to_string(m.size()) +
        " PEs for " + std::to_string(n) + " points");
  }
  // Section 2.4 assumes distinct trajectories: a point that moves with the
  // query point collides with it at every instant.
  const Trajectory& q = system.point(query);
  for (std::size_t j = 0; j < n; ++j) {
    if (j != query && first_difference(q, system.point(j)) == q.dimension()) {
      return Status::invalid_argument(
          "P" + std::to_string(j) + " shares its trajectory with the query P" +
          std::to_string(query) + " (collision times need distinct ones)");
    }
  }
  return collision_times(m, system, query, use_randomized_sort_model);
}

Machine collision_machine_mesh(const MotionSystem& system) {
  return Machine::mesh_for(system.size());
}

Machine collision_machine_hypercube(const MotionSystem& system) {
  return Machine::hypercube_for(system.size());
}

}  // namespace dyncg
