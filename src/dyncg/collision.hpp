#pragma once

#include <vector>

#include "dyncg/motion.hpp"
#include "machine/machine.hpp"
#include "support/status.hpp"

// Collision detection (Section 4.1, Theorem 4.2).
//
// P_i and P_j collide at time t iff f_i(t) = f_j(t).  A chronological list
// of the times at which the query point collides with any other point is
// built by solving d^2_{0j}(t) = 0 per PE and sorting the union of the
// solutions: Theta(n^(1/2)) on a mesh of 4^ceil(log4 n) PEs, Theta(log^2 n)
// on a hypercube of 2^ceil(log2 n) PEs (expected Theta(log n) with the
// randomized sort model).
namespace dyncg {

struct CollisionEvent {
  double time;
  std::size_t other;  // the point the query collides with
};

struct CollisionReport {
  std::size_t query = 0;
  std::vector<CollisionEvent> events;  // chronological
};

// Theorem 4.2 on the given machine (size >= ceil_pow2(n)).
CollisionReport collision_times(Machine& m, const MotionSystem& system,
                                std::size_t query,
                                bool use_randomized_sort_model = false);

// Recoverable-error variant: rejects an out-of-range query, an undersized
// machine, or a point sharing the query's trajectory with a Status instead
// of aborting.
StatusOr<CollisionReport> try_collision_times(
    Machine& m, const MotionSystem& system, std::size_t query,
    bool use_randomized_sort_model = false);

// Machines of the paper's size: Theta(n) PEs.
Machine collision_machine_mesh(const MotionSystem& system);
Machine collision_machine_hypercube(const MotionSystem& system);

// Serial primitive: all collision times of the pair (a, b), robustly
// computed from coordinate differences (a collision is a common root of all
// coordinate difference polynomials, degree <= k each).
std::vector<double> pair_collision_times(const Trajectory& a,
                                         const Trajectory& b);

}  // namespace dyncg
