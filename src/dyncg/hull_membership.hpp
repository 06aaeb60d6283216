#pragma once

#include <vector>

#include "dyncg/motion.hpp"
#include "envelope/parallel_envelope.hpp"
#include "machine/machine.hpp"
#include "pieces/interval.hpp"
#include "pieces/piecewise.hpp"

// Convex hull membership over time (Section 4.2, Theorem 4.5).
//
// For planar k-motion, T_{0j}(t) is the angle of the ray from the query
// point P_0 to P_j.  G_j is T_{0j} restricted to where it is >= 0 (P_j on or
// above P_0), B_j to where it is < 0.  The four partial envelopes
//   a_0 = min G_j,  b_0 = max G_j,  c_0 = min B_j,  d_0 = max B_j
// have at most lambda(n, 4k) pieces each (Lemma 4.3), and Lemma 4.4 says
// P_0 is an extreme point of hull(S) at time t iff
//   (1) a_0 - d_0 >= pi, or (2) b_0 - c_0 <= pi, or
//   (3) a_0, b_0 undefined, or (4) c_0, d_0 undefined.
// The angles are not polynomials, but every predicate the algorithm needs
// is: crossings T_{0a} = T_{0b} are roots of a degree-<= 2k cross product
// (same orientation), the a_0 - d_0 = pi boundaries are the same roots with
// opposite orientation, and G/B transitions are roots of y_j - y_0.
namespace dyncg {

// The relative motions dx_j = x_j - x_0, dy_j = y_j - y_0 shared by the G
// and B families.  Member ids index the non-query points in system order.
struct RelativeMotion {
  std::vector<Polynomial> dx;
  std::vector<Polynomial> dy;
  std::vector<std::size_t> owner;  // member id -> point index

  static RelativeMotion around(const MotionSystem& system, std::size_t query);

  // Times in the open interior of iv where rays a and b are parallel with
  // the given orientation (same_direction = T_a == T_b crossings,
  // !same_direction = T_a - T_b == +-pi boundaries), ascending, into `out`
  // (cleared first).
  void parallel_times(int a, int b, const Interval& iv, bool same_direction,
                      std::vector<double>& out) const;
};

// Model of the Family concept for the partial angle functions G (positive =
// true) or B (positive = false); see pieces/piecewise.hpp.
class AngleFamily {
 public:
  AngleFamily(const RelativeMotion* rel, bool positive)
      : rel_(rel), positive_(positive) {}

  std::size_t size() const { return rel_->dx.size(); }
  double value(int id, double t) const;
  bool identical(int a, int b) const;
  void crossings_into(int a, int b, const Interval& iv,
                      std::vector<double>& out) const;
  std::vector<Interval> defined_intervals(int id) const;

 private:
  const RelativeMotion* rel_;
  bool positive_;
};

// Theorem 4.5: the ordered intervals of time during which `query` is an
// extreme point of the hull.  Machine sized by hull_membership_machine_*.
IntervalSet hull_membership_intervals(Machine& m, const MotionSystem& system,
                                      std::size_t query);

// Recoverable-error variant: a non-planar system is kUnsupported, an
// out-of-range query or too-small system kInvalidArgument, an undersized
// machine kFailedPrecondition.
StatusOr<IntervalSet> try_hull_membership_intervals(Machine& m,
                                                    const MotionSystem& system,
                                                    std::size_t query);

// The same computation with Lemma 4.4's four conditions reported
// separately: A0 = [a0 - d0 >= pi], B0 = [b0 - c0 <= pi], C0 = [G side
// empty], D0 = [B side empty]; total is their union.
struct HullMembershipBreakdown {
  IntervalSet A0;
  IntervalSet B0;
  IntervalSet C0;
  IntervalSet D0;
  IntervalSet total;
};
HullMembershipBreakdown hull_membership_breakdown(Machine& m,
                                                  const MotionSystem& system,
                                                  std::size_t query);

// Machines of the paper's size lambda(n, 4k).
Machine hull_membership_machine_mesh(const MotionSystem& system);
Machine hull_membership_machine_hypercube(const MotionSystem& system);

// Static oracle: is `query` an extreme point of the hull of the system's
// positions at time t?  (Maximum circular angular gap >= pi test.)
bool brute_force_is_extreme(const MotionSystem& system, std::size_t query,
                            double t);

}  // namespace dyncg
