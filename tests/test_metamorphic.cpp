// Metamorphic properties: transformations of the input with a known effect
// on the output.  These catch classes of bugs that oracle comparisons on a
// single instance cannot (coordinate-system dependence, hidden asymmetries,
// breakpoint bookkeeping).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/proximity.hpp"
#include "pieces/envelope_serial.hpp"
#include "steady/steady_state.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

Polynomial time_scaled(const Polynomial& p, double c) {
  // p(c t): coefficient i scales by c^i.
  std::vector<double> out(static_cast<std::size_t>(p.degree()) + 1);
  double f = 1.0;
  for (int i = 0; i <= p.degree(); ++i) {
    out[static_cast<std::size_t>(i)] = p.coefficient(i) * f;
    f *= c;
  }
  return Polynomial(out);
}

MotionSystem transform(const MotionSystem& sys, double time_scale,
                       double rot, double tx, double ty) {
  std::vector<Trajectory> pts;
  double cr = std::cos(rot), sr = std::sin(rot);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    Polynomial x = time_scaled(sys.point(i).coordinate(0), time_scale);
    Polynomial y = time_scaled(sys.point(i).coordinate(1), time_scale);
    Polynomial nx = x * cr - y * sr + Polynomial::constant(tx);
    Polynomial ny = x * sr + y * cr + Polynomial::constant(ty);
    pts.push_back(Trajectory({nx, ny}));
  }
  return MotionSystem(2, std::move(pts));
}

TEST(Metamorphic, EnvelopeBreakpointsScaleWithTime) {
  Rng rng(5);
  std::vector<Polynomial> fns;
  for (int i = 0; i < 10; ++i) {
    fns.push_back(Polynomial(
        {rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(-1, 1)}));
  }
  PolyFamily fam(fns);
  PiecewiseFn env = envelope_serial(fam);

  double c = 2.0;  // g_i(t) = f_i(c t): breakpoints divide by c
  std::vector<Polynomial> scaled;
  for (const auto& f : fns) scaled.push_back(time_scaled(f, c));
  PolyFamily fam2(std::move(scaled));
  PiecewiseFn env2 = envelope_serial(fam2);

  ASSERT_EQ(env.piece_count(), env2.piece_count());
  for (std::size_t i = 0; i < env.pieces.size(); ++i) {
    EXPECT_EQ(env.pieces[i].id, env2.pieces[i].id);
    if (!std::isinf(env.pieces[i].iv.hi)) {
      EXPECT_NEAR(env2.pieces[i].iv.hi, env.pieces[i].iv.hi / c,
                  1e-7 * (1 + env.pieces[i].iv.hi));
    }
  }
}

TEST(Metamorphic, NeighborSequenceIsRigidMotionInvariant) {
  Rng rng(9);
  MotionSystem sys = random_motion_system(rng, 8, 2, 2);
  MotionSystem moved = transform(sys, 1.0, 0.83, 17.0, -5.0);
  Machine m1 = proximity_machine_mesh(sys);
  Machine m2 = proximity_machine_mesh(moved);
  NeighborSequence a = neighbor_sequence(m1, sys, 0);
  NeighborSequence b = neighbor_sequence(m2, moved, 0);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].neighbor, b.epochs[i].neighbor);
    EXPECT_NEAR(a.epochs[i].iv.lo, b.epochs[i].iv.lo,
                1e-6 * (1 + a.epochs[i].iv.lo));
  }
}

TEST(Metamorphic, CollisionTimesAreRigidMotionInvariantAndTimeScale) {
  Rng rng(11);
  MotionSystem sys = random_motion_system(rng, 10, 2, 2);
  Machine m1 = collision_machine_mesh(sys);
  CollisionReport base = collision_times(m1, sys, 0);

  MotionSystem rot = transform(sys, 1.0, 1.3, -4.0, 9.0);
  Machine m2 = collision_machine_mesh(rot);
  CollisionReport moved = collision_times(m2, rot, 0);
  ASSERT_EQ(base.events.size(), moved.events.size());
  for (std::size_t i = 0; i < base.events.size(); ++i) {
    EXPECT_NEAR(base.events[i].time, moved.events[i].time,
                1e-6 * (1 + base.events[i].time));
    EXPECT_EQ(base.events[i].other, moved.events[i].other);
  }

  MotionSystem fast = transform(sys, 3.0, 0.0, 0.0, 0.0);
  Machine m3 = collision_machine_mesh(fast);
  CollisionReport sped = collision_times(m3, fast, 0);
  ASSERT_EQ(base.events.size(), sped.events.size());
  for (std::size_t i = 0; i < base.events.size(); ++i) {
    EXPECT_NEAR(sped.events[i].time, base.events[i].time / 3.0,
                1e-6 * (1 + base.events[i].time));
  }
}

TEST(Metamorphic, HullMembershipIsRigidMotionInvariant) {
  Rng rng(13);
  MotionSystem sys = random_motion_system(rng, 7, 2, 1);
  MotionSystem moved = transform(sys, 1.0, 2.1, 100.0, -50.0);
  Machine m1 = hull_membership_machine_mesh(sys);
  Machine m2 = hull_membership_machine_mesh(moved);
  IntervalSet a = hull_membership_intervals(m1, sys, 0);
  IntervalSet b = hull_membership_intervals(m2, moved, 0);
  for (double t = 0.07; t < 40; t = t * 1.37 + 0.03) {
    // Skip near either solution's boundaries.
    bool near = false;
    for (const IntervalSet* s : {&a, &b}) {
      for (const Interval& iv : s->intervals()) {
        if (std::fabs(t - iv.lo) < 5e-3 ||
            (!std::isinf(iv.hi) && std::fabs(t - iv.hi) < 5e-3)) {
          near = true;
        }
      }
    }
    if (near) continue;
    EXPECT_EQ(a.contains(t), b.contains(t)) << "t=" << t;
  }
}

TEST(Metamorphic, ContainmentIsTranslationInvariantNotRotation) {
  Rng rng(17);
  MotionSystem sys = random_motion_system(rng, 8, 2, 1);
  MotionSystem shifted = transform(sys, 1.0, 0.0, 42.0, -17.0);
  Machine m1 = containment_machine_mesh(sys);
  Machine m2 = containment_machine_mesh(shifted);
  // Iso-oriented boxes are translation invariant...
  IntervalSet a = containment_intervals(m1, sys, {9.0, 7.0});
  IntervalSet b = containment_intervals(m2, shifted, {9.0, 7.0});
  for (double t = 0.05; t < 30; t = t * 1.5 + 0.02) {
    double margin =
        std::min(std::fabs(brute_force_spread(sys, 0, t) - 9.0),
                 std::fabs(brute_force_spread(sys, 1, t) - 7.0));
    if (margin < 1e-3) continue;
    EXPECT_EQ(a.contains(t), b.contains(t)) << t;
  }
  // ...and the smallest enclosing cube edge is too.
  Machine m3 = containment_machine_mesh(sys);
  Machine m4 = containment_machine_mesh(shifted);
  SmallestCube c1 = smallest_enclosing_cube(m3, sys);
  SmallestCube c2 = smallest_enclosing_cube(m4, shifted);
  EXPECT_NEAR(c1.edge, c2.edge, 1e-6 * (1 + c1.edge));
}

TEST(Metamorphic, PointPermutationOnlyRelabels) {
  Rng rng(19);
  MotionSystem sys = random_motion_system(rng, 9, 2, 2);
  // Permute the non-query points.
  std::vector<Trajectory> pts;
  pts.push_back(sys.point(0));
  auto perm = rng.permutation(8);
  std::vector<std::size_t> fwd(9);  // old -> new index
  fwd[0] = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    pts.push_back(sys.point(perm[i] + 1));
  }
  for (std::size_t i = 0; i < 8; ++i) fwd[perm[i] + 1] = i + 1;
  MotionSystem shuffled(2, std::move(pts));

  Machine m1 = proximity_machine_hypercube(sys);
  Machine m2 = proximity_machine_hypercube(shuffled);
  NeighborSequence a = neighbor_sequence(m1, sys, 0);
  NeighborSequence b = neighbor_sequence(m2, shuffled, 0);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(fwd[a.epochs[i].neighbor], b.epochs[i].neighbor) << i;
  }
}

TEST(Metamorphic, SteadyHullRotatesWithTheSystem) {
  Rng rng(23);
  MotionSystem sys = diverging_motion_system(rng, 10, 1);
  MotionSystem rot = transform(sys, 1.0, 0.77, 3.0, 4.0);
  auto a = steady_hull_ids(sys);
  auto b = steady_hull_ids(rot);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dyncg
