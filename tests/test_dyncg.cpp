#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/motion.hpp"
#include "dyncg/motion_io.hpp"
#include "dyncg/proximity.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

// Sampling grid for oracle comparisons: geometric spacing plus jitter keeps
// samples away from the (measure-zero) breakpoints.
std::vector<double> sample_times() {
  std::vector<double> ts;
  double t = 0.0171;
  while (t < 60.0) {
    ts.push_back(t);
    t = t * 1.31 + 0.013;
  }
  return ts;
}

TEST(Motion, TrajectoryBasics) {
  Trajectory p({Polynomial({1.0, 2.0}), Polynomial({0.0, 0.0, 1.0})});
  EXPECT_EQ(p.dimension(), 2u);
  EXPECT_EQ(p.motion_degree(), 2);
  auto pos = p.position(2.0);
  EXPECT_DOUBLE_EQ(pos[0], 5.0);
  EXPECT_DOUBLE_EQ(pos[1], 4.0);
  Trajectory q = Trajectory::fixed({0.0, 0.0});
  Polynomial d2 = p.distance_squared(q);
  EXPECT_EQ(d2.degree(), 4);
  EXPECT_DOUBLE_EQ(d2(2.0), 25.0 + 16.0);
}


TEST(MotionIo, RoundTripPreservesTrajectories) {
  Rng rng(83);
  MotionSystem sys = random_motion_system(rng, 7, 3, 2);
  MotionSystem back = try_motion_from_text(to_text(sys)).value();
  ASSERT_EQ(back.size(), sys.size());
  ASSERT_EQ(back.dimension(), sys.dimension());
  for (std::size_t i = 0; i < sys.size(); ++i) {
    for (std::size_t c = 0; c < sys.dimension(); ++c) {
      for (double t : {0.0, 1.5, 7.25}) {
        EXPECT_DOUBLE_EQ(back.point(i).coordinate(c)(t),
                         sys.point(i).coordinate(c)(t));
      }
    }
  }
}

TEST(MotionIo, ParsesHandWrittenFile) {
  std::string text =
      "# two linear planar points\n"
      "dyncg-motion 1\n"
      "dim 2\n"
      "point 0 1 ; 0 0.5\n"
      "point 10 -1 ; 2\n";
  MotionSystem sys = try_motion_from_text(text).value();
  EXPECT_EQ(sys.size(), 2u);
  EXPECT_EQ(sys.dimension(), 2u);
  auto pos = sys.point(0).position(2.0);
  EXPECT_DOUBLE_EQ(pos[0], 2.0);
  EXPECT_DOUBLE_EQ(pos[1], 1.0);
  EXPECT_DOUBLE_EQ(sys.point(1).position(3.0)[0], 7.0);
}

TEST(MotionIo, RejectsGarbage) {
  EXPECT_DEATH(try_motion_from_text("hello world\n").value(), "motion file");
  EXPECT_DEATH(try_motion_from_text("dyncg-motion 1\npoint 1 2\n").value(),
               "point before dim");
  EXPECT_DEATH(
      try_motion_from_text("dyncg-motion 1\ndim 2\npoint 1 2\n").value(),
      "coordinate count");
}


TEST(Motion, VelocityAndSpeed) {
  Trajectory p({Polynomial({1.0, 2.0, 3.0}), Polynomial({0.0, -1.0})});
  Trajectory v = p.velocity();
  EXPECT_DOUBLE_EQ(v.position(2.0)[0], 2 + 12.0);  // d/dt (1+2t+3t^2)
  EXPECT_DOUBLE_EQ(v.position(2.0)[1], -1.0);
  Polynomial s2 = p.speed_squared();
  double t = 1.5;
  double vx = 2 + 6 * t, vy = -1;
  EXPECT_DOUBLE_EQ(s2(t), vx * vx + vy * vy);
  // Static points have zero speed.
  EXPECT_TRUE(Trajectory::fixed({3.0, 4.0}).speed_squared().is_zero());
}

TEST(Motion, Generators) {
  Rng rng(3);
  MotionSystem sys = random_motion_system(rng, 12, 3, 2);
  EXPECT_EQ(sys.size(), 12u);
  EXPECT_EQ(sys.dimension(), 3u);
  EXPECT_LE(sys.motion_degree(), 2);
  EXPECT_TRUE(sys.initial_positions_distinct());
  MotionSystem div = diverging_motion_system(rng, 8, 1);
  EXPECT_EQ(div.dimension(), 2u);
  EXPECT_EQ(div.motion_degree(), 1);
}

// The reference for random_motion_system's start check: the same draws,
// with each new start tested against every earlier one.  Counts the
// rejected draws in *rejected.
MotionSystem quadratic_check_motion_system(Rng& rng, std::size_t n,
                                           std::size_t dim, int k,
                                           double coeff, std::size_t* rejected) {
  std::vector<Trajectory> pts;
  std::vector<std::vector<double>> starts;
  while (pts.size() < n) {
    std::vector<Polynomial> coords;
    std::vector<double> start;
    for (std::size_t d = 0; d < dim; ++d) {
      std::vector<double> c(static_cast<std::size_t>(k) + 1);
      for (double& x : c) x = rng.uniform(-coeff, coeff);
      c[0] = rng.uniform(-4 * coeff, 4 * coeff);
      start.push_back(c[0]);
      coords.push_back(Polynomial(c));
    }
    bool clash = false;
    for (const auto& s : starts) {
      double d2 = 0;
      for (std::size_t i = 0; i < dim; ++i) d2 += (s[i] - start[i]) * (s[i] - start[i]);
      if (d2 < 1e-6) clash = true;
    }
    if (clash) {
      ++*rejected;
      continue;
    }
    starts.push_back(start);
    pts.push_back(Trajectory(std::move(coords)));
  }
  return MotionSystem(dim, std::move(pts));
}

// The bucketed start check accepts and rejects exactly what the quadratic
// one did, so every generated system is bit-identical and the generator
// leaves the Rng where it did.  The small coefficients crowd the starts and
// force rejections.
TEST(Motion, BucketedStartCheckMatchesQuadraticCheck) {
  struct Case {
    std::size_t n, dim;
    int k;
    double coeff;
    bool crowded;
  };
  const Case cases[] = {{4096, 1, 2, 2.0, true},  {4096, 2, 1, 2.0, false},
                        {1024, 3, 2, 2.0, false}, {256, 16, 1, 2.0, false},
                        {64, 1, 1, 0.02, true},   {300, 2, 2, 0.01, true},
                        {200, 3, 0, 0.005, true}, {1, 2, 2, 2.0, false}};
  for (std::uint64_t seed : {1u, 7u, 7919u}) {
    for (const Case& c : cases) {
      Rng fast_rng(seed), ref_rng(seed);
      std::size_t rejected = 0;
      const MotionSystem fast =
          random_motion_system(fast_rng, c.n, c.dim, c.k, c.coeff);
      const MotionSystem ref = quadratic_check_motion_system(
          ref_rng, c.n, c.dim, c.k, c.coeff, &rejected);
      ASSERT_EQ(fast.size(), ref.size());
      for (std::size_t i = 0; i < fast.size(); ++i) {
        for (std::size_t d = 0; d < c.dim; ++d) {
          ASSERT_EQ(fast.point(i).coordinate(d).coefficients(),
                    ref.point(i).coordinate(d).coefficients())
              << "seed " << seed << " n " << c.n << " d " << c.dim
              << " point " << i;
        }
      }
      EXPECT_EQ(fast_rng.next_u64(), ref_rng.next_u64());
      if (c.crowded) {
        EXPECT_GT(rejected, 0u) << "n " << c.n << " d " << c.dim;
      }
    }
  }
}

// --- Theorem 4.1 ------------------------------------------------------------

class NeighborSequenceProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(NeighborSequenceProperty, MatchesBruteForce) {
  auto [which, n, k, farthest] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 31 + k * 7 + farthest + which));
  MotionSystem sys = random_motion_system(rng, static_cast<std::size_t>(n), 2, k);
  Machine m = which == 0 ? proximity_machine_mesh(sys)
                         : proximity_machine_hypercube(sys);
  NeighborSequence seq = neighbor_sequence(m, sys, 0, farthest);
  ASSERT_FALSE(seq.epochs.empty());
  EXPECT_DOUBLE_EQ(seq.epochs.front().iv.lo, 0.0);
  EXPECT_TRUE(std::isinf(seq.epochs.back().iv.hi));
  for (double t : sample_times()) {
    std::size_t got = seq.neighbor_at(t);
    std::size_t want = brute_force_neighbor(sys, 0, t, farthest);
    double dg = sys.point(0).distance_squared(sys.point(got))(t);
    double dw = sys.point(0).distance_squared(sys.point(want))(t);
    EXPECT_NEAR(dg, dw, 1e-6 * (1 + dw)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NeighborSequenceProperty,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(3, 6, 12),
                       ::testing::Values(1, 2), ::testing::Bool()));

TEST(NeighborSequence, EpochsAreChronologicalAndAbut) {
  Rng rng(5);
  MotionSystem sys = random_motion_system(rng, 9, 2, 1);
  Machine m = proximity_machine_mesh(sys);
  NeighborSequence seq = neighbor_sequence(m, sys, 2);
  EXPECT_EQ(seq.query, 2u);
  for (std::size_t i = 0; i + 1 < seq.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq.epochs[i].iv.hi, seq.epochs[i + 1].iv.lo);
    EXPECT_NE(seq.epochs[i].neighbor, seq.epochs[i + 1].neighbor);
  }
}

// --- Theorem 4.2 ------------------------------------------------------------

TEST(Collision, PlantedCollisionsFound) {
  // P0 sits at the origin; P1 passes through it at t = 2, P2 at t = 5,
  // P3 never collides.
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory({Polynomial({-2.0, 1.0}), Polynomial({-4.0, 2.0})}));
  pts.push_back(Trajectory({Polynomial({5.0, -1.0}), Polynomial({10.0, -2.0})}));
  pts.push_back(Trajectory({Polynomial({1.0, 1.0}), Polynomial({1.0})}));
  MotionSystem sys(2, std::move(pts));
  Machine m = collision_machine_mesh(sys);
  CollisionReport rep = collision_times(m, sys, 0);
  ASSERT_EQ(rep.events.size(), 2u);
  EXPECT_NEAR(rep.events[0].time, 2.0, 1e-9);
  EXPECT_EQ(rep.events[0].other, 1u);
  EXPECT_NEAR(rep.events[1].time, 5.0, 1e-9);
  EXPECT_EQ(rep.events[1].other, 2u);
}

TEST(Collision, MultipleCollisionsOnePair) {
  // P1 oscillates through P0 twice: x(t) = (t-1)(t-3), y = 0 versus the
  // origin.
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory({Polynomial::from_roots({1.0, 3.0}),
                            Polynomial()}));
  MotionSystem sys(2, std::move(pts));
  Machine m = collision_machine_hypercube(sys);
  CollisionReport rep = collision_times(m, sys, 0);
  ASSERT_EQ(rep.events.size(), 2u);
  EXPECT_NEAR(rep.events[0].time, 1.0, 1e-9);
  EXPECT_NEAR(rep.events[1].time, 3.0, 1e-9);
}

TEST(Collision, EventsVerifiedAndSorted) {
  Rng rng(11);
  MotionSystem sys = random_motion_system(rng, 16, 2, 2);
  Machine m = collision_machine_mesh(sys);
  CollisionReport rep = collision_times(m, sys, 3);
  double last = -1.0;
  for (const CollisionEvent& e : rep.events) {
    EXPECT_GE(e.time, last);
    last = e.time;
    double d2 = sys.point(3).distance_squared(sys.point(e.other))(e.time);
    EXPECT_NEAR(d2, 0.0, 1e-6);
  }
}

TEST(Collision, RandomizedModelAgrees) {
  Rng rng(13);
  MotionSystem sys = random_motion_system(rng, 8, 2, 1);
  Machine m1 = collision_machine_hypercube(sys);
  Machine m2 = collision_machine_hypercube(sys);
  CollisionReport a = collision_times(m1, sys, 0, false);
  CollisionReport b = collision_times(m2, sys, 0, true);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_NEAR(a.events[i].time, b.events[i].time, 1e-12);
  }
}

TEST(Collision, PairPrimitiveRobustToTangentialApproach) {
  // Same x motion, y differs by (t-2)^2: distance reaches exactly zero at
  // t = 2 where the coordinate difference has a double root... the pivot
  // coordinate difference is y with double root at 2.
  Trajectory a({Polynomial({0.0, 1.0}), Polynomial({4.0, -4.0, 1.0})});
  Trajectory b({Polynomial({0.0, 1.0}), Polynomial()});
  auto times = pair_collision_times(a, b);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_NEAR(times[0], 2.0, 1e-5);
}

// The pivot coordinate's roots come from bisection and Newton steps, so they
// are off by up to the root tolerance, and a coordinate that vanishes at the
// true root is only near zero there.  Seeded cubics with integer roots
// a < b < c are the pivot; the second coordinate vanishes at one of them (a
// slope-s line through it) and the third at all three, so exactly that root
// is a collision.  Moving the line by 1e-7 makes it a near miss.
TEST(Collision, PlantedCollisionsAtCubicPivotRoots) {
  Rng rng(29);
  for (int draw = 0; draw < 2000; ++draw) {
    std::vector<double> roots;
    while (roots.size() < 3) {
      double r = static_cast<double>(rng.uniform_int(1, 60));
      if (std::find(roots.begin(), roots.end(), r) == roots.end()) {
        roots.push_back(r);
      }
    }
    std::sort(roots.begin(), roots.end());
    const double hit = roots[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const double s = rng.uniform(0.5, 8.0) * (rng.uniform_int(0, 1) ? 1 : -1);
    Trajectory p0 = Trajectory::fixed({0.0, 0.0, 0.0});
    Trajectory p1({Polynomial::from_roots(roots), Polynomial({-s * hit, s}),
                   Polynomial::from_roots(roots) * 2.0});
    std::vector<double> times = pair_collision_times(p0, p1);
    ASSERT_EQ(times.size(), 1u) << "roots " << roots[0] << ", " << roots[1]
                                << ", " << roots[2] << "; hit " << hit
                                << ", slope " << s;
    EXPECT_NEAR(times[0], hit, 1e-9 * hit);
    Trajectory miss({Polynomial::from_roots(roots),
                     Polynomial({-s * (hit + 1e-7), s}),
                     Polynomial::from_roots(roots) * 2.0});
    EXPECT_TRUE(pair_collision_times(p0, miss).empty()) << "hit " << hit;
  }
}

// --- Theorems 4.6-4.8 -------------------------------------------------------

class SpreadProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SpreadProperty, CoordinateSpreadsMatchBruteForce) {
  auto [n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 17 + k));
  MotionSystem sys = random_motion_system(rng, static_cast<std::size_t>(n), 2, k);
  Machine m = containment_machine_mesh(sys);
  auto spreads = coordinate_spreads(m, sys);
  ASSERT_EQ(spreads.size(), 2u);
  for (double t : sample_times()) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(spreads[c](t), brute_force_spread(sys, c, t), 1e-6)
          << "t=" << t << " coord=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpreadProperty,
                         ::testing::Combine(::testing::Values(3, 7, 15),
                                            ::testing::Values(1, 2)));

TEST(Containment, IntervalsMatchSampledOracle) {
  Rng rng(23);
  MotionSystem sys = random_motion_system(rng, 8, 2, 1);
  Machine m = containment_machine_mesh(sys);
  std::vector<double> dims{10.0, 12.0};
  IntervalSet J = containment_intervals(m, sys, dims);
  for (double t : sample_times()) {
    bool fits = brute_force_spread(sys, 0, t) <= dims[0] &&
                brute_force_spread(sys, 1, t) <= dims[1];
    // Skip samples within tolerance of a boundary.
    double margin = std::min(std::fabs(brute_force_spread(sys, 0, t) - dims[0]),
                             std::fabs(brute_force_spread(sys, 1, t) - dims[1]));
    if (margin < 1e-3) continue;
    EXPECT_EQ(J.contains(t), fits) << "t=" << t;
  }
}

TEST(Containment, NeverAndAlwaysFits) {
  Rng rng(29);
  MotionSystem sys = random_motion_system(rng, 6, 2, 1);
  Machine m1 = containment_machine_hypercube(sys);
  EXPECT_TRUE(containment_intervals(m1, sys, {1e-9, 1e-9}).empty());
  // Linear motion diverges, so a huge box fits only up to some horizon —
  // but a box larger than any reachable spread within the root bound always
  // contains t = 0.
  Machine m2 = containment_machine_hypercube(sys);
  IntervalSet J = containment_intervals(m2, sys, {1e12, 1e12});
  EXPECT_TRUE(J.contains(0.0));
}

TEST(Containment, EdgeFunctionIsMaxOfSpreads) {
  Rng rng(31);
  MotionSystem sys = random_motion_system(rng, 9, 2, 2);
  Machine m = containment_machine_mesh(sys);
  PiecewisePoly edge = enclosing_cube_edge(m, sys);
  for (double t : sample_times()) {
    double want = std::max(brute_force_spread(sys, 0, t),
                           brute_force_spread(sys, 1, t));
    EXPECT_NEAR(edge(t), want, 1e-6) << "t=" << t;
  }
}

TEST(Containment, SmallestCubeMatchesDenseScan) {
  Rng rng(37);
  MotionSystem sys = random_motion_system(rng, 7, 2, 1);
  Machine m = containment_machine_mesh(sys);
  SmallestCube cube = smallest_enclosing_cube(m, sys);
  // Dense scan oracle.
  double best = kInfinity;
  for (double t = 0.0; t < 50.0; t += 0.003) {
    best = std::min(best, std::max(brute_force_spread(sys, 0, t),
                                   brute_force_spread(sys, 1, t)));
  }
  EXPECT_LE(cube.edge, best + 1e-6);
  EXPECT_NEAR(cube.edge, std::max(brute_force_spread(sys, 0, cube.time),
                                  brute_force_spread(sys, 1, cube.time)),
              1e-6);
}

TEST(Containment, ThreeDimensionalSystem) {
  Rng rng(41);
  MotionSystem sys = random_motion_system(rng, 6, 3, 1);
  Machine m = containment_machine_hypercube(sys);
  auto spreads = coordinate_spreads(m, sys);
  ASSERT_EQ(spreads.size(), 3u);
  SmallestCube cube = smallest_enclosing_cube(m, sys);
  EXPECT_GT(cube.edge, 0.0);
}

// --- Theorem 4.5 ------------------------------------------------------------

class HullMembershipProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HullMembershipProperty, MatchesStaticOracleAtSamples) {
  auto [which, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 13 + k * 3 + which));
  MotionSystem sys = random_motion_system(rng, static_cast<std::size_t>(n), 2, k);
  Machine m = which == 0 ? hull_membership_machine_mesh(sys)
                         : hull_membership_machine_hypercube(sys);
  IntervalSet hit = hull_membership_intervals(m, sys, 0);
  for (double t : sample_times()) {
    bool want = brute_force_is_extreme(sys, 0, t);
    // Skip samples too close to a membership boundary.
    bool near_boundary = false;
    for (const Interval& iv : hit.intervals()) {
      if (std::fabs(t - iv.lo) < 2e-3 ||
          (!std::isinf(iv.hi) && std::fabs(t - iv.hi) < 2e-3)) {
        near_boundary = true;
      }
    }
    if (near_boundary) continue;
    EXPECT_EQ(hit.contains(t), want) << "t=" << t << " n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HullMembershipProperty,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(3, 5, 9, 14),
                                            ::testing::Values(1, 2)));


TEST(HullMembership, BreakdownUnionEqualsTotal) {
  Rng rng(71);
  MotionSystem sys = random_motion_system(rng, 8, 2, 1);
  Machine m = hull_membership_machine_mesh(sys);
  HullMembershipBreakdown br = hull_membership_breakdown(m, sys, 0);
  IntervalSet re = br.A0.unite(br.B0).unite(br.C0).unite(br.D0);
  for (double t = 0.03; t < 40; t = t * 1.3 + 0.02) {
    EXPECT_EQ(br.total.contains(t), re.contains(t)) << t;
  }
  // C0 means "all other points strictly below": then the query is topmost,
  // so it must be extreme.
  for (const Interval& iv : br.C0.intervals()) {
    EXPECT_TRUE(br.total.contains(iv.midpoint()));
  }
}

TEST(HullMembership, TrivialSystems) {
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory::fixed({1.0, 0.0}));
  MotionSystem sys(2, std::move(pts));
  Machine m = hull_membership_machine_mesh(sys);
  IntervalSet hit = hull_membership_intervals(m, sys, 0);
  EXPECT_TRUE(hit.contains(0.0));
  EXPECT_TRUE(hit.contains(1e6));
}

TEST(HullMembership, PointOvertakenByHull) {
  // Static square; query starts outside (clearly extreme) and drives deep
  // inside it.
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory({Polynomial({-10.0, 2.0}), Polynomial({0.1})}));
  pts.push_back(Trajectory::fixed({-1.0, -1.0}));
  pts.push_back(Trajectory::fixed({1.0, -1.0}));
  pts.push_back(Trajectory::fixed({1.0, 1.0}));
  pts.push_back(Trajectory::fixed({-1.0, 1.0}));
  MotionSystem sys(2, std::move(pts));
  Machine m = hull_membership_machine_mesh(sys);
  IntervalSet hit = hull_membership_intervals(m, sys, 0);
  // Outside for t < 4.5 (x < -1), inside for 4.5 < t < 5.55 (|x| < 1),
  // outside again after.
  EXPECT_TRUE(hit.contains(1.0));
  EXPECT_FALSE(hit.contains(5.0));
  EXPECT_TRUE(hit.contains(6.0));
}

}  // namespace
}  // namespace dyncg
