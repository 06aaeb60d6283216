#include <gtest/gtest.h>

#include <cmath>

#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/proximity.hpp"
#include "envelope/parallel_envelope.hpp"
#include "pieces/envelope_serial.hpp"
#include "poly/rational_germ.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

// --- AngleFamily unit behaviour ---------------------------------------------

MotionSystem small_planar(Rng& rng, std::size_t n, int k) {
  return random_motion_system(rng, n, 2, k);
}

TEST(AngleFamily, ValuesMatchAtan2) {
  Rng rng(3);
  MotionSystem sys = small_planar(rng, 5, 2);
  RelativeMotion rel = RelativeMotion::around(sys, 0);
  AngleFamily g(&rel, true), b(&rel, false);
  for (std::size_t j = 0; j < rel.dx.size(); ++j) {
    for (double t : {0.1, 1.7, 5.3, 20.0}) {
      double want = std::atan2(rel.dy[j](t), rel.dx[j](t));
      EXPECT_NEAR(g.value(static_cast<int>(j), t), want, 1e-12);
      EXPECT_NEAR(b.value(static_cast<int>(j), t), want, 1e-12);
    }
  }
}

TEST(AngleFamily, DefinedIntervalsPartitionByDySign) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    MotionSystem sys = small_planar(rng, 6, 2);
    RelativeMotion rel = RelativeMotion::around(sys, 0);
    AngleFamily g(&rel, true), b(&rel, false);
    for (std::size_t j = 0; j < rel.dx.size(); ++j) {
      IntervalSet gset(g.defined_intervals(static_cast<int>(j)));
      IntervalSet bset(b.defined_intervals(static_cast<int>(j)));
      for (double t = 0.037; t < 40; t = t * 1.37 + 0.011) {
        double dy = rel.dy[j](t);
        if (std::fabs(dy) < 1e-6) continue;  // too close to a transition
        EXPECT_EQ(gset.contains(t), dy > 0) << "j=" << j << " t=" << t;
        EXPECT_EQ(bset.contains(t), dy < 0) << "j=" << j << " t=" << t;
      }
    }
  }
}

TEST(AngleFamily, CrossingsAreTrueAngleEqualities) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    MotionSystem sys = small_planar(rng, 5, 2);
    RelativeMotion rel = RelativeMotion::around(sys, 0);
    AngleFamily g(&rel, true);
    std::vector<double> xs;
    for (int a = 0; a < static_cast<int>(g.size()); ++a) {
      for (int b = a + 1; b < static_cast<int>(g.size()); ++b) {
        g.crossings_into(a, b, Interval{0.0, kInfinity}, xs);
        for (double t : xs) {
          double ta = g.value(a, t), tb = g.value(b, t);
          // Angles equal mod 2pi with the same orientation.
          double diff = std::remainder(ta - tb, 2 * M_PI);
          EXPECT_NEAR(diff, 0.0, 1e-5) << "a=" << a << " b=" << b << " t=" << t;
        }
      }
    }
  }
}

// Theorem 3.4 property: partial envelope value equals the pointwise min
// over defined members, and its support is the union of member supports.
class PartialEnvelopeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PartialEnvelopeProperty, MatchesPointwiseMinOverDefined) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  MotionSystem sys = small_planar(rng, 4 + GetParam() % 5, 1 + GetParam() % 2);
  RelativeMotion rel = RelativeMotion::around(sys, 0);
  AngleFamily g(&rel, true);
  Machine m = hull_membership_machine_hypercube(sys);
  int s_bound = 4 * std::max(1, sys.motion_degree());
  PiecewiseFn a0 = parallel_envelope(m, g, s_bound, /*take_min=*/true);
  for (double t = 0.041; t < 40; t = t * 1.29 + 0.013) {
    // Oracle: min angle over defined members.
    bool any = false;
    double want = 0;
    bool skip = false;
    for (std::size_t j = 0; j < g.size(); ++j) {
      double dy = rel.dy[j](t);
      if (std::fabs(dy) < 1e-6) skip = true;  // near a transition
      if (dy >= 0) {
        double v = g.value(static_cast<int>(j), t);
        if (!any || v < want) want = v;
        any = true;
      }
    }
    if (skip) continue;
    int id = a0.id_at(t);
    if (!any) {
      EXPECT_EQ(id, -1) << "t=" << t;
    } else {
      ASSERT_GE(id, 0) << "t=" << t;
      EXPECT_NEAR(g.value(id, t), want, 1e-6) << "t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartialEnvelopeProperty,
                         ::testing::Range(0, 14));

// --- static (k = 0) systems through the Section 4 machinery -----------------

TEST(StaticSystems, NeighborSequenceHasOnePiece) {
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory::fixed({1.0, 0.0}));
  pts.push_back(Trajectory::fixed({5.0, 5.0}));
  MotionSystem sys(2, std::move(pts));
  EXPECT_EQ(sys.motion_degree(), 0);
  Machine m = proximity_machine_mesh(sys);
  NeighborSequence seq = neighbor_sequence(m, sys, 0);
  ASSERT_EQ(seq.epochs.size(), 1u);
  EXPECT_EQ(seq.epochs[0].neighbor, 1u);
}

TEST(StaticSystems, NoCollisionsAndConstantSpread) {
  std::vector<Trajectory> pts;
  for (double x : {0.0, 1.0, 4.0, 9.0}) {
    pts.push_back(Trajectory::fixed({x, 2 * x}));
  }
  MotionSystem sys(2, std::move(pts));
  Machine m1 = collision_machine_mesh(sys);
  EXPECT_TRUE(collision_times(m1, sys, 0).events.empty());
  Machine m2 = containment_machine_mesh(sys);
  PiecewisePoly edge = enclosing_cube_edge(m2, sys);
  EXPECT_EQ(edge.piece_count(), 1u);
  EXPECT_DOUBLE_EQ(edge(0.0), 18.0);
  EXPECT_DOUBLE_EQ(edge(100.0), 18.0);
}

TEST(StaticSystems, HullMembershipConstant) {
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));   // inside
  pts.push_back(Trajectory::fixed({-2.0, -2.0}));
  pts.push_back(Trajectory::fixed({2.0, -2.0}));
  pts.push_back(Trajectory::fixed({2.0, 2.0}));
  pts.push_back(Trajectory::fixed({-2.0, 2.0}));
  MotionSystem sys(2, std::move(pts));
  Machine m = hull_membership_machine_mesh(sys);
  IntervalSet hit = hull_membership_intervals(m, sys, 0);
  EXPECT_TRUE(hit.empty());
  Machine m2 = hull_membership_machine_mesh(sys);
  IntervalSet corner = hull_membership_intervals(m2, sys, 1);
  EXPECT_TRUE(corner.contains(0.0));
  EXPECT_TRUE(corner.contains(1e6));
}

// --- failure injection -------------------------------------------------------
//
// Input validation is recoverable (support/status.hpp): the try_ variants
// return a typed Status the driver can report without dying.  The plain
// variants keep the historical abort contract, pinned by the two death
// tests at the end; the Status codes themselves are exercised exhaustively
// in tests/test_faults.cpp.

TEST(FailureInjection, MachineTooSmallIsFailedPrecondition) {
  Rng rng(1);
  MotionSystem sys = random_motion_system(rng, 9, 2, 1);
  Machine tiny = Machine::hypercube_for(2);
  StatusOr<NeighborSequence> got = try_neighbor_sequence(tiny, sys, 0);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("machine smaller"), std::string::npos);
}

TEST(FailureInjection, HullMembershipRequiresPlane) {
  Rng rng(2);
  MotionSystem sys3d = random_motion_system(rng, 4, 3, 1);
  Machine m = Machine::mesh_for(16);
  StatusOr<IntervalSet> got = try_hull_membership_intervals(m, sys3d, 0);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(got.status().message().find("planar"), std::string::npos);
}

TEST(FailureInjection, GermDivisionByZeroIsInvalidArgument) {
  RationalGerm one(1.0);
  RationalGerm zero(0.0);
  StatusOr<RationalGerm> got = one.try_divide(zero);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("division by the zero germ"),
            std::string::npos);
}

TEST(FailureInjection, ContainmentDimensionCountChecked) {
  Rng rng(3);
  MotionSystem sys = random_motion_system(rng, 4, 2, 1);
  Machine m = containment_machine_mesh(sys);
  StatusOr<IntervalSet> got =
      try_containment_intervals(m, sys, {1.0});  // one dim for a 2-D system
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("one rectangle dimension per coordinate"),
            std::string::npos);
}

// The plain (non-try_) variants still abort loudly on bad input.
TEST(FailureInjection, PlainVariantsStillAbort) {
  Rng rng(1);
  MotionSystem sys = random_motion_system(rng, 9, 2, 1);
  EXPECT_DEATH(
      {
        Machine tiny = Machine::hypercube_for(2);
        neighbor_sequence(tiny, sys, 0);
      },
      "machine smaller");
}

TEST(FailureInjection, DimensionMismatchAborts) {
  EXPECT_DEATH(
      {
        Trajectory a({Polynomial({0.0})});
        Trajectory b({Polynomial({0.0}), Polynomial({1.0})});
        a.distance_squared(b);
      },
      "dimension");
}

// --- numerical stress ---------------------------------------------------------

TEST(NumericalStress, HighDegreeMotion) {
  Rng rng(9);
  MotionSystem sys = random_motion_system(rng, 5, 2, 5);  // k = 5
  Machine m = proximity_machine_hypercube(sys);
  NeighborSequence seq = neighbor_sequence(m, sys, 0);
  for (double t = 0.11; t < 30; t *= 1.9) {
    std::size_t got = seq.neighbor_at(t);
    std::size_t want = brute_force_neighbor(sys, 0, t, false);
    double dg = sys.point(0).distance_squared(sys.point(got))(t);
    double dw = sys.point(0).distance_squared(sys.point(want))(t);
    EXPECT_NEAR(dg, dw, 1e-5 * (1 + dw)) << "t=" << t;
  }
}

TEST(NumericalStress, WidelySeparatedScales) {
  // Coefficients spanning six orders of magnitude.
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory({Polynomial({0.0, 1e-3}), Polynomial({0.0})}));
  pts.push_back(Trajectory({Polynomial({1e3, -1.0}), Polynomial({2.0})}));
  pts.push_back(Trajectory({Polynomial({-5.0, 1e2}), Polynomial({1e-2})}));
  MotionSystem sys(2, std::move(pts));
  Machine m = proximity_machine_mesh(sys);
  NeighborSequence seq = neighbor_sequence(m, sys, 0);
  ASSERT_FALSE(seq.epochs.empty());
  for (double t : {0.5, 5.0, 50.0}) {
    std::size_t got = seq.neighbor_at(t);
    std::size_t want = brute_force_neighbor(sys, 0, t, false);
    double dg = sys.point(0).distance_squared(sys.point(got))(t);
    double dw = sys.point(0).distance_squared(sys.point(want))(t);
    EXPECT_LE(dg, dw * (1 + 1e-6));
  }
}

}  // namespace
}  // namespace dyncg
