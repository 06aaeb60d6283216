#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>

#include "dyncg/motion.hpp"
#include "dyncg/proximity.hpp"
#include "steady/machine_geometry.hpp"
#include "steady/static_geometry.hpp"
#include "steady/steady_state.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

std::vector<Point2<double>> random_points(Rng& rng, std::size_t n,
                                          double span = 10.0) {
  std::vector<Point2<double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(
        Point2<double>{rng.uniform(-span, span), rng.uniform(-span, span), i});
  }
  return pts;
}

bool is_ccw_convex(const std::vector<Point2<double>>& hull) {
  std::size_t h = hull.size();
  if (h < 3) return true;
  for (std::size_t i = 0; i < h; ++i) {
    if (orientation(hull[i], hull[(i + 1) % h], hull[(i + 2) % h]) <= 0) {
      return false;
    }
  }
  return true;
}

bool inside_hull(const std::vector<Point2<double>>& hull,
                 const Point2<double>& p) {
  std::size_t h = hull.size();
  for (std::size_t i = 0; i < h; ++i) {
    if (orientation(hull[i], hull[(i + 1) % h], p) < 0) return false;
  }
  return true;
}

// --- generic static geometry -------------------------------------------------

TEST(StaticHull, SquareWithInteriorPoints) {
  std::vector<Point2<double>> pts{{0, 0, 0}, {2, 0, 1}, {2, 2, 2}, {0, 2, 3},
                                  {1, 1, 4}, {0.5, 1.5, 5}};
  auto hull = convex_hull(pts);
  ASSERT_EQ(hull.size(), 4u);
  EXPECT_TRUE(is_ccw_convex(hull));
  for (const auto& p : pts) EXPECT_TRUE(inside_hull(hull, p));
}

TEST(StaticHull, CollinearPointsDropped) {
  std::vector<Point2<double>> pts{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 0, 3}};
  auto hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 3u);
}

class StaticHullProperty : public ::testing::TestWithParam<int> {};

TEST_P(StaticHullProperty, ContainsAllPointsAndIsConvex) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto pts = random_points(rng, static_cast<std::size_t>(5 + GetParam() * 3));
  auto hull = convex_hull(pts);
  EXPECT_TRUE(is_ccw_convex(hull));
  for (const auto& p : pts) EXPECT_TRUE(inside_hull(hull, p));
}

INSTANTIATE_TEST_SUITE_P(Sweep, StaticHullProperty, ::testing::Range(0, 15));

class ClosestPairProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosestPairProperty, MatchesBruteForce) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  auto pts = random_points(rng, static_cast<std::size_t>(4 + GetParam() * 5));
  auto got = closest_pair(pts);
  double want = kInfinity;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      want = std::min(want, dist2(pts[i], pts[j]));
    }
  }
  EXPECT_NEAR(got.d2, want, 1e-9);
  EXPECT_NEAR(dist2(pts[got.a], pts[got.b]), want, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosestPairProperty, ::testing::Range(0, 15));

class FarthestPairProperty : public ::testing::TestWithParam<int> {};

TEST_P(FarthestPairProperty, MatchesBruteForce) {
  Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  auto pts = random_points(rng, static_cast<std::size_t>(4 + GetParam() * 4));
  auto got = farthest_pair(pts);
  double want = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      want = std::max(want, dist2(pts[i], pts[j]));
    }
  }
  EXPECT_NEAR(got.d2, want, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FarthestPairProperty, ::testing::Range(0, 15));

TEST(AntipodalPairs, SquareHasCrossDiagonals) {
  std::vector<Point2<double>> hull{{0, 0, 0}, {1, 0, 1}, {1, 1, 2}, {0, 1, 3}};
  auto pairs = antipodal_pairs(hull);
  auto has = [&pairs](std::size_t a, std::size_t b) {
    return std::any_of(pairs.begin(), pairs.end(), [&](auto pr) {
      return (pr.first == a && pr.second == b) ||
             (pr.first == b && pr.second == a);
    });
  };
  EXPECT_TRUE(has(0, 2));
  EXPECT_TRUE(has(1, 3));
}

class RectangleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RectangleProperty, MatchesRotatingScanOracle) {
  Rng rng(300 + static_cast<std::uint64_t>(GetParam()));
  auto pts = random_points(rng, static_cast<std::size_t>(6 + GetParam() * 3));
  auto hull = convex_hull(pts);
  if (hull.size() < 3) GTEST_SKIP();
  auto rect = min_enclosing_rectangle(hull);
  double got = rectangle_area(rect);
  // Oracle: dense rotation scan of the enclosing-box area.
  double best = kInfinity;
  for (double th = 0; th < M_PI / 2; th += 1e-4) {
    double c = std::cos(th), s = std::sin(th);
    double ulo = kInfinity, uhi = -kInfinity, vlo = kInfinity, vhi = -kInfinity;
    for (const auto& p : hull) {
      double u = c * p.x + s * p.y, v = -s * p.x + c * p.y;
      ulo = std::min(ulo, u);
      uhi = std::max(uhi, u);
      vlo = std::min(vlo, v);
      vhi = std::max(vhi, v);
    }
    best = std::min(best, (uhi - ulo) * (vhi - vlo));
  }
  // The scan is a restriction to sampled angles, so it upper-bounds the
  // true (flush-edge) optimum; the two agree to scan granularity.
  EXPECT_LE(got, best + 1e-9);
  EXPECT_GE(got, best - 1e-2 * best);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RectangleProperty, ::testing::Range(0, 12));

// --- steady state (germ coordinates) ----------------------------------------

TEST(Steady, NeighborMatchesLateSnapshot) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    MotionSystem sys = random_motion_system(rng, 9, 2, 2);
    std::size_t got = steady_neighbor(sys, 0);
    // Oracle: brute force at a very late time.
    double T = 1e5;
    double bd = kInfinity;
    for (std::size_t j = 1; j < sys.size(); ++j) {
      bd = std::min(bd, sys.point(0).distance_squared(sys.point(j))(T));
    }
    double dg = sys.point(0).distance_squared(sys.point(got))(T);
    EXPECT_LE(dg, bd * (1 + 1e-6)) << "trial " << trial;
  }
}

TEST(Steady, ClosestAndFarthestPairMatchLateSnapshot) {
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    MotionSystem sys = random_motion_system(rng, 8, 2, 1);
    double T = 1e5;
    auto snap = snapshot_points(sys, T);
    auto want_close = closest_pair(snap);
    auto got_close = steady_closest_pair(sys);
    double dg = sys.point(got_close.a).distance_squared(
        sys.point(got_close.b))(T);
    EXPECT_LE(dg, want_close.d2 * (1 + 1e-6));

    auto want_far = farthest_pair(snap);
    auto got_far = steady_farthest_pair(sys);
    double fg =
        sys.point(got_far.a).distance_squared(sys.point(got_far.b))(T);
    EXPECT_GE(fg, want_far.d2 * (1 - 1e-6));
  }
}

TEST(Steady, HullMatchesLateSnapshot) {
  Rng rng(27);
  for (int trial = 0; trial < 8; ++trial) {
    MotionSystem sys = diverging_motion_system(rng, 10, 1);
    auto ids = steady_hull_ids(sys);
    auto snap = snapshot_points(sys, 1e6);
    auto want = convex_hull(snap);
    std::vector<std::size_t> want_ids;
    for (const auto& p : want) want_ids.push_back(p.id);
    std::sort(want_ids.begin(), want_ids.end());
    std::vector<std::size_t> got_ids = ids;
    std::sort(got_ids.begin(), got_ids.end());
    EXPECT_EQ(got_ids, want_ids) << "trial " << trial;
  }
}


TEST(Steady, HullVertexQueryMatchesHullIds) {
  Rng rng(59);
  for (int trial = 0; trial < 6; ++trial) {
    MotionSystem sys = diverging_motion_system(rng, 9, 1);
    auto ids = steady_hull_ids(sys);
    for (std::size_t q = 0; q < sys.size(); ++q) {
      bool in = std::find(ids.begin(), ids.end(), q) != ids.end();
      EXPECT_EQ(steady_is_hull_vertex(sys, q), in) << "q=" << q;
    }
  }
}

TEST(Steady, DiameterFunctionIsEventualMax) {
  Rng rng(37);
  MotionSystem sys = random_motion_system(rng, 7, 2, 2);
  Polynomial diam = steady_diameter_squared(sys);
  double T = 1e5;
  for (std::size_t i = 0; i < sys.size(); ++i) {
    for (std::size_t j = i + 1; j < sys.size(); ++j) {
      EXPECT_LE(sys.point(i).distance_squared(sys.point(j))(T),
                diam(T) * (1 + 1e-6));
    }
  }
}

TEST(Steady, MinRectangleMatchesLateSnapshot) {
  Rng rng(47);
  MotionSystem sys = diverging_motion_system(rng, 9, 1);
  SteadyRectangle rect = steady_min_rectangle(sys);
  // Evaluate the germ area at a late time and compare with the snapshot
  // optimum.
  double T = 1e4;
  double got_area = rect.area.value_at(T);
  auto snap = snapshot_points(sys, T);
  auto hull = convex_hull(snap);
  auto want = min_enclosing_rectangle(hull);
  EXPECT_NEAR(got_area, rectangle_area(want), 1e-3 * rectangle_area(want));
}


TEST(Steady, DiameterFunctionMatchesBruteForceBeyondHorizon) {
  Rng rng(53);
  for (int trial = 0; trial < 5; ++trial) {
    MotionSystem sys = diverging_motion_system(rng, 8, 1);
    DiameterFunction diam = steady_diameter_function(sys);
    for (double mult : {1.5, 4.0, 20.0}) {
      double t = (diam.valid_from + 1.0) * mult;
      double want = 0;
      for (std::size_t i = 0; i < sys.size(); ++i) {
        for (std::size_t j = i + 1; j < sys.size(); ++j) {
          want = std::max(want,
                          sys.point(i).distance_squared(sys.point(j))(t));
        }
      }
      EXPECT_NEAR(diam.squared(t), want, 1e-6 * want)
          << "trial " << trial << " t=" << t;
    }
  }
}

TEST(Steady, DiameterFunctionOfTwoPoints) {
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory({Polynomial({1.0, 1.0}), Polynomial({0.0})}));
  MotionSystem sys(2, std::move(pts));
  DiameterFunction diam = steady_diameter_function(sys);
  double t = diam.valid_from + 5.0;
  EXPECT_NEAR(diam.squared(t), (1 + t) * (1 + t), 1e-9);
}

// --- machine versions --------------------------------------------------------

class MachineHullDualProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MachineHullDualProperty, MatchesSerialHull) {
  auto [which, seed] = GetParam();
  Rng rng(400 + static_cast<std::uint64_t>(seed));
  std::size_t n = 5 + static_cast<std::size_t>(seed) * 4;
  auto pts = random_points(rng, n);
  Machine m = which == 0 ? Machine::mesh_for(n) : Machine::hypercube_for(n);
  auto ids = machine_hull_ids(m, pts);
  auto want = convex_hull(pts);
  ASSERT_EQ(ids.size(), want.size());
  // Same cyclic ccw sequence: rotate to align.
  std::vector<std::size_t> want_ids;
  for (const auto& p : want) want_ids.push_back(p.id);
  auto it = std::find(ids.begin(), ids.end(), want_ids[0]);
  ASSERT_NE(it, ids.end());
  std::rotate(ids.begin(), it, ids.end());
  EXPECT_EQ(ids, want_ids);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MachineHullDualProperty,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Range(0, 10)));

TEST(MachineHullDual, CostIsSortGrade) {
  // Table 4 hull rows: Theta(n^(1/2)) mesh / Theta(log^2 n) hypercube.
  std::vector<double> norm;
  for (std::size_t n : {64u, 256u, 1024u}) {
    Rng rng(n);
    auto pts = random_points(rng, n);
    Machine m = Machine::mesh_for(n);
    CostMeter meter(m.ledger());
    machine_hull_ids(m, pts);
    norm.push_back(static_cast<double>(meter.elapsed().rounds) /
                   std::sqrt(static_cast<double>(m.size())));
  }
  for (std::size_t i = 1; i < norm.size(); ++i) {
    EXPECT_LT(std::abs(norm[i] - norm[i - 1]) / norm[i - 1], 0.5);
  }
}

class MachineHullDcProperty : public ::testing::TestWithParam<int> {};

TEST_P(MachineHullDcProperty, MatchesSerialHullOnDoubles) {
  Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  std::size_t n = 4 + static_cast<std::size_t>(GetParam()) * 5;
  auto pts = random_points(rng, n);
  Machine m = Machine::hypercube_for(n);
  auto hull = machine_hull_dc(m, pts);
  auto want = convex_hull(pts);
  ASSERT_EQ(hull.size(), want.size());
  for (std::size_t i = 0; i < hull.size(); ++i) {
    EXPECT_EQ(hull[i].id, want[i].id) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MachineHullDcProperty, ::testing::Range(0, 12));

class MachineClosestPairProperty : public ::testing::TestWithParam<int> {};

TEST_P(MachineClosestPairProperty, MatchesBruteForce) {
  Rng rng(600 + static_cast<std::uint64_t>(GetParam()));
  std::size_t n = 4 + static_cast<std::size_t>(GetParam()) * 6;
  auto pts = random_points(rng, n);
  Machine m = Machine::mesh_for(n);
  auto got = machine_closest_pair(m, pts);
  double want = kInfinity;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      want = std::min(want, dist2(pts[i], pts[j]));
    }
  }
  EXPECT_NEAR(got.d2, want, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MachineClosestPairProperty,
                         ::testing::Range(0, 12));

TEST(MachineAntipodal, DiameterOnRandomInputs) {
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    std::size_t n = 6 + static_cast<std::size_t>(trial) * 4;
    auto pts = random_points(rng, n);
    Machine m = Machine::hypercube_for(n);
    auto got = machine_farthest_pair(m, pts);
    double want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        want = std::max(want, dist2(pts[i], pts[j]));
      }
    }
    EXPECT_NEAR(got.d2, want, 1e-9) << "trial " << trial;
  }
}

TEST(MachineRectangle, MatchesSerialOnRandomInputs) {
  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    std::size_t n = 8 + static_cast<std::size_t>(trial) * 3;
    auto pts = random_points(rng, n);
    auto hull = convex_hull(pts);
    if (hull.size() < 3) continue;
    Machine m = Machine::mesh_for(hull.size());
    auto got = machine_min_rectangle(m, hull);
    auto want = min_enclosing_rectangle(hull);
    EXPECT_NEAR(rectangle_area(got), rectangle_area(want),
                1e-6 * (1 + rectangle_area(want)))
        << "trial " << trial;
  }
}

TEST(MachineSteady, NeighborMatchesSerial) {
  Rng rng(81);
  for (int trial = 0; trial < 6; ++trial) {
    MotionSystem sys = random_motion_system(rng, 10, 2, 2);
    Machine m = Machine::hypercube_for(sys.size());
    std::size_t got = machine_steady_neighbor(m, sys, 0);
    std::size_t want = steady_neighbor(sys, 0);
    Polynomial dg = sys.point(0).distance_squared(sys.point(got));
    Polynomial dw = sys.point(0).distance_squared(sys.point(want));
    EXPECT_EQ(compare_at_infinity(dg, dw), 0) << "trial " << trial;
  }
}

TEST(MachineSteady, NeighborCostIsReduceGrade) {
  // Proposition 5.2: Theta(log n) hypercube.
  Rng rng(83);
  MotionSystem sys = random_motion_system(rng, 64, 2, 1);
  Machine m = Machine::hypercube_for(64);
  CostMeter meter(m.ledger());
  machine_steady_neighbor(m, sys, 0);
  EXPECT_LE(meter.elapsed().rounds, 6u * 8u);  // O(1) ladders of log n = 6
}


TEST(MachineSteady, NaiveTransientRouteAgreesButCostsMore) {
  // Section 5's opening comparison: the last piece of Theorem 4.1 gives the
  // steady NN, but at lambda-machine cost; Prop 5.2 does it with a single
  // broadcast + reduction.
  Rng rng(97);
  MotionSystem sys = random_motion_system(rng, 32, 2, 2);
  Machine fast = Machine::mesh_for(sys.size());
  CostMeter cf(fast.ledger());
  std::size_t direct = machine_steady_neighbor(fast, sys, 0);
  std::uint64_t fast_rounds = cf.elapsed().rounds;

  Machine big = proximity_machine_mesh(sys);
  CostMeter cb(big.ledger());
  std::size_t naive = machine_steady_neighbor_via_transient(big, sys, 0);
  std::uint64_t naive_rounds = cb.elapsed().rounds;

  Polynomial dd = sys.point(0).distance_squared(sys.point(direct));
  Polynomial dn = sys.point(0).distance_squared(sys.point(naive));
  EXPECT_EQ(compare_at_infinity(dd, dn), 0);
  EXPECT_LT(fast_rounds * 3, naive_rounds)
      << "direct " << fast_rounds << " vs naive " << naive_rounds;
}


TEST(MachineSteady, HullVertexQueryViaLemma44AtInfinity) {
  Rng rng(131);
  for (int trial = 0; trial < 10; ++trial) {
    MotionSystem sys = trial % 2 == 0 ? diverging_motion_system(rng, 9, 1)
                                      : random_motion_system(rng, 9, 2, 2);
    Machine m = Machine::hypercube_for(sys.size());
    for (std::size_t q = 0; q < sys.size(); ++q) {
      EXPECT_EQ(machine_steady_is_hull_vertex(m, sys, q),
                steady_is_hull_vertex(sys, q))
          << "trial " << trial << " q=" << q;
    }
  }
}

TEST(MachineSteady, HullVertexQueryIsReduceGrade) {
  // The Prop 5.4 remark promises an *optimal* solution: a handful of
  // ladders, not a hull construction.
  Rng rng(137);
  MotionSystem sys = diverging_motion_system(rng, 64, 1);
  Machine m = Machine::hypercube_for(64);
  CostMeter meter(m.ledger());
  machine_steady_is_hull_vertex(m, sys, 0);
  EXPECT_LE(meter.elapsed().rounds, 12u * 6u);  // O(1) ladders of log n
}

TEST(MachineSteady, PairsAndHullMatchSerial) {
  Rng rng(91);
  MotionSystem sys = diverging_motion_system(rng, 12, 1);
  Machine m1 = Machine::mesh_for(sys.size());
  auto close = machine_steady_closest_pair(m1, sys);
  auto want_close = steady_closest_pair(sys);
  EXPECT_TRUE(close.d2 == want_close.d2);

  Machine m2 = Machine::mesh_for(sys.size());
  auto hull_ids = machine_steady_hull_ids(m2, sys);
  auto want_hull = steady_hull_ids(sys);
  std::sort(hull_ids.begin(), hull_ids.end());
  std::sort(want_hull.begin(), want_hull.end());
  EXPECT_EQ(hull_ids, want_hull);

  Machine m3 = Machine::mesh_for(sys.size());
  auto far = machine_steady_farthest_pair(m3, sys);
  auto want_far = steady_farthest_pair(sys);
  EXPECT_TRUE(far.d2 == want_far.d2);

  Machine m4 = Machine::mesh_for(sys.size());
  auto rect = machine_steady_min_rectangle(m4, sys);
  auto want_rect = steady_min_rectangle(sys);
  double T = 1e4;
  EXPECT_NEAR(rect.area.value_at(T), want_rect.area.value_at(T), 1e-3);
}

// --- steady answers at the sizes the daemon serves ---------------------------

// servebench's cold_mix asks `steady` at n = 64, 128 and 256, on mesh and
// hypercube, over the protocol's steady generator.  At these sizes a
// combine that picked each cell's winner by evaluating both lines at a
// midpoint germ lost the sign to rounding and served hulls that repeat a
// vertex (in a 4,000-line seed-1 stream, 1 of 134 lines at n = 64, 7 of
// 133 at n = 128 and 45 of 133 at n = 256).  For every system, the
// hull's cyclic order, its distinct ids, the farthest pair and the minimum
// rectangle's edge must equal the serial Lemma 5.1 versions.
class SteadyServedSizes
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(SteadyServedSizes, MatchSerialLemma51) {
  const auto [which, n] = GetParam();
  auto make_machine = [which, n = n] {
    return which == 0 ? Machine::mesh_for(n) : Machine::hypercube_for(n);
  };
  for (std::uint64_t s = 0; s < 60; ++s) {
    Rng rng(1'000'000 * static_cast<std::uint64_t>(which + 1) + 1000 * n + s);
    MotionSystem sys = diverging_motion_system(rng, n, 2);
    SCOPED_TRACE("system " + std::to_string(s));

    Machine m = make_machine();
    const std::vector<Point2<RationalGerm>> hull = machine_steady_hull(m, sys);
    const ClosestPairResult<AsymptoticPoly> far =
        machine_steady_farthest_pair(m, sys, hull);
    std::vector<std::size_t> ids;
    for (const auto& p : hull) ids.push_back(p.id);
    std::vector<std::size_t> distinct = ids;
    std::sort(distinct.begin(), distinct.end());
    EXPECT_EQ(std::adjacent_find(distinct.begin(), distinct.end()),
              distinct.end())
        << "a hull vertex repeats";
    const std::vector<std::size_t> want = steady_hull_ids(sys);
    auto first = std::find(ids.begin(), ids.end(), want.front());
    if (first != ids.end()) std::rotate(ids.begin(), first, ids.end());
    EXPECT_EQ(ids, want);

    const ClosestPairResult<AsymptoticPoly> want_far = steady_farthest_pair(sys);
    EXPECT_EQ(std::minmax(far.a, far.b), std::minmax(want_far.a, want_far.b));

    Machine m2 = make_machine();
    const SteadyRectangle rect = machine_steady_min_rectangle(m2, sys);
    const SteadyRectangle want_rect = steady_min_rectangle(sys);
    EXPECT_EQ(rect.edge_from, want_rect.edge_from);
    EXPECT_EQ(rect.edge_to, want_rect.edge_to);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshAndHypercube, SteadyServedSizes,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(std::size_t{64}, std::size_t{128},
                                         std::size_t{256})));

// At 2048 PEs the hull's bitonic sort fans its germ comparisons out over
// the host pool (under DYNCG_THREADS > 1), so this is the case the tsan
// preset checks for comparisons sharing state.
TEST(MachineSteady, HullOnAThreadedSortMatchesSerial) {
  Rng rng(2048);
  MotionSystem sys = diverging_motion_system(rng, 2048, 2);
  Machine m = Machine::hypercube_for(sys.size());
  std::vector<std::size_t> ids = machine_steady_hull_ids(m, sys);
  const std::vector<std::size_t> want = steady_hull_ids(sys);
  auto first = std::find(ids.begin(), ids.end(), want.front());
  if (first != ids.end()) std::rotate(ids.begin(), first, ids.end());
  EXPECT_EQ(ids, want);
}

}  // namespace
}  // namespace dyncg
