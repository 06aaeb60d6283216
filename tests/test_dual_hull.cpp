#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dyncg/motion.hpp"
#include "poly/rational_germ.hpp"
#include "serve/protocol.hpp"
#include "steady/dual_hull.hpp"
#include "steady/steady_state.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

TEST(RationalGerm, FieldAxiomsOnSamples) {
  RationalGerm t(Polynomial({0.0, 1.0}));
  RationalGerm one(1.0);
  RationalGerm half = one / (t + t);  // 1 / 2t
  EXPECT_EQ((half * (t + t)).sign(), 1);
  EXPECT_TRUE(half * (t + t) == one);
  EXPECT_TRUE((t - t).sign() == 0);
  EXPECT_TRUE(one / t < one);        // 1/t -> 0 < 1
  EXPECT_TRUE(RationalGerm(0.0) < one / t);  // but positive
  EXPECT_TRUE(t / (t * t) == one / t);
  // Ordering: t^2/t = t > c for any constant c.
  EXPECT_TRUE(RationalGerm(Polynomial({0.0, 0.0, 1.0})) / t > RationalGerm(1e9));
}

TEST(RationalGerm, NegativeDenominatorNormalized) {
  // (t) / (-t^2): eventually negative, equal to -1/t.
  RationalGerm g(Polynomial({0.0, 1.0}), Polynomial({0.0, 0.0, -1.0}));
  EXPECT_EQ(g.sign(), -1);
  RationalGerm minus_inv_t =
      RationalGerm(-1.0) / RationalGerm(Polynomial({0.0, 1.0}));
  EXPECT_TRUE(g == minus_inv_t);
}

TEST(RationalGerm, ValueAtMatchesArithmetic) {
  RationalGerm t(Polynomial({0.0, 1.0}));
  RationalGerm expr = (t * t + RationalGerm(3.0)) / (t + RationalGerm(1.0));
  double T = 10.0;
  EXPECT_NEAR(expr.value_at(T), (T * T + 3) / (T + 1), 1e-12);
}

// A random polynomial of the given degree (coefficients in [-2, 2]); with
// `tiny_lead` its leading coefficient is ~1e-7 of the rest, so the product
// of two such loses its leading term to the 1e-12 trim.
Polynomial random_poly(Rng& rng, int degree, bool tiny_lead) {
  std::vector<double> c(static_cast<std::size_t>(degree) + 1);
  for (double& x : c) x = rng.uniform(-2, 2);
  if (tiny_lead) c.back() = (rng.uniform(0, 1) < 0.5 ? -1e-7 : 1e-7);
  if (c.back() == 0.0) c.back() = 1.0;
  return Polynomial(std::move(c));
}

// Degrees up to twice the protocol's motion degree; one numerator in ten is
// zero.  Leading coefficients take either sign, so half the denominators
// arrive negative and the constructor flips them.
RationalGerm random_germ(Rng& rng) {
  const int top = 2 * serve::kMaxDegree;
  const int num_degree = rng.uniform_int(0, top);
  const int den_degree = rng.uniform_int(0, top);
  const bool zero_num = rng.uniform(0, 1) < 0.1;
  Polynomial num = zero_num ? Polynomial()
                            : random_poly(rng, num_degree,
                                          rng.uniform(0, 1) < 0.3);
  Polynomial den = random_poly(rng, den_degree, rng.uniform(0, 1) < 0.4);
  return RationalGerm(std::move(num), std::move(den));
}

// operator< and operator== take the sign of the difference in place; they
// must agree with the difference germ operator- builds, on every input the
// trims and the denominator flip make delicate: products whose leading
// term the trim drops, denominator products whose kept leading coefficient
// is negative, zero numerators, equal germs, and products too long for the
// comparison's stack buffer.
TEST(RationalGerm, InPlaceSignMatchesDifferenceGerm) {
  // Each product is trimmed before the difference: in (1 + 1e-7 t) -
  // (1 + 2e-7 t) / (1 + 1e-7 t) the product (1 + 1e-7 t)^2 loses its
  // 1e-14 t^2, and what is left cancels exactly.
  const RationalGerm p(Polynomial({1.0, 1e-7}));
  const RationalGerm q(Polynomial({1.0, 2e-7}), Polynomial({1.0, 1e-7}));
  EXPECT_EQ((p - q).sign(), 0);
  EXPECT_TRUE(p == q);
  EXPECT_FALSE(p < q);
  EXPECT_FALSE(q < p);

  Rng rng(2718);
  int zero_nums = 0, trimmed_leads = 0, negative_dens = 0, max_degree = 0;
  int equal = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    RationalGerm a = random_germ(rng);
    RationalGerm b = trial % 16 == 0 ? a : random_germ(rng);
    if (trial % 16 == 1) {
      // Same value, other spelling: products that nearly cancel.
      b = RationalGerm(a.num() * Polynomial({0.5, 3.0}),
                       a.den() * Polynomial({0.5, 3.0}));
    }
    const int want = (a - b).sign();
    ASSERT_EQ(a < b, want < 0) << "trial " << trial;
    ASSERT_EQ(a == b, want == 0) << "trial " << trial;
    ASSERT_EQ(b < a, (b - a).sign() < 0) << "trial " << trial;
    ASSERT_EQ(a > b, (b - a).sign() < 0) << "trial " << trial;
    zero_nums += a.num().is_zero() ? 1 : 0;
    const Polynomial lead = a.num() * b.den();
    if (!lead.is_zero() &&
        lead.degree() < a.num().degree() + b.den().degree()) {
      ++trimmed_leads;
    }
    negative_dens += (a.den() * b.den()).sign_at_infinity() < 0 ? 1 : 0;
    max_degree = std::max({max_degree, a.num().degree(), a.den().degree()});
    equal += want == 0 ? 1 : 0;
  }
  // The inputs reach every case named above.
  EXPECT_GT(zero_nums, 100);
  EXPECT_GT(trimmed_leads, 100);
  EXPECT_GT(negative_dens, 10);
  EXPECT_EQ(max_degree, 2 * serve::kMaxDegree);
  EXPECT_GT(equal, 1000);
}

std::vector<Point2<double>> random_points(Rng& rng, std::size_t n) {
  std::vector<Point2<double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Point2<double>{rng.uniform(-10, 10), rng.uniform(-10, 10), i});
  }
  return pts;
}

// The dual-envelope hull over doubles must match the serial monotone chain
// exactly, across sizes and on both machines.
class DualHullProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DualHullProperty, MatchesSerialHull) {
  auto [which, seed] = GetParam();
  Rng rng(700 + static_cast<std::uint64_t>(seed));
  std::size_t n = 3 + static_cast<std::size_t>(seed) * 5;
  auto pts = random_points(rng, n);
  Machine m = which == 0 ? Machine::mesh_for(n) : Machine::hypercube_for(n);
  auto hull = machine_hull_dual(m, pts);
  auto want = convex_hull(pts);
  ASSERT_EQ(hull.size(), want.size()) << "n=" << n;
  for (std::size_t i = 0; i < hull.size(); ++i) {
    EXPECT_EQ(hull[i].id, want[i].id) << "vertex " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DualHullProperty,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Range(0, 12)));

TEST(DualHull, DegenerateInputs) {
  // All collinear.
  std::vector<Point2<double>> line{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
  Machine m = Machine::mesh_for(4);
  auto hull = machine_hull_dual(m, line);
  ASSERT_EQ(hull.size(), 2u);
  EXPECT_EQ(hull[0].id, 0u);
  EXPECT_EQ(hull[1].id, 3u);
  // Two points.
  std::vector<Point2<double>> two{{0, 0, 7}, {1, 0, 9}};
  Machine m2 = Machine::mesh_for(2);
  auto h2 = machine_hull_dual(m2, two);
  EXPECT_EQ(h2.size(), 2u);
  // Vertical line of points.
  std::vector<Point2<double>> vert{{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 5, 3}};
  Machine m3 = Machine::mesh_for(4);
  auto h3 = machine_hull_dual(m3, vert);
  ASSERT_EQ(h3.size(), 2u);
}

TEST(DualHull, CostIsSortGradeOnBothMachines) {
  // The dual hull must stay Theta(sqrt(n)) / Theta(log^2 n) — this is the
  // property that closes the Table 3 hull gap.
  std::vector<double> mesh_norm, cube_norm;
  for (std::size_t n : {64u, 256u, 1024u}) {
    Rng rng(n);
    auto pts = random_points(rng, n);
    Machine mm = Machine::mesh_for(n);
    CostMeter m1(mm.ledger());
    machine_hull_dual(mm, pts);
    mesh_norm.push_back(static_cast<double>(m1.elapsed().rounds) /
                        std::sqrt(static_cast<double>(mm.size())));
    Machine mc = Machine::hypercube_for(n);
    CostMeter m2(mc.ledger());
    machine_hull_dual(mc, pts);
    double lg = std::log2(static_cast<double>(mc.size()));
    cube_norm.push_back(static_cast<double>(m2.elapsed().rounds) / (lg * lg));
  }
  for (std::size_t i = 1; i < mesh_norm.size(); ++i) {
    EXPECT_LT(std::abs(mesh_norm[i] - mesh_norm[i - 1]) / mesh_norm[i - 1], 0.4);
    EXPECT_LT(std::abs(cube_norm[i] - cube_norm[i - 1]) / cube_norm[i - 1], 0.4);
  }
}

// Steady-state hull on the machine over germ coordinates: must match the
// serial Lemma 5.1 reduction.
class GermDualHullProperty : public ::testing::TestWithParam<int> {};

TEST_P(GermDualHullProperty, MatchesSerialSteadyHull) {
  Rng rng(800 + static_cast<std::uint64_t>(GetParam()));
  std::size_t n = 5 + static_cast<std::size_t>(GetParam()) * 3;
  MotionSystem sys = GetParam() % 2 == 0
                         ? diverging_motion_system(rng, n, 1)
                         : random_motion_system(rng, n, 2, 2);
  Machine m = Machine::hypercube_for(n);
  auto hull = machine_hull_dual(m, germ_field_points(sys));
  std::vector<std::size_t> got;
  for (const auto& p : hull) got.push_back(p.id);
  auto want = steady_hull_ids(sys);
  ASSERT_EQ(got.size(), want.size());
  // Same cyclic ccw order.
  auto it = std::find(got.begin(), got.end(), want[0]);
  ASSERT_NE(it, got.end());
  std::rotate(got.begin(), it, got.end());
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GermDualHullProperty, ::testing::Range(0, 12));

TEST(DualHull, WorstCaseCircleAllVerticesOnHull) {
  std::size_t n = 64;
  std::vector<Point2<double>> pts;
  for (std::size_t i = 0; i < n; ++i) {
    double a = 2 * M_PI * static_cast<double>(i) / static_cast<double>(n);
    pts.push_back(Point2<double>{std::cos(a), std::sin(a), i});
  }
  Machine m = Machine::mesh_for(n);
  auto hull = machine_hull_dual(m, pts);
  EXPECT_EQ(hull.size(), n);
}

TEST(LineEnvelope, MatchesPointwiseMinimum) {
  Rng rng(44);
  std::size_t n = 20;
  std::vector<RationalGerm> s, c;
  std::vector<double> sd, cd;
  for (std::size_t i = 0; i < n; ++i) {
    double si = rng.uniform(-3, 3), ci = rng.uniform(-5, 5);
    s.push_back(RationalGerm(si));
    c.push_back(RationalGerm(ci));
    sd.push_back(si);
    cd.push_back(ci);
  }
  Machine m = Machine::hypercube_for(n);
  auto env = machine_line_envelope(m, s, c, /*take_min=*/true);
  // At sample points, the envelope piece must realize the minimum.
  for (double u = -20; u <= 20; u += 0.63) {
    // Find the covering piece.
    const LinePiece<RationalGerm>* active = nullptr;
    for (const auto& piece : env) {
      bool lo_ok = piece.lo_inf || piece.lo.value_at(1e6) <= u + 1e-9;
      bool hi_ok = piece.hi_inf || u <= piece.hi.value_at(1e6) + 1e-9;
      if (lo_ok && hi_ok) {
        active = &piece;
        break;
      }
    }
    ASSERT_NE(active, nullptr) << "u=" << u;
    double got = cd[static_cast<std::size_t>(active->id)] +
                 sd[static_cast<std::size_t>(active->id)] * u;
    double want = kInfinity;
    for (std::size_t i = 0; i < n; ++i) want = std::min(want, cd[i] + sd[i] * u);
    EXPECT_NEAR(got, want, 1e-9) << "u=" << u;
  }
}

}  // namespace
}  // namespace dyncg
