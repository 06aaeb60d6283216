#include <gtest/gtest.h>

#include <cmath>

#include "poly/asymptotic.hpp"
#include "poly/polynomial.hpp"
#include "poly/roots.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

TEST(Polynomial, BasicArithmetic) {
  Polynomial p({1.0, 2.0});        // 1 + 2t
  Polynomial q({0.0, 0.0, 3.0});   // 3t^2
  EXPECT_EQ((p + q).degree(), 2);
  EXPECT_DOUBLE_EQ((p + q)(2.0), 1 + 4 + 12);
  EXPECT_DOUBLE_EQ((p - q)(2.0), 1 + 4 - 12);
  EXPECT_DOUBLE_EQ((p * q)(2.0), 5.0 * 12.0);
  EXPECT_DOUBLE_EQ((p * 2.0)(1.5), 2 * (1 + 3));
  EXPECT_EQ((-p)(3.0), -7.0);
}

TEST(Polynomial, ZeroHandling) {
  Polynomial z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.degree(), -1);
  EXPECT_EQ(z.sign_at_infinity(), 0);
  Polynomial p({1.0});
  EXPECT_TRUE((p - p).is_zero());
  EXPECT_TRUE((p * z).is_zero());
  EXPECT_EQ(Polynomial({0.0, 0.0}).degree(), -1);
}

TEST(Polynomial, DegreeTrimming) {
  // A cancellation that leaves a tiny leading coefficient must trim.
  Polynomial a({0.0, 1.0, 1.0});
  Polynomial b({0.0, 0.0, 1.0});
  EXPECT_EQ((a - b).degree(), 1);
}

TEST(Polynomial, Derivative) {
  Polynomial p({5.0, 3.0, 2.0, 1.0});  // 5 + 3t + 2t^2 + t^3
  Polynomial d = p.derivative();
  EXPECT_EQ(d.degree(), 2);
  EXPECT_DOUBLE_EQ(d(2.0), 3 + 8 + 12);
  EXPECT_TRUE(Polynomial::constant(4.0).derivative().is_zero());
}

TEST(Polynomial, FromRoots) {
  Polynomial p = Polynomial::from_roots({1.0, 2.0, 3.0});
  EXPECT_EQ(p.degree(), 3);
  for (double r : {1.0, 2.0, 3.0}) EXPECT_NEAR(p(r), 0.0, 1e-12);
  EXPECT_GT(p(4.0), 0.0);
}

TEST(Polynomial, SignAtInfinityAndCompare) {
  EXPECT_EQ(Polynomial({0.0, -2.0}).sign_at_infinity(), -1);
  EXPECT_EQ(Polynomial({9.0, 0.0, 0.5}).sign_at_infinity(), 1);
  // Lemma 5.1: f = t beats g = 100 eventually.
  Polynomial f({0.0, 1.0}), g({100.0});
  EXPECT_EQ(compare_at_infinity(f, g), 1);
  EXPECT_EQ(compare_at_infinity(g, f), -1);
  EXPECT_EQ(compare_at_infinity(f, f), 0);
  // Same degree: leading coefficient decides.
  EXPECT_EQ(compare_at_infinity(Polynomial({5.0, 1.0}),
                                Polynomial({-5.0, 2.0})),
            -1);
  // Same leading term: next coefficient decides.
  EXPECT_EQ(compare_at_infinity(Polynomial({1.0, 1.0}),
                                Polynomial({2.0, 1.0})),
            -1);
}


TEST(Polynomial, ToStringReadable) {
  EXPECT_EQ(Polynomial().to_string(), "0");
  EXPECT_EQ(Polynomial({3.0}).to_string(), "3");
  std::string s = Polynomial({3.0, -1.0, 2.0}).to_string();
  EXPECT_NE(s.find("3"), std::string::npos);
  EXPECT_NE(s.find("t^2"), std::string::npos);
  EXPECT_NE(s.find("- 1 t"), std::string::npos);
}

TEST(Polynomial, RootBoundContainsAllRoots) {
  Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> roots;
    for (int i = 0; i < 4; ++i) roots.push_back(rng.uniform(-20, 20));
    Polynomial p = Polynomial::from_roots(roots) * rng.uniform(0.1, 5.0);
    double b = p.root_bound();
    for (double r : roots) EXPECT_LE(std::fabs(r), b + 1e-9);
  }
}

TEST(Polynomial, CoefficientAccessorOutOfRange) {
  Polynomial p({1.0, 2.0});
  EXPECT_DOUBLE_EQ(p.coefficient(0), 1.0);
  EXPECT_DOUBLE_EQ(p.coefficient(5), 0.0);
  EXPECT_DOUBLE_EQ(p.coefficient(-1), 0.0);
}

TEST(Roots, LinearAndQuadratic) {
  RootScratch scratch;
  RootFindResult r;
  real_roots_into(Polynomial({-2.0, 1.0}), 0.0, 10.0, scratch, r);
  ASSERT_EQ(r.roots.size(), 1u);
  EXPECT_NEAR(r.roots[0], 2.0, 1e-12);

  real_roots_into(Polynomial::from_roots({1.0, 3.0}), 0.0, 10.0, scratch, r);
  ASSERT_EQ(r.roots.size(), 2u);
  EXPECT_NEAR(r.roots[0], 1.0, 1e-10);
  EXPECT_NEAR(r.roots[1], 3.0, 1e-10);

  // Tangential (double) root.
  real_roots_into(Polynomial::from_roots({2.0, 2.0}), 0.0, 10.0, scratch, r);
  ASSERT_EQ(r.roots.size(), 1u);
  EXPECT_NEAR(r.roots[0], 2.0, 1e-6);

  // No real roots.
  real_roots_into(Polynomial({1.0, 0.0, 1.0}), -10.0, 10.0, scratch, r);
  EXPECT_TRUE(r.roots.empty());
}

TEST(Roots, IdenticallyZero) {
  RootScratch scratch;
  RootFindResult r;
  real_roots_into(Polynomial(), 0.0, 1.0, scratch, r);
  EXPECT_TRUE(r.identically_zero);
  crossing_times_into(Polynomial({1.0, 2.0}), Polynomial({1.0, 2.0}), 0.0,
                      scratch, r);
  EXPECT_TRUE(r.identically_zero);
}

TEST(Roots, HighDegreeKnownRoots) {
  Polynomial p = Polynomial::from_roots({0.5, 1.0, 2.0, 4.0, 8.0});
  RootScratch scratch;
  RootFindResult r;
  real_roots_from_into(p, 0.0, scratch, r);
  ASSERT_EQ(r.roots.size(), 5u);
  double expect[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(r.roots[i], expect[i], 1e-8);
}

TEST(Roots, WindowRestriction) {
  Polynomial p = Polynomial::from_roots({1.0, 5.0, 9.0});
  RootScratch scratch;
  RootFindResult r;
  real_roots_into(p, 2.0, 8.0, scratch, r);
  ASSERT_EQ(r.roots.size(), 1u);
  EXPECT_NEAR(r.roots[0], 5.0, 1e-9);
  // real_roots_from_into excludes roots before t0.
  real_roots_from_into(p, 4.0, scratch, r);
  ASSERT_EQ(r.roots.size(), 2u);
}

// Property sweep: random polynomials built from known roots must be
// recovered.
class RootRecovery : public ::testing::TestWithParam<int> {};

TEST_P(RootRecovery, RandomRootsRecovered) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  int deg = 2 + GetParam() % 5;
  std::vector<double> roots;
  double last = 0.2;
  for (int i = 0; i < deg; ++i) {
    last += rng.uniform(0.3, 2.0);  // well separated
    roots.push_back(last);
  }
  Polynomial p = Polynomial::from_roots(roots) *
                 rng.uniform(0.5, 2.0) * (rng.uniform(0, 1) < 0.5 ? -1 : 1);
  RootScratch scratch;
  RootFindResult r;
  real_roots_from_into(p, 0.0, scratch, r);
  ASSERT_EQ(r.roots.size(), roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_NEAR(r.roots[i], roots[i], 1e-6 * (1 + roots[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RootRecovery, ::testing::Range(0, 40));

TEST(Roots, RobustSign) {
  Polynomial p = Polynomial::from_roots({1.0});
  EXPECT_EQ(robust_sign(p, 0.5), -1);
  EXPECT_EQ(robust_sign(p, 1.0), 0);
  EXPECT_EQ(robust_sign(p, 1.5), 1);
}

TEST(Asymptotic, OrderedRing) {
  AsymptoticPoly t(Polynomial({0.0, 1.0}));
  AsymptoticPoly c5(5.0);
  EXPECT_TRUE(c5 < t);
  EXPECT_TRUE(t * t > t);
  EXPECT_TRUE(t - t == AsymptoticPoly(0.0));
  EXPECT_EQ((t * t - t).sign(), 1);
  EXPECT_EQ((c5 - t * t).sign(), -1);
  // Arithmetic consistency: (t + 5)^2 == t^2 + 10t + 25.
  AsymptoticPoly lhs = (t + c5) * (t + c5);
  AsymptoticPoly rhs = t * t + AsymptoticPoly(10.0) * t + AsymptoticPoly(25.0);
  EXPECT_TRUE(lhs == rhs);
}

}  // namespace
}  // namespace dyncg
