#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "poly/asymptotic.hpp"
#include "poly/bigfloat.hpp"
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

// The cut at `stop` (roots.hpp) moves no bracket: every root below `stop`
// has the bits the uncut call gives it.  Each shard draws 32,768 cases and
// cuts each at four windows' ends, so the eight shards check 1,048,576
// (case, stop) pairs.  Cases mix degrees 1-8, random coefficients and
// products of roots with multiplicities up to 3, coefficient scales
// 1e-6..1e6, and both entry points.  Stops sit exactly at a returned root,
// exactly at a critical point, one ulp either side of a root, at or below
// t0 (empty windows) or anywhere in the roots' range.
class RootCut : public ::testing::TestWithParam<int> {};

Polynomial random_cut_poly(Rng& rng, std::vector<double>& planted) {
  const int deg = rng.uniform_int(1, 8);
  const double scale = std::pow(10.0, rng.uniform(-6.0, 6.0)) *
                       (rng.uniform_int(0, 1) == 0 ? -1.0 : 1.0);
  planted.clear();
  if (rng.uniform_int(0, 2) == 0) {
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-1.0, 1.0) * scale;
    if (c.back() == 0.0) c.back() = scale;
    return Polynomial(c);
  }
  while (planted.size() < static_cast<std::size_t>(deg)) {
    const double r = rng.uniform(-2.0, 8.0);
    const int mult = rng.uniform_int(1, 3);
    for (int m = 0; m < mult && planted.size() < static_cast<std::size_t>(deg);
         ++m) {
      planted.push_back(r);
    }
  }
  return Polynomial::from_roots(planted) * scale;
}

std::vector<std::uint64_t> bits_below(const RootFindResult& r, double stop) {
  std::vector<std::uint64_t> out;
  for (double x : r.roots) {
    if (x < stop) out.push_back(std::bit_cast<std::uint64_t>(x));
  }
  return out;
}

TEST_P(RootCut, RootsBelowStopKeepTheirBits) {
  constexpr int kCases = 32768;
  constexpr int kStopsPerCase = 4;
  Rng rng(0x5eed0000u + static_cast<std::uint64_t>(GetParam()));
  RootScratch scratch;
  RootFindResult full, cut, crit;
  std::vector<double> planted;
  std::uint64_t checked = 0, roots_kept = 0, mismatches = 0;
  std::string first_failure;
  for (int c = 0; c < kCases; ++c) {
    const Polynomial p = random_cut_poly(rng, planted);
    double t0 = 0.0;
    switch (rng.uniform_int(0, 2)) {
      case 0: break;
      case 1: t0 = rng.uniform(-3.0, 6.0); break;
      default:
        if (!planted.empty()) {
          t0 = planted[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(planted.size()) - 1))];
        }
    }
    // Half the cases go through crossing_times_into: f - g is p's
    // coefficients rounded through f = p + q, g = q.
    const bool crossing = rng.uniform_int(0, 1) == 0;
    Polynomial q;
    if (crossing) {
      std::vector<double> qc(static_cast<std::size_t>(rng.uniform_int(1, 9)));
      for (double& x : qc) x = rng.uniform(-1.0, 1.0);
      q = Polynomial(qc);
    }
    const Polynomial f = crossing ? p + q : p;
    auto run = [&](double stop, RootFindResult& out) {
      if (crossing) {
        crossing_times_into(f, q, t0, scratch, out, stop);
      } else {
        real_roots_from_into(p, t0, scratch, out, stop);
      }
    };
    run(std::numeric_limits<double>::infinity(), full);
    // The critical points the isolation brackets between, recomputed over
    // the same [t0, bound] window.
    const Polynomial diff = crossing ? f - q : p;
    const double hi = std::max(t0 + 1.0, diff.root_bound() + 1.0);
    real_roots_into(diff.derivative(), t0, hi, scratch, crit);
    for (int s = 0; s < kStopsPerCase; ++s) {
      double stop = t0;
      const int kind = rng.uniform_int(0, 5);
      const std::vector<double>& pick =
          (kind == 1 && !crit.identically_zero) ? crit.roots : full.roots;
      if ((kind <= 2) && !pick.empty()) {
        stop = pick[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pick.size()) - 1))];
        if (kind == 2) {
          const double inf = std::numeric_limits<double>::infinity();
          stop = std::nextafter(stop, rng.uniform_int(0, 1) == 0 ? -inf : inf);
        }
      } else if (kind == 3) {
        stop = rng.uniform_int(0, 1) == 0 ? t0 : t0 - rng.uniform(0.0, 2.0);
      } else {
        stop = rng.uniform(t0, 9.0);
      }
      run(stop, cut);
      ++checked;
      const std::vector<std::uint64_t> want = bits_below(full, stop);
      roots_kept += want.size();
      if (cut.identically_zero != full.identically_zero ||
          bits_below(cut, stop) != want) {
        if (mismatches++ == 0) {
          std::ostringstream os;
          os.precision(17);
          os << "case " << c << ": " << (crossing ? "crossing " : "roots ")
             << p.to_string() << " from t0 = " << t0 << ", stop = " << stop;
          first_failure = os.str();
        }
      }
    }
  }
  EXPECT_GT(roots_kept, checked / 8);  // the windows hold roots to compare
  EXPECT_EQ(mismatches, 0u) << first_failure << " (" << roots_kept
                            << " roots below stop in " << checked
                            << " cuts)";
}

INSTANTIATE_TEST_SUITE_P(Shards, RootCut, ::testing::Range(0, 8));

// A window that ends inside the roots skips the work past it, and one that
// ends past the last root returns every root.
TEST(Roots, CutKeepsTheWindowsRoots) {
  Polynomial p = Polynomial::from_roots({0.5, 1.0, 2.0, 4.0, 8.0});
  RootScratch scratch;
  RootFindResult all, cut;
  real_roots_from_into(p, 0.0, scratch, all);
  ASSERT_EQ(all.roots.size(), 5u);
  real_roots_from_into(p, 0.0, scratch, cut, 3.0);
  ASSERT_GE(cut.roots.size(), 3u);
  EXPECT_LT(cut.roots.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(cut.roots[i], all.roots[i]);
  real_roots_from_into(p, 0.0, scratch, cut, 100.0);
  EXPECT_EQ(cut.roots, all.roots);
  real_roots_from_into(p, 2.0, scratch, cut, 2.0);  // empty window
  for (double r : cut.roots) EXPECT_GE(r, 2.0);
}

// A double root that rounding has moved: from_roots rounds the
// coefficients of (t - a)^2 (t - b), so at the critical point near a the
// computed p sits just above or just below zero.  The zero test must still
// report that root, and once.
TEST(Roots, MovedDoubleRootFoundOnce) {
  Rng rng(2);
  RootScratch scratch;
  RootFindResult r;
  for (int draw = 0; draw < 10000; ++draw) {
    const double a = rng.uniform(0.1, 30), b = rng.uniform(40.1, 70);
    real_roots_into(Polynomial::from_roots({a, a, b}), 0.0, 100.0, scratch,
                    r);
    ASSERT_EQ(r.roots.size(), 2u) << "a = " << a << ", b = " << b;
    EXPECT_NEAR(r.roots[0], a, 1e-6 * a);
    EXPECT_NEAR(r.roots[1], b, 1e-9 * b);
  }
}

// A leading coefficient near the trimming floor (1e-12 of the largest) puts
// the search's top end, root_bound() + 1 = 5e11, where p overflows:
// 1e300 + 2e288 t^3 is +inf there.  An overflowed value is far from zero,
// not within its (also infinite) error bound, so it neither counts as a
// root nor hides the sign change below it.
TEST(Roots, OverflowAtTheSearchEndIsNoRoot) {
  RootScratch scratch;
  RootFindResult r;
  const Polynomial p({1e300, 0.0, 0.0, 2e288});
  real_roots_from_into(p, 0.0, scratch, r);
  EXPECT_TRUE(r.roots.empty()) << "first root " << r.roots.front();
  real_roots_from_into(Polynomial({-1e300, 0.0, 0.0, 2e288}), 0.0, scratch, r);
  ASSERT_EQ(r.roots.size(), 1u);
  EXPECT_NEAR(r.roots[0], std::cbrt(5e11), 1e-9 * std::cbrt(5e11));
  EXPECT_EQ(robust_sign(p, 5e11), 1);
  EXPECT_EQ(robust_sign(Polynomial({1e300, 0.0, 0.0, -2e288}), 5e11), -1);
}

// 1e150 t^2 - 1e160 t + 1 has roots ~1e-160 and ~1e10, but b^2 overflows:
// the closed form read its discriminant as a double root at -b / 2a = 5e9.
TEST(Roots, QuadraticWithOverflowingDiscriminant) {
  RootScratch scratch;
  RootFindResult r;
  real_roots_from_into(Polynomial({1.0, -1e160, 1e150}), 0.0, scratch, r);
  ASSERT_EQ(r.roots.size(), 2u);
  EXPECT_LT(r.roots[0], 1e-12);
  EXPECT_NEAR(r.roots[1], 1e10, 1e-9 * 1e10);
}

// --- The root contract: the exact root's one-ulp lower end -----------------

// p(x) in exact arithmetic, by BigFloat Horner.
int bigfloat_sign_at(const Polynomial& p, double x) {
  const BigFloat bx(x);
  BigFloat acc;
  const std::vector<double>& c = p.coefficients();
  for (std::size_t i = c.size(); i-- > 0;) acc = acc * bx + BigFloat(c[i]);
  return acc.sign();
}

// The search's answer: x is an exact root, or p changes sign exactly
// between x and the next double up.
bool is_lower_end_of_root(const Polynomial& p, double x) {
  const int s = bigfloat_sign_at(p, x);
  if (s == 0) return true;
  return bigfloat_sign_at(
             p, std::nextafter(x, std::numeric_limits<double>::infinity())) ==
         -s;
}

// deg distinct roots at least `gap` apart in [-5, 5), times `scale`.
Polynomial spaced_roots_poly(Rng& rng, int deg, double gap, double scale,
                             std::vector<double>& roots) {
  roots.clear();
  double r = rng.uniform(-5.0, -4.0);
  for (int i = 0; i < deg; ++i) {
    roots.push_back(r);
    r += gap + rng.uniform(0.0, 8.0 / deg);
  }
  return Polynomial::from_roots(roots) * scale;
}

// One polynomial asked through many brackets: real_roots_into over random
// [lo, hi], real_roots_from_into from several t0 with several stops.  A
// root strictly inside both windows has the same bits in both answers.
TEST(RootContract, RootsAreBracketIndependent) {
  Rng rng(29);
  RootScratch scratch;
  RootFindResult whole, part;
  std::vector<double> planted;
  std::uint64_t compared = 0;
  auto inside = [](const RootFindResult& r, double lo, double hi) {
    std::vector<std::uint64_t> bits;
    for (double x : r.roots) {
      if (x > lo && x < hi) bits.push_back(std::bit_cast<std::uint64_t>(x));
    }
    return bits;
  };
  for (int c = 0; c < 400; ++c) {
    const int deg = rng.uniform_int(3, 8);
    const double scale = std::pow(10.0, rng.uniform(-3.0, 3.0)) *
                         (rng.uniform_int(0, 1) == 0 ? -1.0 : 1.0);
    const Polynomial p = spaced_roots_poly(rng, deg, 0.3, scale, planted);
    real_roots_into(p, -8.0, 8.0, scratch, whole);
    ASSERT_EQ(whole.roots.size(), planted.size()) << p.to_string();
    for (int k = 0; k < 24; ++k) {
      double lo = rng.uniform(-8.0, 8.0), hi = rng.uniform(-8.0, 8.0);
      if (lo > hi) std::swap(lo, hi);
      real_roots_into(p, lo, hi, scratch, part);
      ASSERT_EQ(inside(part, lo, hi), inside(whole, lo, hi))
          << p.to_string() << " on [" << lo << ", " << hi << "]";
      compared += inside(whole, lo, hi).size();
    }
    for (int k = 0; k < 6; ++k) {
      const double t0 = rng.uniform(-8.0, 6.0);
      for (double stop : {std::numeric_limits<double>::infinity(),
                          rng.uniform(t0, 8.0), rng.uniform(t0, 8.0)}) {
        real_roots_from_into(p, t0, scratch, part, stop);
        const double end = std::min(stop, 8.0);
        ASSERT_EQ(inside(part, t0, end), inside(whole, t0, end))
            << p.to_string() << " from " << t0 << " to " << stop;
        compared += inside(whole, t0, end).size();
      }
    }
  }
  EXPECT_GT(compared, 20000u);
}

// Every root the search returns is the exact root's lower end, over
// generators that stress each stage: roots planted one ulp apart (in two
// polynomials), near-double roots, coefficient scales 1e-12..1e12, and
// scales near 1e-300 and 1e300, where Veltkamp's split underflows or
// overflows and BigFloat must decide.
TEST(RootContract, SearchedRootsAreTheExactRootsLowerEnd) {
  Rng rng(7);
  RootScratch scratch;
  RootFindResult r;
  std::vector<double> planted;
  std::uint64_t checked = 0, near_doubles = 0;
  const std::uint64_t stage3_before = scratch.work.signs[2];
  auto check = [&](const Polynomial& p, const char* kind) {
    real_roots_into(p, -8.0, 8.0, scratch, r);
    ASSERT_EQ(r.roots.size(), planted.size()) << kind << ": " << p.to_string();
    for (double x : r.roots) {
      ++checked;
      ASSERT_TRUE(is_lower_end_of_root(p, x))
          << kind << ": " << p.to_string() << " root " << x;
    }
  };
  for (int c = 0; c < 300; ++c) {
    const int deg = rng.uniform_int(3, 8);
    const double scale = std::pow(10.0, rng.uniform(-12.0, 12.0));
    check(spaced_roots_poly(rng, deg, 0.3, scale, planted), "scaled");

    // The same roots with one moved up by an ulp.
    spaced_roots_poly(rng, deg, 0.3, 1.0, planted);
    check(Polynomial::from_roots(planted), "one ulp below");
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, deg - 1));
    planted[j] = std::nextafter(planted[j], 9.0);
    check(Polynomial::from_roots(planted), "one ulp above");

    // Two roots 1e-5..1e-3 apart, when the knot zero test tells them
    // apart at the critical point between them (else it reports one root
    // there, which is not yet canonical: ROADMAP item 3).
    spaced_roots_poly(rng, deg - 1, 0.3, 1.0, planted);
    planted.push_back(planted[0] + rng.uniform(1e-5, 1e-3));
    std::sort(planted.begin(), planted.end());
    const Polynomial near_double = Polynomial::from_roots(planted);
    const double mid = 0.5 * (planted[0] + planted[1]);
    if (robust_sign(near_double, mid) != 0) {
      ++near_doubles;
      check(near_double, "near-double");
    }

    check(spaced_roots_poly(rng, deg, 0.3, c % 2 == 0 ? 1e-300 : 1e300,
                            planted),
          "extreme scale");
  }
  EXPECT_GT(checked, 6000u);
  EXPECT_GT(near_doubles, 100u);
  EXPECT_GT(scratch.work.signs[2], stage3_before);  // BigFloat decided some
}

// exact_sign agrees with BigFloat Horner everywhere, and BigFloat runs
// only where Horner's and the compensated bounds cannot decide.  For
// coefficients between 1e-12 and 1e12, Horner's bound decides every point
// away from a root and the compensated one every point within ulps of one;
// near 1e-300 the bounds' underflow slack (~1e-301) swamps them, and near
// 1e300 the values and the splits overflow.
TEST(RootContract, ExactSignAgreesWithBigFloat) {
  Rng rng(11);
  std::vector<double> planted;
  int by_stage[4] = {0, 0, 0, 0};
  for (int c = 0; c < 400; ++c) {
    const int deg = rng.uniform_int(1, 8);
    const bool extreme = c % 4 == 3;
    const double scale =
        extreme ? (c % 8 == 3 ? 1e-300 : 1e300)
                : std::pow(10.0, rng.uniform(-12.0, 12.0));
    const Polynomial p = spaced_roots_poly(rng, deg, 0.3, scale, planted);
    auto expect_sign = [&](double x, bool near_root) {
      int stage = 0;
      const int s = exact_sign(p, x, &stage);
      ASSERT_EQ(s, bigfloat_sign_at(p, x)) << p.to_string() << " at " << x;
      ++by_stage[stage];
      if (!extreme) {
        EXPECT_LE(stage, near_root ? 2 : 1) << p.to_string() << " at " << x;
      }
    };
    for (int k = 0; k < 8; ++k) {
      const double x = rng.uniform(-6.0, 6.0);
      double nearest = std::numeric_limits<double>::infinity();
      for (double q : planted) nearest = std::min(nearest, std::fabs(x - q));
      expect_sign(x, nearest < 1e-3);
    }
    // Adversarial: the planted roots and the doubles around them.
    for (double q : planted) {
      double x = q;
      for (int u = 0; u < 4; ++u) x = std::nextafter(x, -9.0);
      for (int u = 0; u < 9; ++u, x = std::nextafter(x, 9.0)) {
        expect_sign(x, true);
      }
    }
  }
  EXPECT_EQ(exact_sign(Polynomial(), 1.0), 0);
  EXPECT_EQ(exact_sign(Polynomial::from_roots({0.5, 2.0}), 2.0), 0);
  EXPECT_GT(by_stage[1], 0);
  EXPECT_GT(by_stage[2], 0);
  EXPECT_GT(by_stage[3], 0);
}

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
