// Exactness contract of the numeric kernels
// (docs/PERFORMANCE.md#numeric-kernels): every kernel must be bit-identical
// to the kernel-free Polynomial operations it stands in for — same
// association order, no FMA contraction — on randomized and adversarial
// inputs (denormals, degree 200, signed zeros, +/-1e155) and across batch
// sizes.  Runs inside the DYNCG_THREADS=1/4 ctest matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "pieces/piece_slab.hpp"
#include "poly/kernels.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> random_coeffs(Rng& rng, std::size_t n) {
  std::vector<double> c(n);
  for (double& x : c) x = rng.uniform(-2.0, 2.0);
  return c;
}

// Input families that historically break "almost bit-exact" vectorization:
// denormals (flush-to-zero differences), alternating signs with huge
// magnitude spread (cancellation order), high degree (long dependency
// chains), and zero coefficients interleaved.
std::vector<std::vector<double>> adversarial_coeffs() {
  std::vector<std::vector<double>> out;
  out.push_back({});                         // zero polynomial
  out.push_back({4.5e-320, -3.0e-310, 1e-300});  // denormal territory
  std::vector<double> alt;
  for (int i = 0; i < 64; ++i) {
    alt.push_back((i % 2 == 0 ? 1.0 : -1.0) * std::pow(10.0, (i % 13) - 6));
  }
  out.push_back(alt);                        // alternating sign, degree 63
  std::vector<double> huge(201, 0.0);
  for (std::size_t i = 0; i < huge.size(); i += 3) {
    huge[i] = (i % 2 == 0 ? 1.0 : -1.0) / static_cast<double>(i + 1);
  }
  out.push_back(huge);                       // degree 200, zeros interleaved
  out.push_back({0.0, -0.0, 1e308, -1e308, 2.5});  // signed zeros, overflow
  return out;
}

std::vector<double> adversarial_ts() {
  return {0.0,    -0.0,   1.0,      -1.0,     0.5,   -2.75, 1e-308,
          -3e-12, 1e8,    -7.5e6,   1e155,    -1e155, 3.14159, 1e-30};
}

// Batch sizes on both sides of 8, where the kernels once switched from an
// inline loop to an out-of-line one.
constexpr std::size_t kBatchSizes[] = {0, 1, 7, 8, 9, 17};

// adversarial_ts() padded with random times to the largest batch size.
std::vector<double> batch_ts(Rng& rng) {
  std::vector<double> ts = adversarial_ts();
  while (ts.size() < 17) ts.push_back(rng.uniform(-50.0, 50.0));
  return ts;
}

TEST(SimdKernels, HornerManyMatchesPolynomialOperator) {
  Rng rng(11);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<double> c =
        random_coeffs(rng, static_cast<std::size_t>(rng.uniform_int(1, 24)));
    Polynomial p(c);
    const std::vector<double>& pc = p.coefficients();
    std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 17));
    std::vector<double> ts(n);
    for (double& t : ts) t = rng.uniform(-50.0, 50.0);
    std::vector<double> out(n);
    kernels::horner_many(pc.data(), pc.size(), ts.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      double want = p(ts[i]);
      EXPECT_EQ(std::memcmp(&out[i], &want, sizeof(double)), 0);
    }
  }
  const std::vector<double> ts = batch_ts(rng);
  const double sentinel = 12345.5;
  for (const std::vector<double>& c : adversarial_coeffs()) {
    Polynomial p(c);
    const std::vector<double>& pc = p.coefficients();
    for (std::size_t n : kBatchSizes) {
      std::vector<double> out(n + 1, sentinel);
      kernels::horner_many(pc.data(), pc.size(), ts.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        double want = p(ts[i]);
        EXPECT_EQ(std::memcmp(&out[i], &want, sizeof(double)), 0)
            << "degree " << p.degree() << " n " << n << " t " << ts[i];
      }
      EXPECT_EQ(out[n], sentinel) << "wrote past a batch of " << n;
    }
  }
}

TEST(SimdKernels, HornerSlabMatchesPerMemberEvaluation) {
  Rng rng(13);
  for (int iter = 0; iter < 20; ++iter) {
    std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 23));
    std::vector<Polynomial> members;
    for (std::size_t m = 0; m < count; ++m) {
      members.push_back(Polynomial(
          random_coeffs(rng, static_cast<std::size_t>(rng.uniform_int(0, 9)))));
    }
    kernels::CoeffSlab slab(members);
    double t = rng.uniform(-20.0, 20.0);
    std::vector<double> vals(count);
    slab.values_at(t, vals.data());
    for (std::size_t m = 0; m < count; ++m) {
      double want = members[m](t);
      EXPECT_EQ(std::memcmp(&vals[m], &want, sizeof(double)), 0)
          << "member " << m << " (zero padding must be bit-exact)";
    }
  }
  // Slabs led by the adversarial members (padded with random ones), so
  // degree 200 pads every shorter member with zero rows.
  std::vector<Polynomial> pool;
  for (const std::vector<double>& c : adversarial_coeffs()) {
    pool.push_back(Polynomial(c));
  }
  while (pool.size() < 17) {
    pool.push_back(Polynomial(
        random_coeffs(rng, static_cast<std::size_t>(rng.uniform_int(0, 9)))));
  }
  const std::vector<double> ts = batch_ts(rng);
  for (std::size_t count : kBatchSizes) {
    const std::vector<Polynomial> members(
        pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(count));
    kernels::CoeffSlab slab(members);
    std::vector<double> vals(count);
    for (double t : ts) {
      slab.values_at(t, vals.data());
      for (std::size_t m = 0; m < count; ++m) {
        double want = members[m](t);
        EXPECT_EQ(std::memcmp(&vals[m], &want, sizeof(double)), 0)
            << "member " << m << " of " << count << " t " << t;
      }
    }
  }
}

// diff_coeffs and derivative_coeffs, through Polynomial's assign_* forms,
// against the kernel-free operator- and derivative().
TEST(SimdKernels, CoefficientKernelsMatchKernelFreeOperators) {
  Rng rng(15);
  std::vector<std::vector<double>> inputs = adversarial_coeffs();
  for (int iter = 0; iter < 20; ++iter) {
    inputs.push_back(
        random_coeffs(rng, static_cast<std::size_t>(rng.uniform_int(0, 30))));
  }
  Polynomial out;
  for (const std::vector<double>& a : inputs) {
    const Polynomial p(a);
    for (const std::vector<double>& b : inputs) {
      const Polynomial q(b);
      out.assign_difference(p, q);
      EXPECT_TRUE(bits_equal(out.coefficients(), (p - q).coefficients()))
          << "degrees " << p.degree() << ", " << q.degree();
    }
    out.assign_derivative(p);
    EXPECT_TRUE(bits_equal(out.coefficients(), p.derivative().coefficients()))
        << "degree " << p.degree();
  }
}

// The in-place compound operators must reproduce the allocating operators
// bit for bit (same association order) — except for signed zeros, where
// they agree only under ==.
TEST(SimdKernels, InPlaceCompoundOperatorsMatchAllocating) {
  Rng rng(16);
  for (int iter = 0; iter < 60; ++iter) {
    Polynomial p(
        random_coeffs(rng, static_cast<std::size_t>(rng.uniform_int(0, 12))));
    Polynomial q(
        random_coeffs(rng, static_cast<std::size_t>(rng.uniform_int(0, 12))));
    Polynomial sum = p, dif = p, prod = p, sq = p;
    sum += q;
    dif -= q;
    prod *= q;
    sq *= sq;  // aliased product
    EXPECT_EQ(sum, p + q);
    EXPECT_EQ(dif, p - q);
    EXPECT_EQ(prod, p * q);
    EXPECT_EQ(sq, p * p);
    EXPECT_TRUE(bits_equal(sum.coefficients(), (p + q).coefficients()));
    EXPECT_TRUE(bits_equal(dif.coefficients(), (p - q).coefficients()));
    EXPECT_TRUE(bits_equal(prod.coefficients(), (p * q).coefficients()));
  }
  // The allocating forms start each coefficient from +0.0, so -0.0 + -0.0
  // (and -0.0 - +0.0) comes out +0.0 there but -0.0 in place.
  const Polynomial p({-0.0, 1.0}), add_q({-0.0, 2.0}), sub_q({0.0, 2.0});
  Polynomial sum = p, dif = p;
  sum += add_q;
  dif -= sub_q;
  const Polynomial alloc_sum = p + add_q, alloc_dif = p - sub_q;
  EXPECT_EQ(sum, alloc_sum);
  EXPECT_EQ(dif, alloc_dif);
  EXPECT_TRUE(std::signbit(sum.coefficients()[0]));
  EXPECT_FALSE(std::signbit(alloc_sum.coefficients()[0]));
  EXPECT_TRUE(std::signbit(dif.coefficients()[0]));
  EXPECT_FALSE(std::signbit(alloc_dif.coefficients()[0]));
}

// PieceSlab (structure-of-arrays piece storage) keeps the value view and
// the coalescing mutators consistent.
TEST(SimdKernels, PieceSlabValueViewAndMutators) {
  PieceSlab s;
  s.push_back(Piece{Interval{0.0, 1.0}, 3});
  s.emplace_back(1.0, 2.5, 4);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].id, 3);
  EXPECT_EQ(s.back_id(), 4);
  EXPECT_EQ(s.back_hi(), 2.5);
  s.set_back_hi(3.5);
  EXPECT_EQ(s[1].iv.hi, 3.5);
  const PieceSlabView v = s.view();
  EXPECT_EQ(v.count, 2u);
  EXPECT_EQ(v.lo[1], 1.0);
  EXPECT_EQ(v.id[0], 3);
  std::vector<Piece> seen;
  for (const Piece& p : s) seen.push_back(p);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].iv.hi, 3.5);
  PieceSlab t = s;
  EXPECT_TRUE(t == s);
  t.set_back_hi(9.0);
  EXPECT_FALSE(t == s);
  t.clear();
  EXPECT_TRUE(t.empty());
}

}  // namespace
}  // namespace dyncg
