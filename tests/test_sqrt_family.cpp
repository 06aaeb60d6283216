#include <gtest/gtest.h>

#include <cmath>

#include "envelope/parallel_envelope.hpp"
#include "pieces/envelope_serial.hpp"
#include "pieces/sqrt_family.hpp"
#include "support/ds_sequence.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

SqrtFamily random_family(Rng& rng, int n) {
  std::vector<SqrtMotion> ms;
  for (int i = 0; i < n; ++i) {
    ms.push_back(SqrtMotion{rng.uniform(-4, 4), rng.uniform(-2, 2),
                            rng.uniform(-1, 1)});
  }
  return SqrtFamily(std::move(ms));
}

int brute_min_at(const SqrtFamily& fam, double t) {
  int best = 0;
  double bv = fam.value(0, t);
  for (int i = 1; i < static_cast<int>(fam.size()); ++i) {
    double v = fam.value(i, t);
    if (v < bv) {
      bv = v;
      best = i;
    }
  }
  return best;
}

TEST(SqrtFamily, EvaluationAndIdentity) {
  SqrtMotion m{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(m(4.0), 1 + 4 + 12);
  SqrtFamily fam({m, m, SqrtMotion{1.0, 2.0, 3.5}});
  EXPECT_TRUE(fam.identical(0, 1));
  EXPECT_FALSE(fam.identical(0, 2));
}

TEST(SqrtFamily, CrossingsAreRealCrossings) {
  Rng rng(5);
  std::vector<double> xs;
  for (int trial = 0; trial < 20; ++trial) {
    SqrtFamily fam = random_family(rng, 2);
    if (fam.identical(0, 1)) continue;
    fam.crossings_into(0, 1, Interval{0.0, kInfinity}, xs);
    EXPECT_LE(xs.size(), 2u);  // Section 6 property (4) with k = 2
    for (double t : xs) {
      EXPECT_NEAR(fam.value(0, t), fam.value(1, t),
                  1e-7 * (1 + std::fabs(fam.value(0, t))));
    }
  }
}

TEST(SqrtFamily, KnownCrossing) {
  // f = sqrt(t), g = t/2: equal at t = 0 (excluded by open interval) and
  // t = 4.
  SqrtFamily fam({SqrtMotion{0, 1, 0}, SqrtMotion{0, 0, 0.5}});
  std::vector<double> xs;
  fam.crossings_into(0, 1, Interval{0.001, kInfinity}, xs);
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_NEAR(xs[0], 4.0, 1e-9);
}

// The full Theorem 3.2 machinery must run on the non-polynomial family
// unchanged — Section 6's claim.
class SqrtEnvelopeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SqrtEnvelopeProperty, MachineEnvelopeMatchesBruteForce) {
  auto [which, n] = GetParam();
  Rng rng(900 + static_cast<std::uint64_t>(n + which));
  SqrtFamily fam = random_family(rng, n);
  Machine m = which == 0
                  ? envelope_machine_mesh(fam.size(), SqrtFamily::kCrossingBound)
                  : envelope_machine_hypercube(fam.size(),
                                               SqrtFamily::kCrossingBound);
  PiecewiseFn env =
      parallel_envelope(m, fam, SqrtFamily::kCrossingBound, true);
  ASSERT_TRUE(env.well_formed(fam.size()));
  EXPECT_TRUE(env.support().complement().empty());
  // Lemma 2.2 with s = 2: at most 2n - 1 pieces, DS-valid origins.
  EXPECT_LE(env.piece_count(), static_cast<std::size_t>(2 * n - 1));
  EXPECT_TRUE(is_davenport_schinzel(env.origin_sequence(), n, 2));
  for (double t = 0.019; t < 60; t = t * 1.33 + 0.017) {
    int id = env.id_at(t);
    ASSERT_GE(id, 0);
    int want = brute_min_at(fam, t);
    EXPECT_NEAR(fam.value(id, t), fam.value(want, t),
                1e-7 * (1 + std::fabs(fam.value(want, t))))
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SqrtEnvelopeProperty,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(2, 5, 9, 17)));

TEST(SqrtFamily, SerialEnvelopeAgreesWithMachine) {
  Rng rng(31);
  SqrtFamily fam = random_family(rng, 12);
  Machine m = envelope_machine_hypercube(12, 2);
  PiecewiseFn par = parallel_envelope(m, fam, 2, true);
  PiecewiseFn ser = envelope_serial(fam, true);
  ASSERT_EQ(par.piece_count(), ser.piece_count());
  for (std::size_t i = 0; i < par.pieces.size(); ++i) {
    EXPECT_EQ(par.pieces[i].id, ser.pieces[i].id);
  }
}

TEST(SqrtFamily, PureDiffusionEnvelopeIsOrderedBySqrtCoefficient) {
  // f_i = b_i sqrt(t) with all b distinct: beyond t = 0 the smallest b wins
  // forever; one piece.
  SqrtFamily fam({SqrtMotion{0, 3, 0}, SqrtMotion{0, 1, 0},
                  SqrtMotion{0, 2, 0}});
  PiecewiseFn env = envelope_serial(fam, true);
  ASSERT_EQ(env.piece_count(), 1u);
  EXPECT_EQ(env.pieces[0].id, 1);
}

}  // namespace
}  // namespace dyncg
