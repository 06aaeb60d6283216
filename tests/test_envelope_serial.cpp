#include <gtest/gtest.h>

#include <cmath>

#include "pieces/envelope_serial.hpp"
#include "support/ackermann.hpp"
#include "support/ds_sequence.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

PolyFamily random_family(Rng& rng, int n, int max_deg) {
  std::vector<Polynomial> fns;
  for (int i = 0; i < n; ++i) {
    int deg = rng.uniform_int(0, max_deg);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-2.0, 2.0);
    fns.push_back(Polynomial(c));
  }
  return PolyFamily(std::move(fns));
}

void expect_matches_bruteforce(const PolyFamily& fam, const PiecewiseFn& env,
                               bool take_min) {
  ASSERT_TRUE(env.well_formed(fam.size()));
  // Total function: support is all of [0, inf).
  EXPECT_TRUE(env.support().complement().empty());
  for (double t = 0.013; t < 40.0; t *= 1.37) {
    int id = env.id_at(t);
    ASSERT_GE(id, 0) << "gap at t=" << t;
    double got = fam.value(id, t);
    int want_id = extremum_member_at(fam, t, take_min);
    double want = fam.value(want_id, t);
    EXPECT_NEAR(got, want, 1e-6 * (1 + std::fabs(want))) << "t=" << t;
  }
}

TEST(EnvelopeSerial, TwoLines) {
  PolyFamily fam({Polynomial({0.0, 1.0}), Polynomial({3.0})});
  PiecewiseFn env = envelope_serial(fam);
  ASSERT_EQ(env.piece_count(), 2u);
  EXPECT_EQ(env.pieces[0].id, 0);
  EXPECT_EQ(env.pieces[1].id, 1);
}

TEST(EnvelopeSerial, SingleFunction) {
  PolyFamily fam({Polynomial({1.0, 1.0})});
  PiecewiseFn env = envelope_serial(fam);
  ASSERT_EQ(env.piece_count(), 1u);
  EXPECT_EQ(env.pieces[0].id, 0);
}

TEST(EnvelopeSerial, LinesObeyLambdaN1) {
  // n lines pairwise cross at most once: at most lambda(n,1) = n pieces
  // (Theorem 2.3), and the origin sequence is an (n,1) DS sequence
  // (Lemma 2.2).
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    int n = rng.uniform_int(2, 12);
    std::vector<Polynomial> lines;
    for (int i = 0; i < n; ++i) {
      lines.push_back(Polynomial({rng.uniform(-5, 5), rng.uniform(-2, 2)}));
    }
    PolyFamily fam(std::move(lines));
    PiecewiseFn env = envelope_serial(fam);
    EXPECT_LE(env.piece_count(), static_cast<std::size_t>(n));
    EXPECT_TRUE(is_davenport_schinzel(env.origin_sequence(), n, 1));
    expect_matches_bruteforce(fam, env, true);
  }
}

TEST(EnvelopeSerial, ParabolasObeyLambdaN2) {
  // Degree-2 polynomials cross pairwise at most twice: at most 2n - 1
  // pieces and an (n,2) DS origin sequence.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    int n = rng.uniform_int(2, 10);
    std::vector<Polynomial> ps;
    for (int i = 0; i < n; ++i) {
      ps.push_back(Polynomial(
          {rng.uniform(-5, 5), rng.uniform(-3, 3), rng.uniform(-1, 1)}));
    }
    PolyFamily fam(std::move(ps));
    PiecewiseFn env = envelope_serial(fam);
    EXPECT_LE(env.piece_count(), static_cast<std::size_t>(2 * n - 1));
    EXPECT_TRUE(is_davenport_schinzel(env.origin_sequence(), n, 2));
    expect_matches_bruteforce(fam, env, true);
  }
}

// Property sweep over sizes and degrees, for both lower and upper envelopes.
class EnvelopeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(EnvelopeProperty, MatchesBruteForceAndDsBound) {
  auto [n, max_deg, take_min] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 100 + max_deg * 10 + take_min));
  PolyFamily fam = random_family(rng, n, max_deg);
  PiecewiseFn env = envelope_serial(fam, take_min);
  expect_matches_bruteforce(fam, env, take_min);
  // Lemma 2.2: piece count bounded by lambda(n, s), s = max pairwise
  // crossings <= max_deg.
  EXPECT_LE(env.piece_count(),
            lambda_upper_bound(static_cast<std::uint64_t>(n), max_deg));
  EXPECT_TRUE(is_davenport_schinzel(env.origin_sequence(), n, max_deg));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnvelopeProperty,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 16, 33),
                       ::testing::Values(1, 2, 3, 4),
                       ::testing::Bool()));

TEST(EnvelopeSerial, WorstCaseLinesHitNPieces) {
  // Tangent lines to a parabola realize lambda(n,1) = n pieces exactly.
  int n = 8;
  std::vector<Polynomial> lines;
  for (int i = 0; i < n; ++i) {
    double a = static_cast<double>(i);  // tangency abscissa
    // Tangent to y = -t^2 at t = a: y = -2a t + a^2.
    lines.push_back(Polynomial({a * a, -2 * a}));
  }
  PolyFamily fam(std::move(lines));
  PiecewiseFn env = envelope_serial(fam);
  EXPECT_EQ(env.piece_count(), static_cast<std::size_t>(n));
}

TEST(EnvelopeSerial, DuplicateFunctions) {
  PolyFamily fam({Polynomial({1.0, 1.0}), Polynomial({1.0, 1.0}),
                  Polynomial({0.5, 1.0})});
  PiecewiseFn env = envelope_serial(fam);
  ASSERT_EQ(env.piece_count(), 1u);
  EXPECT_EQ(env.pieces[0].id, 2);
}

}  // namespace
}  // namespace dyncg
