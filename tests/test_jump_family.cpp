#include <gtest/gtest.h>

#include <cmath>

#include "envelope/parallel_envelope.hpp"
#include "pieces/envelope_serial.hpp"
#include "pieces/jump_family.hpp"
#include "support/ackermann.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

JumpFamily random_family(Rng& rng, int n) {
  std::vector<JumpMotion> ms;
  for (int i = 0; i < n; ++i) {
    ms.push_back(JumpMotion{
        Polynomial({rng.uniform(-4, 4), rng.uniform(-1, 1)}),
        Polynomial({rng.uniform(-4, 4), rng.uniform(-1, 1)}),
        rng.uniform(0.5, 8.0)});
  }
  return JumpFamily(std::move(ms));
}

double motion_value(const JumpMotion& m, double t) {
  return t < m.knot ? m.before(t) : m.after(t);
}

double brute_min_at(const JumpFamily& fam, double t) {
  double best = motion_value(fam.motion(0), t);
  for (std::size_t j = 1; j < fam.motions(); ++j) {
    best = std::min(best, motion_value(fam.motion(j), t));
  }
  return best;
}

TEST(JumpFamily, BranchStructure) {
  JumpFamily fam({JumpMotion{Polynomial({1.0}), Polynomial({5.0}), 2.0}});
  EXPECT_EQ(fam.size(), 2u);
  EXPECT_EQ(fam.owner(0), 0u);
  EXPECT_EQ(fam.owner(1), 0u);
  auto before = fam.defined_intervals(0);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_DOUBLE_EQ(before[0].hi, 2.0);
  auto after = fam.defined_intervals(1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_DOUBLE_EQ(after[0].lo, 2.0);
  EXPECT_DOUBLE_EQ(fam.value(0, 10.0), 1.0);  // branch poly, not the motion
  EXPECT_DOUBLE_EQ(fam.value(1, 10.0), 5.0);
}

TEST(JumpFamily, EnvelopeSwitchesAtAJump) {
  // Motion 0 is cheapest until it jumps up at t = 3; motion 1 (constant 1,
  // knot far away) takes over discontinuously — with no crossing.
  JumpFamily fam({JumpMotion{Polynomial({0.0}), Polynomial({10.0}), 3.0},
                  JumpMotion{Polynomial({1.0}), Polynomial({1.0}), 100.0}});
  PiecewiseFn env = envelope_serial(fam, true);
  EXPECT_EQ(fam.owner(env.id_at(1.0)), 0u);
  EXPECT_EQ(fam.owner(env.id_at(5.0)), 1u);
  // The switch is exactly at the jump knot.
  bool found = false;
  for (const Piece& p : env.pieces) {
    if (fam.owner(p.id) == 0 && std::fabs(p.iv.hi - 3.0) < 1e-12) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(JumpFamily, BranchCrossingsArePlainRoots) {
  JumpFamily fam({JumpMotion{Polynomial({0.0}), Polynomial({10.0}), 3.0},
                  JumpMotion{Polynomial({-5.0, 1.0}), Polynomial({-5.0, 1.0}),
                             1000.0}});
  // after-branch of motion 0 (id 1) vs before-branch of motion 1 (id 2):
  // 10 = t - 5 at t = 15.
  std::vector<double> xs;
  fam.crossings_into(1, 2, Interval{0.0, kInfinity}, xs);
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_NEAR(xs[0], 15.0, 1e-9);
}

class JumpEnvelopeProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(JumpEnvelopeProperty, MachineEnvelopeMatchesBruteForce) {
  auto [which, n] = GetParam();
  Rng rng(1100 + static_cast<std::uint64_t>(n * 3 + which));
  JumpFamily fam = random_family(rng, n);
  // Lemma 3.3: lines (s = 1) with one jump each (k = 1): order s + 2k = 3.
  Machine m = which == 0 ? envelope_machine_mesh(fam.size(), 3)
                         : envelope_machine_hypercube(fam.size(), 3);
  PiecewiseFn env = parallel_envelope(m, fam, 3, true);
  EXPECT_TRUE(env.support().complement().empty());
  EXPECT_LE(env.piece_count(),
            lambda_upper_bound(static_cast<std::uint64_t>(n), 3));
  for (double t = 0.013; t < 40; t = t * 1.27 + 0.011) {
    bool near_knot = false;
    for (std::size_t j = 0; j < fam.motions(); ++j) {
      if (std::fabs(t - fam.motion(j).knot) < 1e-6) near_knot = true;
    }
    if (near_knot) continue;
    int id = env.id_at(t);
    ASSERT_GE(id, 0);
    double want = brute_min_at(fam, t);
    EXPECT_NEAR(fam.value(id, t), want, 1e-7 * (1 + std::fabs(want)))
        << "t=" << t << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, JumpEnvelopeProperty,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(2, 5, 9, 16)));

TEST(JumpFamily, SerialMatchesMachine) {
  Rng rng(41);
  JumpFamily fam = random_family(rng, 11);
  Machine m = envelope_machine_hypercube(fam.size(), 3);
  PiecewiseFn par = parallel_envelope(m, fam, 3, true);
  PiecewiseFn ser = envelope_serial(fam, true);
  ASSERT_EQ(par.piece_count(), ser.piece_count());
  for (std::size_t i = 0; i < par.pieces.size(); ++i) {
    EXPECT_EQ(par.pieces[i].id, ser.pieces[i].id);
  }
}

TEST(JumpFamily, KnotAtZeroDropsBeforeBranch) {
  JumpFamily fam({JumpMotion{Polynomial({99.0}), Polynomial({1.0}), 0.0},
                  JumpMotion{Polynomial({2.0}), Polynomial({2.0}), 5.0}});
  PiecewiseFn env = envelope_serial(fam, true);
  // Motion 0's after-branch (value 1) wins everywhere.
  for (double t : {0.5, 3.0, 10.0}) {
    EXPECT_EQ(fam.owner(env.id_at(t)), 0u);
  }
}

}  // namespace
}  // namespace dyncg
