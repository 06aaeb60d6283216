#include <gtest/gtest.h>

#include <cmath>

#include "envelope/parallel_envelope.hpp"
#include "pieces/envelope_serial.hpp"
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

TEST(ParallelEnvelope, MatchesSerialOnSmallFamily) {
  PolyFamily fam({Polynomial({0.0, 1.0}), Polynomial({3.0}),
                  Polynomial({6.0, -0.5})});
  Machine mesh = envelope_machine_mesh(fam.size(), 1);
  PiecewiseFn par = parallel_envelope(mesh, fam, 1);
  PiecewiseFn ser = envelope_serial(fam);
  ASSERT_EQ(par.piece_count(), ser.piece_count());
  for (std::size_t i = 0; i < par.pieces.size(); ++i) {
    EXPECT_EQ(par.pieces[i].id, ser.pieces[i].id);
    EXPECT_EQ(par.pieces[i].iv.lo, ser.pieces[i].iv.lo);
  }
}

// Property: the machine envelope must agree with the serial oracle on both
// topologies, for lower and upper envelopes, across sizes and degrees, bit
// for bit: a crossing time is the same double whichever merge computes it.
class ParallelEnvelopeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(ParallelEnvelopeProperty, AgreesWithSerialOracle) {
  auto [which_machine, n, max_deg, take_min] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + max_deg * 10 + take_min +
                                     which_machine * 7));
  PolyFamily fam = random_family(rng, n, max_deg);
  Machine m = which_machine == 0 ? envelope_machine_mesh(fam.size(), max_deg)
                                 : envelope_machine_hypercube(fam.size(), max_deg);
  EnvelopeRunStats stats;
  PiecewiseFn par = parallel_envelope(m, fam, max_deg, take_min, &stats);
  PiecewiseFn ser = envelope_serial(fam, take_min);
  ASSERT_EQ(par.piece_count(), ser.piece_count())
      << "machine=" << m.topology().name();
  for (std::size_t i = 0; i < par.pieces.size(); ++i) {
    EXPECT_EQ(par.pieces[i].id, ser.pieces[i].id) << "piece " << i;
    EXPECT_EQ(par.pieces[i].iv.lo, ser.pieces[i].iv.lo) << "piece " << i;
    EXPECT_EQ(par.pieces[i].iv.hi, ser.pieces[i].iv.hi) << "piece " << i;
  }
  EXPECT_GE(stats.levels, 1u);
  // Lemma 2.2 audit inside the parallel pipeline.
  EXPECT_TRUE(is_davenport_schinzel(par.origin_sequence(), n, max_deg));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelEnvelopeProperty,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(2, 5, 9, 17, 33, 64),
                       ::testing::Values(1, 2, 3, 4, 6), ::testing::Bool()));

TEST(ParallelEnvelope, MachineSizesFollowLambda) {
  // Theorem 3.2 machine sizes: power of 4 (mesh) / 2 (hypercube) covering
  // lambda(n, s).
  Machine mesh = envelope_machine_mesh(10, 2);
  EXPECT_GE(mesh.size(), lambda_upper_bound(16, 2));
  auto* mt = dynamic_cast<const MeshTopology*>(&mesh.topology());
  ASSERT_NE(mt, nullptr);
  Machine cube = envelope_machine_hypercube(10, 2);
  EXPECT_GE(cube.size(), lambda_upper_bound(16, 2));
}

TEST(ParallelEnvelope, MeshCostIsThetaSqrtLambda) {
  // Theorem 3.2: Theta(lambda_M^(1/2)(n, s)) mesh rounds.  Normalized cost
  // must flatten as n quadruples.
  std::vector<double> norm;
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    Rng rng(n);
    PolyFamily fam = random_family(rng, static_cast<int>(n), 2);
    Machine m = envelope_machine_mesh(n, 2);
    CostMeter meter(m.ledger());
    parallel_envelope(m, fam, 2);
    norm.push_back(static_cast<double>(meter.elapsed().rounds) /
                   std::sqrt(static_cast<double>(m.size())));
  }
  for (std::size_t i = 1; i < norm.size(); ++i) {
    EXPECT_LT(std::abs(norm[i] - norm[i - 1]) / norm[i - 1], 0.4)
        << "step " << i;
  }
}

TEST(ParallelEnvelope, HypercubeCostIsThetaLog2) {
  // Theta(log^2 n) hypercube rounds: normalized by log^2(P) must flatten.
  std::vector<double> norm;
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    Rng rng(n);
    PolyFamily fam = random_family(rng, static_cast<int>(n), 2);
    Machine m = envelope_machine_hypercube(n, 2);
    CostMeter meter(m.ledger());
    parallel_envelope(m, fam, 2);
    double lg = std::log2(static_cast<double>(m.size()));
    norm.push_back(static_cast<double>(meter.elapsed().rounds) / (lg * lg));
  }
  for (std::size_t i = 1; i < norm.size(); ++i) {
    EXPECT_LT(std::abs(norm[i] - norm[i - 1]) / norm[i - 1], 0.4)
        << "step " << i;
  }
}

TEST(ParallelEnvelope, SingleFunction) {
  PolyFamily fam({Polynomial({2.0, -1.0})});
  Machine m = envelope_machine_hypercube(1, 1);
  PiecewiseFn env = parallel_envelope(m, fam, 1);
  ASSERT_EQ(env.piece_count(), 1u);
  EXPECT_EQ(env.pieces[0].id, 0);
}


TEST(AdaptiveEnvelope, MatchesStandardResult) {
  Rng rng(55);
  PolyFamily fam = random_family(rng, 40, 3);
  Machine m1 = envelope_machine_mesh(40, 3);
  PiecewiseFn std_env = parallel_envelope(m1, fam, 3);
  Machine m2 = envelope_machine_mesh(40, 3);
  PiecewiseFn ad_env = parallel_envelope(m2, fam, 3, true, nullptr,
                                         /*adaptive=*/true);
  ASSERT_EQ(std_env.piece_count(), ad_env.piece_count());
  for (std::size_t i = 0; i < std_env.pieces.size(); ++i) {
    EXPECT_EQ(std_env.pieces[i].id, ad_env.pieces[i].id);
  }
}

TEST(AdaptiveEnvelope, BestCaseMeshIsCheaper) {
  // Section 3's observation: when the envelope collapses (here one function
  // dominates everywhere), the adaptive submesh scheme beats the
  // worst-case-sized run on the mesh.
  std::size_t n = 256;
  std::vector<Polynomial> fns;
  fns.push_back(Polynomial::constant(-1000.0));  // dominates forever
  Rng rng(66);
  for (std::size_t i = 1; i < n; ++i) {
    fns.push_back(Polynomial(
        {rng.uniform(0.0, 5.0), rng.uniform(-1, 1), rng.uniform(0.0, 1.0)}));
  }
  PolyFamily fam(std::move(fns));
  Machine m1 = envelope_machine_mesh(n, 4);
  CostMeter c1(m1.ledger());
  parallel_envelope(m1, fam, 4);
  Machine m2 = envelope_machine_mesh(n, 4);
  CostMeter c2(m2.ledger());
  PiecewiseFn env = parallel_envelope(m2, fam, 4, true, nullptr, true);
  EXPECT_LE(env.piece_count(), 3u);
  EXPECT_LT(c2.elapsed().rounds, c1.elapsed().rounds * 3 / 4)
      << "adaptive should save at least 25% here";
}

TEST(AdaptiveEnvelope, HypercubeGainsLittle) {
  // "The same is not true of the hypercube": log(width) shrinks by at most
  // a constant factor, so the adaptive run saves much less relative cost.
  std::size_t n = 256;
  std::vector<Polynomial> fns;
  fns.push_back(Polynomial::constant(-1000.0));
  Rng rng(67);
  for (std::size_t i = 1; i < n; ++i) {
    fns.push_back(Polynomial(
        {rng.uniform(0.0, 5.0), rng.uniform(-1, 1), rng.uniform(0.0, 1.0)}));
  }
  PolyFamily fam(std::move(fns));
  Machine m1 = envelope_machine_hypercube(n, 4);
  CostMeter c1(m1.ledger());
  parallel_envelope(m1, fam, 4);
  Machine m2 = envelope_machine_hypercube(n, 4);
  CostMeter c2(m2.ledger());
  parallel_envelope(m2, fam, 4, true, nullptr, true);
  double mesh_like_gain =
      static_cast<double>(c2.elapsed().rounds) /
      static_cast<double>(c1.elapsed().rounds);
  // Adaptive stays within 2x of standard either way on the hypercube.
  EXPECT_GT(mesh_like_gain, 0.5);
}

TEST(ParallelEnvelope, GenericCombineMaxEqualsSerialUpper) {
  Rng rng(77);
  PolyFamily fam = random_family(rng, 12, 2);
  Machine m = envelope_machine_mesh(12, 2);
  PiecewiseFn upper = parallel_envelope(m, fam, 2, /*take_min=*/false);
  for (double t = 0.05; t < 30; t *= 1.7) {
    int id = upper.id_at(t);
    int want = extremum_member_at(fam, t, /*take_min=*/false);
    EXPECT_NEAR(fam.value(id, t), fam.value(want, t),
                1e-7 * (1 + std::fabs(fam.value(want, t))));
  }
}

}  // namespace
}  // namespace dyncg
