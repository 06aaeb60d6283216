#include <gtest/gtest.h>

#include <cmath>

#include "envelope/parallel_envelope.hpp"
#include "pieces/envelope_serial.hpp"
#include "pram/pram.hpp"
#include "pram/pram_envelope.hpp"
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

TEST(Pram, LedgerBasics) {
  CrewPram pram(64);
  EXPECT_EQ(pram.processors(), 64u);
  pram.charge_steps(5);
  pram.charge_steps(2);
  EXPECT_EQ(pram.steps(), 7u);
  pram.reset();
  EXPECT_EQ(pram.steps(), 0u);
}

TEST(PramEnvelope, MatchesSerial) {
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    PolyFamily fam = random_family(rng, 4 + trial * 3, 2);
    PramEnvelopeResult res = pram_envelope(fam);
    PiecewiseFn want = envelope_serial(fam);
    ASSERT_EQ(res.envelope.piece_count(), want.piece_count());
    for (std::size_t i = 0; i < want.pieces.size(); ++i) {
      EXPECT_EQ(res.envelope.pieces[i].id, want.pieces[i].id);
    }
    EXPECT_GT(res.steps, 0u);
  }
}

TEST(PramEnvelope, StepsAreThetaLogSquared) {
  std::vector<double> norm;
  for (int n : {16, 64, 256, 1024}) {
    Rng rng(static_cast<std::uint64_t>(n));
    PolyFamily fam = random_family(rng, n, 2);
    PramEnvelopeResult res = pram_envelope(fam);
    double lg = std::log2(static_cast<double>(n));
    norm.push_back(static_cast<double>(res.steps) / (lg * lg));
  }
  for (std::size_t i = 1; i < norm.size(); ++i) {
    EXPECT_LT(std::abs(norm[i] - norm[i - 1]) / norm[i - 1], 0.5);
  }
}

TEST(PramEnvelope, ChandranMountModelIsLogarithmic) {
  EXPECT_EQ(chandran_mount_steps(2), kChandranMountConstant);
  EXPECT_EQ(chandran_mount_steps(1024), 10 * kChandranMountConstant);
  Rng rng(1);
  EXPECT_LT(chandran_mount_steps(1 << 16),
            pram_envelope(random_family(rng, 64, 2)).steps * 100);
}

TEST(Pram, CrcwStepCostTracksSortGrade) {
  // Section 6's premise: a mesh emulates one PRAM step in Theta(n^(1/2))
  // rounds, a hypercube in Theta(log^2 n).
  std::vector<double> mesh_norm, cube_norm;
  for (std::size_t n : {64u, 256u, 1024u}) {
    Machine mesh = Machine::mesh_for(n);
    mesh_norm.push_back(static_cast<double>(crcw_step_rounds(mesh)) /
                        std::sqrt(static_cast<double>(n)));
    Machine cube = Machine::hypercube_for(n);
    double lg = std::log2(static_cast<double>(n));
    cube_norm.push_back(static_cast<double>(crcw_step_rounds(cube)) /
                        (lg * lg));
  }
  for (std::size_t i = 1; i < mesh_norm.size(); ++i) {
    EXPECT_LT(std::abs(mesh_norm[i] - mesh_norm[i - 1]) / mesh_norm[i - 1], 0.4);
    EXPECT_LT(std::abs(cube_norm[i] - cube_norm[i - 1]) / cube_norm[i - 1], 0.4);
  }
}

TEST(Pram, DirectSimulationCostComposes) {
  Machine mesh = Machine::mesh_for(256);
  DirectSimulationCost c = direct_simulation_cost(mesh, 10);
  EXPECT_EQ(c.pram_steps, 10u);
  EXPECT_EQ(c.total_rounds, 10 * c.rounds_per_step);
  EXPECT_GT(c.rounds_per_step, 16u);  // at least the mesh diameter-ish
}

TEST(SerialBaseline, MatchesAndCountsOps) {
  Rng rng(9);
  PolyFamily fam = random_family(rng, 20, 2);
  PramEnvelopeResult res = pram_envelope(fam);
  PiecewiseFn want = envelope_serial(fam);
  ASSERT_EQ(res.envelope.piece_count(), want.piece_count());
  EXPECT_GT(res.piece_ops, 20u);
}

// Section 6's headline comparison, as a test: for large n the native mesh
// envelope must be cheaper than direct PRAM simulation, even granting the
// PRAM the idealized Chandran-Mount step count.
TEST(Section6, NativeMeshBeatsDirectSimulation) {
  std::size_t n = 1024;
  Rng rng(42);
  PolyFamily fam = random_family(rng, static_cast<int>(n), 1);
  Machine mesh = envelope_machine_mesh(n, 1);
  CostMeter meter(mesh.ledger());
  parallel_envelope(mesh, fam, 1);
  std::uint64_t native = meter.elapsed().rounds;

  Machine host = envelope_machine_mesh(n, 1);
  DirectSimulationCost sim =
      direct_simulation_cost(host, chandran_mount_steps(n));
  EXPECT_LT(native, sim.total_rounds);
}

}  // namespace
}  // namespace dyncg
