#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "machine/fabric.hpp"
#include "machine/machine.hpp"
#include "machine/topology.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

TEST(Indexing, GrayCodeRoundTripAndAdjacency) {
  for (std::uint64_t i = 0; i < 1024; ++i) {
    EXPECT_EQ(gray_decode(gray_encode(i)), i);
  }
  // Section 2.3: consecutive Gray codes differ in exactly one bit.
  for (std::uint64_t i = 0; i + 1 < 256; ++i) {
    std::uint64_t x = gray_encode(i) ^ gray_encode(i + 1);
    EXPECT_EQ(x & (x - 1), 0u);
    EXPECT_NE(x, 0u);
  }
  // The paper's G_k recursion, first values: 0 1 3 2 6 7 5 4.
  std::uint64_t expect[] = {0, 1, 3, 2, 6, 7, 5, 4};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(gray_encode(i), expect[i]);
}

TEST(Indexing, HilbertRoundTripAndLocality) {
  for (std::uint32_t side : {2u, 4u, 8u, 16u}) {
    for (std::uint64_t d = 0; d < static_cast<std::uint64_t>(side) * side; ++d) {
      RowCol rc = hilbert_d2rc(side, d);
      EXPECT_LT(rc.row, side);
      EXPECT_LT(rc.col, side);
      EXPECT_EQ(hilbert_rc2d(side, rc), d);
    }
    // Property 1 of proximity order: consecutive indices are lattice
    // neighbors.
    for (std::uint64_t d = 0; d + 1 < static_cast<std::uint64_t>(side) * side; ++d) {
      RowCol a = hilbert_d2rc(side, d);
      RowCol b = hilbert_d2rc(side, d + 1);
      int dist = std::abs(static_cast<int>(a.row) - static_cast<int>(b.row)) +
                 std::abs(static_cast<int>(a.col) - static_cast<int>(b.col));
      EXPECT_EQ(dist, 1) << "side=" << side << " d=" << d;
    }
  }
}

TEST(Indexing, ProximitySubmeshProperty) {
  // Property 2: every aligned quarter of the index range occupies one
  // quadrant (a submesh).
  std::uint32_t side = 8;
  std::uint64_t quarter = side * side / 4;
  for (int q = 0; q < 4; ++q) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> quadrants;
    for (std::uint64_t d = q * quarter; d < (q + 1) * quarter; ++d) {
      RowCol rc = hilbert_d2rc(side, d);
      quadrants.insert({rc.row / (side / 2), rc.col / (side / 2)});
    }
    EXPECT_EQ(quadrants.size(), 1u) << "quarter " << q;
  }
}

TEST(Indexing, AllOrdersAreBijections) {
  std::uint32_t side = 8;
  for (MeshOrder order : {MeshOrder::kRowMajor, MeshOrder::kShuffledRowMajor,
                          MeshOrder::kSnake, MeshOrder::kProximity}) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < static_cast<std::uint64_t>(side) * side; ++r) {
      RowCol rc = mesh_rank_to_rc(order, side, r);
      EXPECT_EQ(mesh_rc_to_rank(order, side, rc), r);
      seen.insert(static_cast<std::uint64_t>(rc.row) * side + rc.col);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(side) * side);
  }
}

TEST(Indexing, Figure2SpotChecks) {
  // Figure 2 of the paper, mesh of size 16 (indices by row then column).
  // Row-major row 1: 4 5 6 7.
  EXPECT_EQ(mesh_rc_to_rank(MeshOrder::kRowMajor, 4, RowCol{1, 0}), 4u);
  // Snake-like row 1 runs right-to-left: position (1,0) has index 7.
  EXPECT_EQ(mesh_rc_to_rank(MeshOrder::kSnake, 4, RowCol{1, 0}), 7u);
  // Shuffled row-major: the NE quadrant holds indices 4..7.
  EXPECT_EQ(mesh_rc_to_rank(MeshOrder::kShuffledRowMajor, 4, RowCol{0, 2}), 4u);
  EXPECT_EQ(mesh_rc_to_rank(MeshOrder::kShuffledRowMajor, 4, RowCol{1, 1}), 3u);
}

TEST(MeshTopology, StructureAndDiameter) {
  MeshTopology mesh(4);
  EXPECT_EQ(mesh.size(), 16u);
  EXPECT_EQ(mesh.diameter(), 6u);
  // Corner has 2 neighbors, center has 4.
  EXPECT_EQ(mesh.neighbors(0).size(), 2u);
  EXPECT_EQ(mesh.neighbors(5).size(), 4u);
  EXPECT_TRUE(mesh.adjacent(0, 1));
  EXPECT_TRUE(mesh.adjacent(1, 5));
  EXPECT_FALSE(mesh.adjacent(0, 5));
  EXPECT_EQ(mesh.shortest_path(0, 15), 6u);
}

TEST(MeshTopology, RankOrderConsecutiveAdjacent) {
  for (MeshOrder order : {MeshOrder::kSnake, MeshOrder::kProximity}) {
    MeshTopology mesh(8, order);
    for (std::size_t r = 0; r + 1 < mesh.size(); ++r) {
      EXPECT_TRUE(mesh.adjacent(mesh.node_of_rank(r), mesh.node_of_rank(r + 1)))
          << to_string(order) << " rank " << r;
    }
    EXPECT_EQ(mesh.shift_rounds(), 1u);
  }
}

TEST(MeshTopology, ExchangeCostsScaleAsSqrtOffset) {
  MeshTopology mesh(16, MeshOrder::kShuffledRowMajor);  // 256 PEs
  // Offset 2^k partners lie 2^(k/2) apart in one lattice coordinate.
  for (unsigned k = 0; k < 8; ++k) {
    EXPECT_EQ(mesh.exchange_rounds(k), 1u << (k / 2)) << "k=" << k;
  }
  // Proximity order: same Theta, constant factor bounded (Hilbert locality).
  MeshTopology prox(16, MeshOrder::kProximity);
  for (unsigned k = 0; k < 8; ++k) {
    EXPECT_LE(prox.exchange_rounds(k), 6u * (1u << (k / 2))) << "k=" << k;
    EXPECT_GE(prox.exchange_rounds(k), 1u << (k / 2)) << "k=" << k;
  }
}

TEST(HypercubeTopology, StructureAndCosts) {
  HypercubeTopology cube(4);  // 16 nodes
  EXPECT_EQ(cube.size(), 16u);
  EXPECT_EQ(cube.diameter(), 4u);
  EXPECT_EQ(cube.neighbors(0).size(), 4u);
  EXPECT_TRUE(cube.adjacent(0b0000, 0b0100));
  EXPECT_FALSE(cube.adjacent(0b0000, 0b0110));
  // Gray order: consecutive ranks adjacent (string property).
  for (std::size_t r = 0; r + 1 < cube.size(); ++r) {
    EXPECT_TRUE(cube.adjacent(cube.node_of_rank(r), cube.node_of_rank(r + 1)));
  }
  EXPECT_EQ(cube.shift_rounds(), 1u);
  // Exchange between Gray ranks r and r^2^k: <= 2 hops.
  for (unsigned k = 0; k < 4; ++k) {
    EXPECT_LE(cube.exchange_rounds(k), 2u);
    EXPECT_GE(cube.exchange_rounds(k), 1u);
  }
  // Natural order: exactly one hop per exchange.
  HypercubeTopology nat(4, CubeOrder::kNatural);
  for (unsigned k = 0; k < 4; ++k) EXPECT_EQ(nat.exchange_rounds(k), 1u);
}

TEST(Factories, PaperSizes) {
  // Section 3: mesh of size 4^ceil(log4 n), hypercube of size 2^ceil(log2 n).
  auto mesh = make_mesh_for(5);
  EXPECT_EQ(mesh->size(), 16u);
  auto cube = make_hypercube_for(5);
  EXPECT_EQ(cube->size(), 8u);
  EXPECT_EQ(make_mesh_for(16)->size(), 16u);
  EXPECT_EQ(make_hypercube_for(16)->size(), 16u);
  EXPECT_EQ(make_mesh_for(17)->size(), 64u);
}

TEST(Fabric, CapacityEnforcedAndDelivery) {
  MeshTopology mesh(2);
  Fabric<int> fab(mesh);
  fab.send(0, 1, 7);
  fab.send(1, 0, 8);
  fab.deliver();
  ASSERT_EQ(fab.inbox(1).size(), 1u);
  EXPECT_EQ(fab.inbox(1)[0], 7);
  ASSERT_EQ(fab.inbox(0).size(), 1u);
  EXPECT_EQ(fab.inbox(0)[0], 8);
  EXPECT_EQ(fab.rounds(), 1u);
  EXPECT_DEATH(
      {
        Fabric<int> f2(mesh);
        f2.send(0, 1, 1);
        f2.send(0, 1, 2);  // second word on one directed link
      },
      "link capacity");
  EXPECT_DEATH(
      {
        Fabric<int> f3(mesh);
        f3.send(0, 3, 1);  // not a link
      },
      "non-link");
}

// Layer A validates Layer B's analytic exchange costs: routing the offset
// pattern hop-by-hop must take no more rounds than a small constant times
// the charge (and at least the charge's lower bound, the max distance).
class ExchangeCostValidation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExchangeCostValidation, HopByHopMatchesCharge) {
  auto [which, k] = GetParam();
  std::shared_ptr<const Topology> topo;
  switch (which) {
    case 0: topo = std::make_shared<MeshTopology>(8, MeshOrder::kShuffledRowMajor); break;
    case 1: topo = std::make_shared<MeshTopology>(8, MeshOrder::kProximity); break;
    default: topo = std::make_shared<HypercubeTopology>(6); break;
  }
  if (static_cast<std::size_t>(1) << (k + 1) > topo->size()) GTEST_SKIP();
  std::vector<long> vals(topo->size());
  std::iota(vals.begin(), vals.end(), 0L);
  std::vector<long> expect(vals.size());
  for (std::size_t r = 0; r < vals.size(); ++r) {
    expect[r] = vals[r ^ (std::size_t{1} << k)];
  }
  std::uint64_t measured = fabric_reference::exchange_offset(
      *topo, static_cast<unsigned>(k), vals);
  EXPECT_EQ(vals, expect);
  std::uint64_t charged = topo->exchange_rounds(static_cast<unsigned>(k));
  EXPECT_GE(measured, charged) << "charge must lower-bound reality";
  EXPECT_LE(measured, 4 * charged + 2) << "congestion within documented bounds";
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExchangeCostValidation,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Range(0, 6)));

TEST(FabricReference, ShiftMatchesChargeOnProximityAndGray) {
  for (int which = 0; which < 2; ++which) {
    std::shared_ptr<const Topology> topo;
    if (which == 0) {
      topo = std::make_shared<MeshTopology>(4, MeshOrder::kProximity);
    } else {
      topo = std::make_shared<HypercubeTopology>(4);
    }
    std::vector<long> vals(topo->size());
    std::iota(vals.begin(), vals.end(), 0L);
    std::uint64_t rounds = fabric_reference::shift_up(*topo, vals, -1L);
    for (std::size_t r = 0; r < vals.size(); ++r) {
      EXPECT_EQ(vals[r], static_cast<long>(r) - 1);
    }
    EXPECT_EQ(rounds, topo->shift_rounds());
  }
}

TEST(Machine, LedgerCharges) {
  Machine m = Machine::hypercube_for(16);  // Gray order
  EXPECT_EQ(m.size(), 16u);
  const Topology& t = m.topology();
  CostMeter meter(m.ledger());
  m.charge_exchange(0);
  m.charge_exchange(3);
  m.charge_shift(5);
  m.charge_local(7);
  CostSnapshot c = meter.elapsed();
  EXPECT_EQ(c.rounds, t.exchange_rounds(0) + t.exchange_rounds(3) +
                          5 * t.shift_rounds());
  EXPECT_EQ(c.rounds, 1u + 2u + 5u);  // Gray: offset-8 partners are 2 hops
  EXPECT_EQ(c.local_ops, 7u);
  EXPECT_EQ(c.time(), c.rounds + c.local_ops);
}

}  // namespace
}  // namespace dyncg
