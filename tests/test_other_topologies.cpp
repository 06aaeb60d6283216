#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "envelope/parallel_envelope.hpp"
#include "machine/fabric.hpp"
#include "machine/other_topologies.hpp"
#include "ops/basic.hpp"
#include "ops/sorting.hpp"
#include "pieces/envelope_serial.hpp"
#include "pieces/jump_family.hpp"
#include "pieces/sqrt_family.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

TEST(CubeConnectedCycles, StructuralInvariants) {
  CubeConnectedCycles ccc(4);  // 4 * 16 = 64 PEs
  EXPECT_EQ(ccc.size(), 64u);
  // Degree 3 everywhere (cycle +- 1 and one cube edge).
  for (std::size_t v = 0; v < ccc.size(); ++v) {
    EXPECT_EQ(ccc.neighbors(v).size(), 3u) << v;
    for (std::size_t w : ccc.neighbors(v)) {
      EXPECT_TRUE(ccc.adjacent(v, w));
      EXPECT_TRUE(ccc.adjacent(w, v));  // symmetric
    }
  }
  // Connected: every distance finite, diameter Theta(d).
  for (std::size_t v = 0; v < ccc.size(); ++v) {
    EXPECT_LT(ccc.shortest_path(0, v), 0xffffu);
  }
  EXPECT_GE(ccc.diameter(), 4u);
  EXPECT_LE(ccc.diameter(), 3u * 4u);
  // Rank order is a bijection.
  std::set<std::size_t> seen;
  for (std::size_t r = 0; r < ccc.size(); ++r) {
    std::size_t v = ccc.node_of_rank(r);
    EXPECT_EQ(ccc.rank_of_node(v), r);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), ccc.size());
  // Consecutive ranks within a cycle are physical neighbors.
  std::size_t adjacent_pairs = 0;
  for (std::size_t r = 0; r + 1 < ccc.size(); ++r) {
    if (ccc.adjacent(ccc.node_of_rank(r), ccc.node_of_rank(r + 1))) {
      ++adjacent_pairs;
    }
  }
  EXPECT_GE(adjacent_pairs, ccc.size() * 3 / 4);
}

TEST(ShuffleExchange, StructuralInvariants) {
  ShuffleExchange se(6);  // 64 nodes
  EXPECT_EQ(se.size(), 64u);
  EXPECT_EQ(se.rotl(0b000001), 0b000010u);
  EXPECT_EQ(se.rotl(0b100000), 0b000001u);
  EXPECT_EQ(se.rotr(se.rotl(42)), 42u);
  for (std::size_t v = 0; v < se.size(); ++v) {
    EXPECT_LE(se.neighbors(v).size(), 3u);
    EXPECT_GE(se.neighbors(v).size(), 1u);
    for (std::size_t w : se.neighbors(v)) EXPECT_TRUE(se.adjacent(v, w));
    EXPECT_LT(se.shortest_path(0, v), 0xffffu);
  }
  // Diameter Theta(log n): known to be <= 2 log n - 1.
  EXPECT_LE(se.diameter(), 2u * 6u - 1u);
  EXPECT_GE(se.diameter(), 6u);
}

// The whole op stack must run unchanged on the new architectures.
class OtherTopologyOps : public ::testing::TestWithParam<int> {};

Machine make_machine(int which) {
  if (which == 0) return Machine(std::make_shared<CubeConnectedCycles>(4));
  return Machine(std::make_shared<ShuffleExchange>(6));
}

TEST_P(OtherTopologyOps, ReducePrefixSortAllWork) {
  Machine m = make_machine(GetParam());
  std::size_t n = m.size();
  std::vector<long> v(n, 1);
  ops::reduce(m, v, std::plus<long>{});
  for (long x : v) EXPECT_EQ(x, static_cast<long>(n));

  std::vector<long> p(n, 1);
  ops::prefix(m, p, std::plus<long>{});
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(p[r], static_cast<long>(r + 1));

  Rng rng(3);
  std::vector<long> s(n);
  for (long& x : s) x = rng.uniform_int(0, 1000);
  std::vector<long> expect = s;
  std::sort(expect.begin(), expect.end());
  ops::bitonic_sort(m, s);
  EXPECT_EQ(s, expect);
}

TEST_P(OtherTopologyOps, EnvelopeMatchesSerialOracle) {
  Machine m = make_machine(GetParam());
  Rng rng(17);
  std::vector<Polynomial> fns;
  for (int i = 0; i < 20; ++i) {
    fns.push_back(Polynomial({rng.uniform(-3, 3), rng.uniform(-2, 2),
                              rng.uniform(-1, 1)}));
  }
  PolyFamily fam(std::move(fns));
  PiecewiseFn par = parallel_envelope(m, fam, 2);
  PiecewiseFn ser = envelope_serial(fam);
  ASSERT_EQ(par.piece_count(), ser.piece_count());
  for (std::size_t i = 0; i < par.pieces.size(); ++i) {
    EXPECT_EQ(par.pieces[i].id, ser.pieces[i].id);
  }
}


TEST_P(OtherTopologyOps, NonPolynomialFamiliesRunToo) {
  // Full cross-product: the Section 6 generalized families on the
  // Section 6 architectures.
  Machine m = make_machine(GetParam());
  Rng rng(29);
  std::vector<SqrtMotion> sm;
  for (int i = 0; i < 12; ++i) {
    sm.push_back(SqrtMotion{rng.uniform(-3, 3), rng.uniform(-2, 2),
                            rng.uniform(-1, 1)});
  }
  SqrtFamily sf(std::move(sm));
  PiecewiseFn a = parallel_envelope(m, sf, 2, true);
  PiecewiseFn b = envelope_serial(sf, true);
  ASSERT_EQ(a.piece_count(), b.piece_count());

  std::vector<JumpMotion> jm;
  for (int i = 0; i < 10; ++i) {
    jm.push_back(JumpMotion{Polynomial({rng.uniform(-3, 3), rng.uniform(-1, 1)}),
                            Polynomial({rng.uniform(-3, 3), rng.uniform(-1, 1)}),
                            rng.uniform(0.5, 6.0)});
  }
  JumpFamily jf(std::move(jm));
  PiecewiseFn c = parallel_envelope(m, jf, 3, true);
  PiecewiseFn d = envelope_serial(jf, true);
  ASSERT_EQ(c.piece_count(), d.piece_count());
  for (std::size_t i = 0; i < c.pieces.size(); ++i) {
    EXPECT_EQ(c.pieces[i].id, d.pieces[i].id);
  }
}

INSTANTIATE_TEST_SUITE_P(Both, OtherTopologyOps, ::testing::Values(0, 1));

TEST(OtherTopologies, ExchangeCostsAreLogarithmic) {
  // Degree-3 hypercubic networks emulate offset exchanges in O(log n) hops,
  // so ladders stay polylog — the "efficient algorithms for these
  // architectures" the paper anticipates.
  CubeConnectedCycles ccc(4);
  ShuffleExchange se(8);
  for (unsigned k = 0; (std::size_t{2} << k) <= ccc.size(); ++k) {
    EXPECT_LE(ccc.exchange_rounds(k), ccc.diameter());
  }
  for (unsigned k = 0; (std::size_t{2} << k) <= se.size(); ++k) {
    EXPECT_LE(se.exchange_rounds(k), se.diameter());
  }
}

TEST(OtherTopologies, Factories) {
  EXPECT_EQ(make_ccc_for(8)->size(), 8u);
  EXPECT_EQ(make_ccc_for(9)->size(), 64u);
  EXPECT_EQ(make_ccc_for(65)->size(), 2048u);
  EXPECT_EQ(make_shuffle_exchange_for(100)->size(), 128u);
}

TEST(OtherTopologies, FabricRunsOnThem) {
  // Hop-by-hop validation: the queued router works on arbitrary topologies
  // through the generic next-hop... the dimension-order router only knows
  // mesh/hypercube, so validate with a direct Fabric ping instead.
  CubeConnectedCycles ccc(2);
  Fabric<int> fab(ccc);
  std::size_t v = 0;
  std::size_t w = ccc.neighbors(0)[0];
  fab.send(v, w, 99);
  fab.deliver();
  ASSERT_EQ(fab.inbox(w).size(), 1u);
  EXPECT_EQ(fab.inbox(w)[0], 99);
}

}  // namespace
}  // namespace dyncg
