#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>

#include "machine/faults.hpp"
#include "ops/basic.hpp"
#include "ops/crcw.hpp"
#include "ops/sorting.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

Machine mesh16() { return Machine::mesh_for(16); }

TEST(OpsReduce, SumAndMin) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 1L);
  ops::reduce(m, v, std::plus<long>{});
  for (long x : v) EXPECT_EQ(x, 136);
  std::vector<long> w{5, 3, 9, 1, 7, 2, 8, 6, 4, 0, 11, 12, 13, 14, 15, 10};
  ops::reduce(m, w, [](long a, long b) { return std::min(a, b); });
  for (long x : w) EXPECT_EQ(x, 0);
}

TEST(OpsReduce, BlockWidths) {
  Machine m = mesh16();
  std::vector<long> v(16, 1);
  ops::reduce(m, v, std::plus<long>{}, 4);
  for (long x : v) EXPECT_EQ(x, 4);
}

TEST(OpsReduce, NonCommutativeRespectsRankOrder) {
  Machine m = Machine::hypercube_for(8);
  std::vector<std::string> v{"a", "b", "c", "d", "e", "f", "g", "h"};
  ops::reduce(m, v, [](const std::string& x, const std::string& y) {
    return x + y;
  });
  for (const auto& s : v) EXPECT_EQ(s, "abcdefgh");
}

// The PE-by-PE doubling ladder that ops::reduce stands for: at level k
// every PE combines its register with a snapshot of its partner r ^ 2^k's,
// the lower rank's block first.
template <class T, class Op>
void ladder_reduce(Machine& m, std::vector<T>& regs, Op op,
                   std::size_t width) {
  const std::size_t n = m.size();
  for (int k = 0; k < floor_log2(width); ++k) {
    const std::size_t stride = std::size_t{1} << k;
    m.charge_exchange(static_cast<unsigned>(k));
    m.charge_local(1);
    const std::vector<T> incoming(regs);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t partner = r ^ stride;
      regs[r] = (r & stride) ? op(incoming[partner], regs[r])
                             : op(regs[r], incoming[partner]);
    }
  }
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

struct FoldSetting {
  std::string label;
  std::function<Machine()> make;
  const FaultPlan* plan;
};

// Every machine of the sweep: a 64-PE mesh and hypercube, each fault-free,
// with a downed link between ranks 0 and 1 and with rank 5's PE down.
std::vector<FoldSetting> fold_settings(std::vector<FaultPlan>& plans) {
  const std::vector<std::pair<std::string, std::function<Machine()>>> machines{
      {"mesh", [] { return Machine::mesh_for(64); }},
      {"hypercube", [] { return Machine::hypercube_for(64); }}};
  plans.clear();
  plans.reserve(2 * machines.size());
  std::vector<FoldSetting> out;
  for (const auto& [name, make] : machines) {
    Machine probe = make();
    const Topology& t = probe.topology();
    plans.push_back(
        FaultPlan::single_link_down(t.node_of_rank(0), t.node_of_rank(1)));
    const FaultPlan* link = &plans.back();
    plans.push_back(FaultPlan::single_pe_down(t.node_of_rank(5)));
    const FaultPlan* pe = &plans.back();
    out.push_back({name, make, nullptr});
    out.push_back({name + " link down", make, link});
    out.push_back({name + " pe down", make, pe});
  }
  return out;
}

// Runs ops::reduce and the ladder from `init` at every block width and
// hands both register files to `same`; the ledgers must match exactly.
template <class T, class Op, class Same>
void expect_fold_matches_ladder(const std::vector<T>& init, Op op,
                                Same same) {
  std::vector<FaultPlan> plans;
  for (const FoldSetting& s : fold_settings(plans)) {
    for (std::size_t width = 1; width <= init.size(); width *= 2) {
      SCOPED_TRACE(s.label + ", width " + std::to_string(width));
      Machine folded = s.make(), laddered = s.make();
      folded.set_fault_plan(s.plan);
      laddered.set_fault_plan(s.plan);
      std::vector<T> got = init, want = init;
      ops::reduce(folded, got, op, width);
      ladder_reduce(laddered, want, op, width);
      same(got, want);
      const CostSnapshot a = folded.ledger().snapshot();
      const CostSnapshot b = laddered.ledger().snapshot();
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.messages, b.messages);
      EXPECT_EQ(a.local_ops, b.local_ops);
    }
  }
}

TEST(OpsReduce, FoldMatchesLadderOnStrings) {
  std::vector<std::string> v;
  for (int r = 0; r < 64; ++r) v.push_back(std::to_string(r) + ",");
  expect_fold_matches_ladder(
      v, [](const std::string& x, const std::string& y) { return x + y; },
      [](const std::vector<std::string>& got,
         const std::vector<std::string>& want) { EXPECT_EQ(got, want); });
}

// A floating-point sum is not associative, so the bits depend on the
// ladder's association: pairs first, then pairs of pairs.
TEST(OpsReduce, FoldMatchesLadderOnFloatingPointSums) {
  Rng rng(11);
  std::vector<double> v(64);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-8.0, 8.0));
  }
  // The data tells associations apart: a left-to-right sum differs.
  const double left = std::accumulate(v.begin(), v.end(), 0.0);
  std::vector<double> tree = v;
  Machine m = Machine::hypercube_for(64);
  ladder_reduce(m, tree, std::plus<double>{}, 64);
  EXPECT_NE(std::bit_cast<std::uint64_t>(left),
            std::bit_cast<std::uint64_t>(tree[0]));
  expect_fold_matches_ladder(
      v, std::plus<double>{},
      [](const std::vector<double>& got, const std::vector<double>& want) {
        EXPECT_EQ(bits_of(got), bits_of(want));
      });
}


TEST(OpsReduce, SegmentedReduceArbitraryStrings) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 1L);  // 1..16
  std::vector<char> seg(16, 0);
  seg[0] = seg[3] = seg[9] = seg[10] = 1;  // strings 0-2, 3-8, 9, 10-15
  ops::segmented_reduce(m, v, seg, std::plus<long>{});
  long s1 = 1 + 2 + 3, s2 = 4 + 5 + 6 + 7 + 8 + 9, s3 = 10,
       s4 = 11 + 12 + 13 + 14 + 15 + 16;
  std::vector<long> expect{s1, s1, s1, s2, s2, s2, s2, s2, s2,
                           s3, s4, s4, s4, s4, s4, s4};
  EXPECT_EQ(v, expect);
}

TEST(OpsReduce, SegmentedReduceMinOverUnevenStrings) {
  Machine m = Machine::hypercube_for(8);
  std::vector<long> v{5, 2, 9, 7, 1, 8, 4, 6};
  std::vector<char> seg{1, 0, 0, 0, 0, 1, 0, 0};  // 0-4 and 5-7
  ops::segmented_reduce(m, v, seg,
                        [](long a, long b) { return std::min(a, b); });
  std::vector<long> expect{1, 1, 1, 1, 1, 4, 4, 4};
  EXPECT_EQ(v, expect);
}

TEST(OpsReduce, SegmentedReduceSingleString) {
  Machine m = mesh16();
  std::vector<long> v(16, 2);
  std::vector<char> seg(16, 0);
  seg[0] = 1;
  ops::segmented_reduce(m, v, seg, std::plus<long>{});
  for (long x : v) EXPECT_EQ(x, 32);
}

TEST(OpsBroadcast, FromAnySource) {
  for (std::size_t src : {0u, 3u, 15u}) {
    Machine m = mesh16();
    std::vector<long> v(16, -1);
    v[src] = 42;
    ops::broadcast(m, v, src);
    for (long x : v) EXPECT_EQ(x, 42);
  }
}

TEST(OpsPrefix, InclusiveScan) {
  Machine m = mesh16();
  std::vector<long> v(16, 1);
  ops::prefix(m, v, std::plus<long>{});
  for (std::size_t r = 0; r < 16; ++r) EXPECT_EQ(v[r], static_cast<long>(r + 1));
}

TEST(OpsPrefix, SegmentedScan) {
  Machine m = mesh16();
  std::vector<long> v(16, 1);
  std::vector<char> seg(16, 0);
  seg[0] = seg[5] = seg[11] = 1;
  ops::segmented_prefix(m, v, seg, std::plus<long>{});
  std::vector<long> expect{1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5};
  EXPECT_EQ(v, expect);
}

TEST(OpsShift, UpAndDown) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 0L);
  ops::shift_up(m, v, 3, -1L);
  EXPECT_EQ(v[0], -1);
  EXPECT_EQ(v[2], -1);
  EXPECT_EQ(v[3], 0);
  EXPECT_EQ(v[15], 12);
  std::iota(v.begin(), v.end(), 0L);
  ops::shift_down(m, v, 2, -1L);
  EXPECT_EQ(v[0], 2);
  EXPECT_EQ(v[13], 15);
  EXPECT_EQ(v[14], -1);
}

TEST(OpsShift, BlockLocal) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 0L);
  ops::shift_up(m, v, 1, -1L, 4);
  // Each block of 4 shifts independently.
  std::vector<long> expect{-1, 0, 1, 2, -1, 4, 5, 6, -1, 8, 9, 10, -1, 12, 13, 14};
  EXPECT_EQ(v, expect);
}

TEST(OpsPack, CompressesFlaggedItems) {
  Machine m = mesh16();
  std::vector<std::optional<long>> v(16);
  for (std::size_t r = 0; r < 16; r += 3) v[r] = static_cast<long>(r);
  std::vector<std::size_t> counts;
  ops::pack(m, v, &counts);
  ASSERT_TRUE(v[0].has_value());
  std::vector<long> got;
  for (auto& x : v) {
    if (x.has_value()) got.push_back(*x);
  }
  EXPECT_EQ(got, (std::vector<long>{0, 3, 6, 9, 12, 15}));
  for (std::size_t r = 0; r < 6; ++r) EXPECT_TRUE(v[r].has_value());
  for (std::size_t r = 6; r < 16; ++r) EXPECT_FALSE(v[r].has_value());
  for (std::size_t c : counts) EXPECT_EQ(c, 6u);
}

// --- sorting ---------------------------------------------------------------

class SortCorrectness : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SortCorrectness, BitonicSortsRandomInput) {
  auto [which, seed] = GetParam();
  Machine m = which == 0 ? Machine::mesh_for(64) : Machine::hypercube_for(64);
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<long> v(64);
  for (long& x : v) x = rng.uniform_int(-1000, 1000);
  std::vector<long> expect = v;
  std::sort(expect.begin(), expect.end());
  ops::bitonic_sort(m, v);
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SortCorrectness,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Range(0, 10)));

TEST(OpsSort, BlockSort) {
  Machine m = mesh16();
  std::vector<long> v{4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9, 16, 15, 14, 13};
  ops::bitonic_sort(m, v, std::less<long>{}, 4);
  std::vector<long> expect{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_EQ(v, expect);
}

TEST(OpsSort, CustomComparatorDescending) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 0L);
  ops::bitonic_sort(m, v, std::greater<long>{});
  for (std::size_t r = 0; r + 1 < 16; ++r) EXPECT_GE(v[r], v[r + 1]);
}

TEST(OpsMerge, MergesTwoSortedHalves) {
  Machine m = mesh16();
  std::vector<long> v{1, 3, 5, 7, 9, 11, 13, 15, 0, 2, 4, 6, 8, 10, 12, 14};
  ops::bitonic_merge(m, v);
  for (std::size_t r = 0; r < 16; ++r) EXPECT_EQ(v[r], static_cast<long>(r));
}

TEST(OpsMerge, CheaperThanSort) {
  Machine ms = mesh16();
  std::vector<long> v{1, 3, 5, 7, 9, 11, 13, 15, 0, 2, 4, 6, 8, 10, 12, 14};
  CostMeter meter(ms.ledger());
  ops::bitonic_merge(ms, v);
  auto merge_cost = meter.elapsed();

  Machine ms2 = mesh16();
  std::vector<long> w(16);
  std::iota(w.rbegin(), w.rend(), 0L);
  CostMeter meter2(ms2.ledger());
  ops::bitonic_sort(ms2, w);
  auto sort_cost = meter2.elapsed();
  EXPECT_LT(merge_cost.rounds, sort_cost.rounds);
}

TEST(OpsSort, OddEvenTransposition) {
  Machine m = mesh16();
  Rng rng(3);
  std::vector<long> v(16);
  for (long& x : v) x = rng.uniform_int(0, 100);
  std::vector<long> expect = v;
  std::sort(expect.begin(), expect.end());
  CostMeter meter(m.ledger());
  ops::odd_even_transposition_sort(m, v);
  EXPECT_EQ(v, expect);
  // Theta(n) rounds.
  EXPECT_EQ(meter.elapsed().rounds, 16u);
}

TEST(OpsSort, Shearsort) {
  Machine m = Machine::mesh_for(64);
  Rng rng(5);
  std::vector<long> v(64);
  for (long& x : v) x = rng.uniform_int(0, 1000);
  std::vector<long> expect = v;
  std::sort(expect.begin(), expect.end());
  ops::shearsort(m, v);
  EXPECT_EQ(v, expect);
}

TEST(OpsSort, RandomizedModelSortsAndChargesLogN) {
  Machine m = Machine::hypercube_for(256);
  Rng rng(9);
  std::vector<long> v(256);
  for (long& x : v) x = rng.uniform_int(0, 10000);
  std::vector<long> expect = v;
  std::sort(expect.begin(), expect.end());
  CostMeter meter(m.ledger());
  ops::randomized_sort_model(m, v);
  EXPECT_EQ(v, expect);
  EXPECT_EQ(meter.elapsed().rounds, ops::kFlashsortConstant * 8u);
}

// Table 1 scaling: mesh sort rounds must grow like sqrt(n), hypercube like
// log^2 n.
TEST(OpsSortScaling, MeshBitonicIsThetaSqrtN) {
  std::vector<double> ratio;
  for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
    Machine m(std::make_shared<MeshTopology>(
        static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n))),
        MeshOrder::kShuffledRowMajor));
    std::vector<long> v(n);
    std::iota(v.rbegin(), v.rend(), 0L);
    CostMeter meter(m.ledger());
    ops::bitonic_sort(m, v);
    ratio.push_back(static_cast<double>(meter.elapsed().rounds) /
                    std::sqrt(static_cast<double>(n)));
  }
  // rounds / sqrt(n) approaches a constant: successive quadruplings of n
  // change the normalized cost by less than 35%.
  for (std::size_t i = 1; i < ratio.size(); ++i) {
    EXPECT_LT(std::abs(ratio[i] - ratio[i - 1]) / ratio[i - 1], 0.35)
        << "n step " << i;
  }
}

TEST(OpsSortScaling, HypercubeBitonicIsThetaLog2N) {
  for (std::size_t n : {64u, 256u, 1024u}) {
    Machine m = Machine::hypercube_for(n, CubeOrder::kNatural);
    std::vector<long> v(n);
    std::iota(v.rbegin(), v.rend(), 0L);
    CostMeter meter(m.ledger());
    ops::bitonic_sort(m, v);
    double lg = std::log2(static_cast<double>(n));
    // Exactly log(n)(log(n)+1)/2 stages, one round each in natural order.
    EXPECT_EQ(meter.elapsed().rounds,
              static_cast<std::uint64_t>(lg * (lg + 1) / 2));
  }
}

// --- concurrent read / write ------------------------------------------------

TEST(OpsCrcw, ConcurrentReadExact) {
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> data(16);
  std::vector<std::optional<long>> queries(16);
  // PE r owns key 10r with value r*r (r < 8); PEs 8..15 query key 10*(r-8).
  for (std::size_t r = 0; r < 8; ++r) data[r] = std::pair<long, long>{10 * static_cast<long>(r), static_cast<long>(r * r)};
  for (std::size_t r = 8; r < 16; ++r) queries[r] = 10 * (static_cast<long>(r) - 8);
  auto got = ops::concurrent_read<long, long>(m, data, queries);
  for (std::size_t r = 0; r < 8; ++r) EXPECT_FALSE(got[r].has_value());
  for (std::size_t r = 8; r < 16; ++r) {
    ASSERT_TRUE(got[r].has_value()) << r;
    long j = static_cast<long>(r) - 8;
    EXPECT_EQ(*got[r], j * j);
  }
}

TEST(OpsCrcw, ConcurrentReadMissingKey) {
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> data(16);
  std::vector<std::optional<long>> queries(16);
  data[0] = std::pair<long, long>{5, 50};
  queries[1] = 5;   // hit
  queries[2] = 6;   // miss
  queries[3] = 4;   // miss (exact match required)
  auto got = ops::concurrent_read<long, long>(m, data, queries);
  EXPECT_EQ(got[1].value_or(-1), 50);
  EXPECT_FALSE(got[2].has_value());
  EXPECT_FALSE(got[3].has_value());
}

TEST(OpsCrcw, PredecessorLocate) {
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> data(16);
  std::vector<std::optional<long>> queries(16);
  // Boundaries at 0, 10, 20, 30 with payload = boundary index.
  for (long b = 0; b < 4; ++b) data[static_cast<std::size_t>(b)] = std::pair<long, long>{10 * b, b};
  queries[8] = 15;  // -> boundary 10 (index 1)
  queries[9] = 10;  // exact -> index 1
  queries[10] = 99; // -> index 3
  queries[11] = -1; // before all boundaries -> none
  auto got = ops::concurrent_read<long, long>(m, data, queries,
                                              /*exact_match=*/false);
  EXPECT_EQ(got[8].value_or(-9), 1);
  EXPECT_EQ(got[9].value_or(-9), 1);
  EXPECT_EQ(got[10].value_or(-9), 3);
  EXPECT_FALSE(got[11].has_value());
}

TEST(OpsCrcw, ManyReadersOneKey) {
  // The concurrent part: every PE reads the same key.
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> data(16);
  std::vector<std::optional<long>> queries(16);
  data[7] = std::pair<long, long>{1, 777};
  for (std::size_t r = 0; r < 16; ++r) queries[r] = 1;
  auto got = ops::concurrent_read<long, long>(m, data, queries);
  for (std::size_t r = 0; r < 16; ++r) EXPECT_EQ(got[r].value_or(-1), 777);
}

TEST(OpsCrcw, ConcurrentWriteCombines) {
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> reqs(16);
  std::vector<std::optional<long>> owners(16);
  // Eight writers write r to key r%2; PEs 14,15 own keys 0,1.
  for (std::size_t r = 0; r < 8; ++r) reqs[r] = std::pair<long, long>{static_cast<long>(r % 2), static_cast<long>(r)};
  owners[14] = 0;
  owners[15] = 1;
  auto got = ops::concurrent_write<long, long>(
      m, reqs, owners, [](long a, long b) { return a + b; });
  EXPECT_EQ(got[14].value_or(-1), 0 + 2 + 4 + 6);
  EXPECT_EQ(got[15].value_or(-1), 1 + 3 + 5 + 7);
  for (std::size_t r = 0; r < 14; ++r) EXPECT_FALSE(got[r].has_value());
}

TEST(OpsCrcw, RoutePermutation) {
  Machine m = mesh16();
  Rng rng(21);
  auto perm = rng.permutation(16);
  std::vector<std::optional<long>> v(16);
  std::vector<std::size_t> dest(16);
  for (std::size_t r = 0; r < 16; ++r) {
    v[r] = static_cast<long>(r);
    dest[r] = perm[r];
  }
  ops::route(m, v, dest);
  for (std::size_t r = 0; r < 16; ++r) {
    ASSERT_TRUE(v[perm[r]].has_value());
    EXPECT_EQ(*v[perm[r]], static_cast<long>(r));
  }
}

// A key that counts its copies (moves too: declaring the copy operations
// leaves it no move constructor).
struct CountedKey {
  static inline long copies = 0;
  long v = 0;
  CountedKey() = default;
  explicit CountedKey(long x) : v(x) {}
  CountedKey(const CountedKey& o) : v(o.v) { ++copies; }
  CountedKey& operator=(const CountedKey& o) {
    v = o.v;
    ++copies;
    return *this;
  }
  bool operator<(const CountedKey& o) const { return v < o.v; }
  bool operator==(const CountedKey& o) const { return v == o.v; }
};

// The read sorts pointers to the caller's keys and scans positions, so a
// key is never copied; answers and charges are those of plain `long` keys,
// duplicates and misses included, in both match modes.
TEST(OpsCrcw, ConcurrentReadCopiesNoKey) {
  for (bool exact : {true, false}) {
    SCOPED_TRACE(exact ? "exact" : "predecessor");
    Rng rng(exact ? 5 : 6);
    const std::size_t n = 64;
    std::vector<std::optional<std::pair<long, long>>> data(n);
    std::vector<std::optional<long>> queries(n);
    std::vector<std::optional<std::pair<CountedKey, long>>> counted_data(n);
    std::vector<std::optional<CountedKey>> counted_queries(n);
    for (std::size_t r = 0; r < n; ++r) {
      if (rng.uniform(0, 1) < 0.6) {
        const long key = rng.uniform_int(0, 40);
        data[r] = std::pair<long, long>{key, static_cast<long>(r)};
        counted_data[r].emplace(CountedKey(key), static_cast<long>(r));
      }
      if (rng.uniform(0, 1) < 0.7) {
        const long key = rng.uniform_int(-2, 42);
        queries[r] = key;
        counted_queries[r].emplace(key);
      }
    }
    Machine plain = Machine::hypercube_for(n);
    const auto want = ops::concurrent_read<long, long>(plain, data, queries,
                                                       exact);
    Machine counted = Machine::hypercube_for(n);
    CountedKey::copies = 0;
    const auto got = ops::concurrent_read<CountedKey, long>(
        counted, counted_data, counted_queries, exact);
    EXPECT_EQ(CountedKey::copies, 0);
    EXPECT_EQ(got, want);
    const CostSnapshot a = plain.ledger().snapshot();
    const CostSnapshot b = counted.ledger().snapshot();
    EXPECT_EQ(b.rounds, a.rounds);
    EXPECT_EQ(b.messages, a.messages);
    EXPECT_EQ(b.local_ops, a.local_ops);
    EXPECT_GT(std::count_if(want.begin(), want.end(),
                            [](const auto& v) { return v.has_value(); }),
              10);
  }
}

// Table 1 check: CR cost tracks the sort cost (2 sorts + scan).
TEST(OpsCrcw, CostTracksSort) {
  Machine m1 = Machine::mesh_for(256);
  std::vector<std::optional<std::pair<long, long>>> data(256);
  std::vector<std::optional<long>> queries(256);
  for (std::size_t r = 0; r < 128; ++r) data[r] = std::pair<long, long>{static_cast<long>(r), 1L};
  for (std::size_t r = 128; r < 256; ++r) queries[r] = static_cast<long>(r - 128);
  CostMeter cr_meter(m1.ledger());
  ops::concurrent_read<long, long>(m1, data, queries);
  auto cr = cr_meter.elapsed();

  Machine m2 = Machine::mesh_for(256);
  std::vector<long> v(256);
  std::iota(v.rbegin(), v.rend(), 0L);
  CostMeter sort_meter(m2.ledger());
  ops::bitonic_sort(m2, v);
  auto st = sort_meter.elapsed();
  EXPECT_GE(cr.rounds, st.rounds);
  EXPECT_LE(cr.rounds, 6 * st.rounds);
}

}  // namespace
}  // namespace dyncg
