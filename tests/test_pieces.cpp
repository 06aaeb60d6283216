#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "pieces/interval.hpp"
#include "pieces/piecewise.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

// Member `id` alone, and the min (or max) of two piecewise functions, each
// into a fresh output through the pooled entry points.
template <class Family>
PiecewiseFn single(const Family& fam, int id) {
  PiecewiseFn out;
  singleton_into(fam, id, out);
  return out;
}

template <class Family>
PiecewiseFn combined(const Family& fam, const PiecewiseFn& f,
                     const PiecewiseFn& g, bool take_min) {
  PiecewiseFn out;
  combine_extremum_into(fam, f, g, take_min, thread_piece_pool(), out);
  return out;
}

TEST(Interval, Basics) {
  Interval iv{1.0, 3.0};
  EXPECT_TRUE(iv.nondegenerate());
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(3.0));
  EXPECT_FALSE(iv.contains(3.5));
  EXPECT_DOUBLE_EQ(iv.midpoint(), 2.0);
  Interval unb{2.0, kInfinity};
  EXPECT_TRUE(unb.nondegenerate());
  EXPECT_TRUE(std::isfinite(unb.midpoint()));
  EXPECT_GT(unb.midpoint(), 2.0);
  EXPECT_FALSE((Interval{2.0, 2.0}.nondegenerate()));
}

TEST(Interval, IntersectionAndNondegeneracy) {
  EXPECT_TRUE(nondegenerate_intersection(Interval{0, 2}, Interval{1, 3}));
  // Touching intervals intersect in a single point: degenerate.
  EXPECT_FALSE(nondegenerate_intersection(Interval{0, 1}, Interval{1, 2}));
  EXPECT_FALSE(nondegenerate_intersection(Interval{0, 1}, Interval{2, 3}));
  Interval c = intersect(Interval{0, 5}, Interval{3, kInfinity});
  EXPECT_DOUBLE_EQ(c.lo, 3.0);
  EXPECT_DOUBLE_EQ(c.hi, 5.0);
}

TEST(IntervalSet, NormalizesAndQueries) {
  IntervalSet s({Interval{3, 4}, Interval{0, 1}, Interval{0.5, 2}});
  ASSERT_EQ(s.size(), 2u);  // [0,2] merged, [3,4]
  EXPECT_TRUE(s.contains(1.5));
  EXPECT_FALSE(s.contains(2.5));
  EXPECT_DOUBLE_EQ(s.measure(), 3.0);
}

TEST(IntervalSet, SetAlgebra) {
  IntervalSet a({Interval{0, 2}, Interval{4, 6}});
  IntervalSet b({Interval{1, 5}});
  IntervalSet u = a.unite(b);
  EXPECT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u.measure(), 6.0);
  IntervalSet i = a.intersect(b);
  ASSERT_EQ(i.size(), 2u);
  EXPECT_DOUBLE_EQ(i.measure(), 2.0);  // [1,2] and [4,5]
  IntervalSet c = a.complement();
  ASSERT_EQ(c.size(), 2u);           // [2,4], [6,inf)
  EXPECT_TRUE(c.contains(3.0));
  EXPECT_TRUE(c.contains(100.0));
  EXPECT_FALSE(c.contains(1.0));
  // complement of empty = everything
  IntervalSet everything = IntervalSet{}.complement();
  EXPECT_TRUE(everything.contains(0.0));
  EXPECT_TRUE(everything.contains(1e9));
}


TEST(Interval, ToStringFormats) {
  EXPECT_EQ((Interval{1.0, 2.5}).to_string(), "[1, 2.5]");
  EXPECT_EQ((Interval{0.0, kInfinity}).to_string(), "[0, inf)");
}

TEST(IntervalSet, MeasureInfinite) {
  IntervalSet s({Interval{0, 1}, Interval{5, kInfinity}});
  EXPECT_TRUE(std::isinf(s.measure()));
  EXPECT_NE(s.to_string().find("inf"), std::string::npos);
}

TEST(PiecewisePoly, CoalesceMergesEqualSpans) {
  Polynomial p({1.0, 1.0});
  PiecewisePoly q(std::vector<PiecewisePoly::Span>{
      PiecewisePoly::Span{Interval{0, 2}, p},
      PiecewisePoly::Span{Interval{2, 5}, p},
      PiecewisePoly::Span{Interval{5, kInfinity}, Polynomial({9.0})}});
  q.coalesce();
  ASSERT_EQ(q.piece_count(), 2u);
  EXPECT_DOUBLE_EQ(q.spans()[0].iv.hi, 5.0);
}

TEST(PiecewiseFn, WellFormedAndLookup) {
  PiecewiseFn f;
  f.pieces = {Piece{Interval{0, 1}, 2}, Piece{Interval{1, 4}, 0},
              Piece{Interval{5, kInfinity}, 1}};
  EXPECT_TRUE(f.well_formed(3));
  EXPECT_EQ(f.id_at(0.5), 2);
  EXPECT_EQ(f.id_at(1.0), 2);  // boundary -> earlier piece
  EXPECT_EQ(f.id_at(4.5), -1);  // gap
  EXPECT_EQ(f.id_at(1e6), 1);
  EXPECT_EQ(f.origin_sequence(), (std::vector<int>{2, 0, 1}));
  // Overlapping interiors are ill-formed.
  PiecewiseFn bad;
  bad.pieces = {Piece{Interval{0, 2}, 0}, Piece{Interval{1, 3}, 1}};
  EXPECT_FALSE(bad.well_formed(2));
}

TEST(Overlay, RefinesTwoPieceLists) {
  PiecewiseFn f, g;
  f.pieces = {Piece{Interval{0, 2}, 0}, Piece{Interval{2, kInfinity}, 1}};
  g.pieces = {Piece{Interval{1, 3}, 5}};
  PiecePool pool;
  overlay_into(f, g, pool);
  const std::vector<Cell>& cells = pool.cells;
  // [0,1]: (0,-1); [1,2]: (0,5); [2,3]: (1,5); [3,inf): (1,-1).
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].a, 0);
  EXPECT_EQ(cells[0].b, -1);
  EXPECT_EQ(cells[1].a, 0);
  EXPECT_EQ(cells[1].b, 5);
  EXPECT_EQ(cells[2].a, 1);
  EXPECT_EQ(cells[2].b, 5);
  EXPECT_EQ(cells[3].a, 1);
  EXPECT_EQ(cells[3].b, -1);
}

TEST(CombineMin, Figure4Example) {
  // Figure 4 of the paper: three functions whose minimum has pieces
  // (g, [0,a]), (h, [a,b]), (f, [b,inf)).  Recreate the shape with
  // parabolas/lines: g = t, h = 2, f = 6 - t/2.
  PolyFamily fam({Polynomial({0.0, 1.0}),      // f0 = t
                  Polynomial({2.0}),           // f1 = 2
                  Polynomial({6.0, -0.5})});   // f2 = 6 - t/2
  PiecewiseFn f01 = combined(fam, single(fam, 0), single(fam, 1), true);
  PiecewiseFn h = combined(fam, f01, single(fam, 2), true);
  ASSERT_EQ(h.piece_count(), 3u);
  EXPECT_EQ(h.pieces[0].id, 0);
  EXPECT_NEAR(h.pieces[0].iv.hi, 2.0, 1e-9);  // t = 2 crosses the constant
  EXPECT_EQ(h.pieces[1].id, 1);
  EXPECT_NEAR(h.pieces[1].iv.hi, 8.0, 1e-9);  // 6 - t/2 = 2 at t = 8
  EXPECT_EQ(h.pieces[2].id, 2);
  EXPECT_TRUE(std::isinf(h.pieces[2].iv.hi));
}

TEST(CombineMin, IdenticalMembersPreferSmallerId) {
  PolyFamily fam({Polynomial({1.0}), Polynomial({1.0})});
  PiecewiseFn h = combined(fam, single(fam, 0), single(fam, 1), true);
  ASSERT_EQ(h.piece_count(), 1u);
  EXPECT_EQ(h.pieces[0].id, 0);
}

// Two members that are equal at every t but not identical() and never
// cross, so the combine reaches its midpoint comparison with an exact tie —
// the Lemma 3.1 tie rule, which the identical() shortcut above bypasses.
struct TiedFamily {
  std::size_t size() const { return 2; }
  double value(int, double) const { return 1.0; }
  bool identical(int, int) const { return false; }
  void crossings_into(int, int, const Interval&,
                      std::vector<double>& out) const {
    out.clear();
  }
  std::vector<Interval> defined_intervals(int) const {
    return {Interval{0.0, kInfinity}};
  }
};

TEST(CombineExtremum, ExactTiePrefersSmallerIdInBothOrders) {
  TiedFamily fam;
  const PiecewiseFn f0 = single(fam, 0);
  const PiecewiseFn f1 = single(fam, 1);
  for (const PiecewiseFn& h :
       {combined(fam, f0, f1, true), combined(fam, f1, f0, true),
        combined(fam, f0, f1, false), combined(fam, f1, f0, false)}) {
    ASSERT_EQ(h.piece_count(), 1u);
    EXPECT_EQ(h.pieces[0].id, 0);
    EXPECT_EQ(h.pieces[0].iv.lo, 0.0);
    EXPECT_TRUE(std::isinf(h.pieces[0].iv.hi));
  }
}

TEST(CombineMin, PartialFunctionsGapBehaviour) {
  PolyFamily fam({Polynomial({1.0}), Polynomial({2.0})});
  PiecewiseFn f, g;
  f.pieces = {Piece{Interval{0, 2}, 0}};                 // defined on [0,2]
  g.pieces = {Piece{Interval{1, 5}, 1}};                 // defined on [1,5]
  PiecewiseFn h = combined(fam, f, g, true);
  // [0,1]: f alone; [1,2]: min = f (1 < 2); [2,5]: g alone; gap after 5.
  ASSERT_EQ(h.piece_count(), 2u);
  EXPECT_EQ(h.pieces[0].id, 0);
  EXPECT_DOUBLE_EQ(h.pieces[0].iv.hi, 2.0);
  EXPECT_EQ(h.pieces[1].id, 1);
  EXPECT_DOUBLE_EQ(h.pieces[1].iv.hi, 5.0);
  EXPECT_EQ(h.id_at(6.0), -1);
}

TEST(CombineMax, MirrorsMin) {
  PolyFamily fam({Polynomial({0.0, 1.0}), Polynomial({4.0})});
  PiecewiseFn h = combined(fam, single(fam, 0), single(fam, 1), false);
  ASSERT_EQ(h.piece_count(), 2u);
  EXPECT_EQ(h.pieces[0].id, 1);
  EXPECT_NEAR(h.pieces[0].iv.hi, 4.0, 1e-9);
  EXPECT_EQ(h.pieces[1].id, 0);
}

TEST(PiecewisePoly, ArithmeticAndEval) {
  PiecewisePoly a = PiecewisePoly::total(Polynomial({0.0, 1.0}));  // t
  PiecewisePoly b = PiecewisePoly::total(Polynomial({3.0}));       // 3
  PiecewisePoly sum = a + b;
  EXPECT_DOUBLE_EQ(sum(2.0), 5.0);
  PiecewisePoly diff = a - b;
  EXPECT_DOUBLE_EQ(diff(10.0), 7.0);
  EXPECT_EQ(sum.piece_count(), 1u);
}

TEST(PiecewisePoly, MinMaxSplitAtCrossings) {
  PiecewisePoly a = PiecewisePoly::total(Polynomial({0.0, 1.0}));  // t
  PiecewisePoly b = PiecewisePoly::total(Polynomial({4.0, -1.0})); // 4 - t
  PiecewisePoly mn = a.min_with(b);
  ASSERT_EQ(mn.piece_count(), 2u);
  EXPECT_DOUBLE_EQ(mn(1.0), 1.0);
  EXPECT_DOUBLE_EQ(mn(3.0), 1.0);
  PiecewisePoly mx = a.max_with(b);
  EXPECT_DOUBLE_EQ(mx(1.0), 3.0);
  EXPECT_DOUBLE_EQ(mx(3.0), 3.0);
}

TEST(PiecewisePoly, SublevelSet) {
  // (t-2)^2 <= 1  <=>  t in [1,3].
  PiecewisePoly p = PiecewisePoly::total(Polynomial::from_roots({2.0, 2.0}));
  IntervalSet s = p.sublevel_set(1.0);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_NEAR(s.intervals()[0].lo, 1.0, 1e-6);
  EXPECT_NEAR(s.intervals()[0].hi, 3.0, 1e-6);
  // Threshold below the minimum: empty.
  EXPECT_TRUE(p.sublevel_set(-0.5).empty());
  // Huge threshold: everything.
  IntervalSet all = p.sublevel_set(1e9);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_DOUBLE_EQ(all.intervals()[0].lo, 0.0);
}

TEST(PiecewisePoly, GlobalMin) {
  // (t-3)^2 + 1 has min 1 at t = 3.
  PiecewisePoly p = PiecewisePoly::total(
      Polynomial::from_roots({3.0, 3.0}) + Polynomial::constant(1.0));
  auto ext = p.global_min();
  EXPECT_NEAR(ext.value, 1.0, 1e-9);
  EXPECT_NEAR(ext.time, 3.0, 1e-6);
  // Piece boundary can be the minimizer.
  PiecewisePoly q(std::vector<PiecewisePoly::Span>{
      PiecewisePoly::Span{Interval{0, 2}, Polynomial({4.0, -1.0})},   // 4-t
      PiecewisePoly::Span{Interval{2, kInfinity}, Polynomial({0.0, 1.0})}});  // t
  auto e2 = q.global_min();
  EXPECT_NEAR(e2.value, 2.0, 1e-12);
  EXPECT_NEAR(e2.time, 2.0, 1e-12);
}

TEST(PiecewisePoly, MaterializeFromEnvelope) {
  PolyFamily fam({Polynomial({0.0, 1.0}), Polynomial({2.0})});
  PiecewiseFn h = combined(fam, single(fam, 0), single(fam, 1), true);
  PiecewisePoly p = materialize(fam, h);
  EXPECT_DOUBLE_EQ(p(1.0), 1.0);
  EXPECT_DOUBLE_EQ(p(10.0), 2.0);
}


// Fuzz: random expression trees over {min, max, +, -} applied to piecewise
// polynomials must agree with direct pointwise evaluation everywhere.
class PwExpressionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PwExpressionFuzz, RandomTreesMatchPointwise) {
  Rng rng(5000 + static_cast<std::uint64_t>(GetParam()));
  auto random_poly = [&rng]() {
    int deg = rng.uniform_int(0, 3);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-2.0, 2.0);
    return Polynomial(c);
  };
  // Pointwise mirror evaluated alongside the piecewise structure.
  struct Node {
    PiecewisePoly pw;
    std::vector<Polynomial> leaves;
    int op;  // -1 leaf, 0 min, 1 max, 2 plus, 3 minus
    int l = -1, r = -1;
  };
  std::vector<Node> nodes;
  for (int i = 0; i < 4; ++i) {
    Polynomial p = random_poly();
    nodes.push_back(Node{PiecewisePoly::total(p), {p}, -1});
  }
  for (int i = 0; i < 5; ++i) {
    int l = rng.uniform_int(0, static_cast<int>(nodes.size()) - 1);
    int r = rng.uniform_int(0, static_cast<int>(nodes.size()) - 1);
    int op = rng.uniform_int(0, 3);
    const Node& L = nodes[static_cast<std::size_t>(l)];
    const Node& R = nodes[static_cast<std::size_t>(r)];
    Node n;
    n.op = op;
    n.l = l;
    n.r = r;
    switch (op) {
      case 0: n.pw = L.pw.min_with(R.pw); break;
      case 1: n.pw = L.pw.max_with(R.pw); break;
      case 2: n.pw = L.pw + R.pw; break;
      default: n.pw = L.pw - R.pw; break;
    }
    nodes.push_back(std::move(n));
  }
  // Evaluate the final node both ways on a time grid.
  std::function<double(int, double)> eval = [&](int idx, double t) -> double {
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    if (n.op == -1) return n.leaves[0](t);
    double a = eval(n.l, t), b = eval(n.r, t);
    switch (n.op) {
      case 0: return std::min(a, b);
      case 1: return std::max(a, b);
      case 2: return a + b;
      default: return a - b;
    }
  };
  int root = static_cast<int>(nodes.size()) - 1;
  for (double t = 0.0; t < 15.0; t += 0.41) {
    double want = eval(root, t);
    EXPECT_NEAR(nodes[static_cast<std::size_t>(root)].pw(t), want,
                1e-6 * (1 + std::fabs(want)))
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, PwExpressionFuzz, ::testing::Range(0, 40));

// Property: min_with agrees with pointwise evaluation on random piecewise
// polynomials.
class PwMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(PwMinProperty, PointwiseAgreement) {
  Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  auto random_poly = [&rng]() {
    int deg = rng.uniform_int(0, 3);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-3.0, 3.0);
    return Polynomial(c);
  };
  PiecewisePoly a = PiecewisePoly::total(random_poly());
  PiecewisePoly b = PiecewisePoly::total(random_poly());
  PiecewisePoly mn = a.min_with(b);
  PiecewisePoly mx = a.max_with(b);
  for (double t = 0.0; t < 20.0; t += 0.37) {
    double lo = std::min(a(t), b(t)), hi = std::max(a(t), b(t));
    EXPECT_NEAR(mn(t), lo, 1e-6 + 1e-6 * std::fabs(lo)) << "t=" << t;
    EXPECT_NEAR(mx(t), hi, 1e-6 + 1e-6 * std::fabs(hi)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PwMinProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace dyncg
