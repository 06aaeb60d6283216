#pragma once

#include <vector>

#include "envelope/parallel_envelope.hpp"
#include "machine/machine.hpp"
#include "ops/sorting.hpp"
#include "poly/rational_germ.hpp"
#include "steady/static_geometry.hpp"

// Convex hull by point-line duality over a generic ordered field.
//
// A point p is on the upper hull iff its dual line h_p(u) = p.y - u p.x
// appears on the upper envelope of all dual lines; the envelope of n lines
// has at most lambda(n,1) = n pieces, and Theorem 3.2's recursive combine
// builds it in Theta(n^(1/2)) mesh / Theta(log^2 n) hypercube rounds — the
// Table 3/4 hull bounds.
//
// The twist that makes this work for *steady-state* hulls: the envelope
// parameter u does not need to be a real number.  Each combine step only
//   (a) computes the single crossing u* = (c2 - c1) / (s1 - s2), and
//   (b) compares slopes, intercepts, u* and the cell bounds,
// so any ordered field works.  Over RationalGerm (quotients of polynomial
// germs at infinity) the same code computes the hull of moving points as
// t -> infinity with every predicate a Lemma 5.1-style O(1) sign test —
// closing the gap that a tangent-search merge would leave (see
// EXPERIMENTS.md, Table 3).
namespace dyncg {

// One piece of a line envelope: line `id` (an index into the envelope's
// slope and intercept arrays) is the extremum on [lo, hi] (infinite ends
// flagged).
template <class Field>
struct LinePiece {
  int id = -1;
  bool lo_inf = true;
  bool hi_inf = true;
  Field lo{};
  Field hi{};
};

namespace dual_detail {

// Appends line `id` on [lo, hi] (a null end is infinite), dropping an
// empty range and extending the last piece when it is the same line.
template <class Field>
void emit(std::vector<LinePiece<Field>>& out, int id, const Field* lo,
          const Field* hi) {
  if (lo != nullptr && hi != nullptr && !(*lo < *hi)) return;
  if (!out.empty() && out.back().id == id) {
    out.back().hi_inf = hi == nullptr;
    if (hi != nullptr) out.back().hi = *hi;
    return;
  }
  out.push_back(LinePiece<Field>{id, lo == nullptr, hi == nullptr,
                                 lo != nullptr ? *lo : Field{},
                                 hi != nullptr ? *hi : Field{}});
}

// Lemma 3.1 for line envelopes (s = 1): combine two total envelopes of the
// lines intercepts[i] + slopes[i] u into the pointwise min or max.  In each
// cell of the common refinement two distinct lines cross at most once, at
// u* = (c_g - c_f) / (s_f - s_g), which also splits the cell: left of u*
// the steeper line is lower, right of it higher.  So the winner follows
// from the slope order and the cell's side of u*, and no line is evaluated
// (an evaluation at a point inside the cell needs products of the cell
// bounds, whose rounding can flip the sign).  Parallel lines are ordered by
// intercept; equal lines go to the smaller id.  Pure field operations.
template <class Field>
std::vector<LinePiece<Field>> combine(const std::vector<Field>& slopes,
                                      const std::vector<Field>& intercepts,
                                      const std::vector<LinePiece<Field>>& f,
                                      const std::vector<LinePiece<Field>>& g,
                                      bool take_min) {
  std::vector<LinePiece<Field>> out;
  std::size_t fi = 0, gi = 0;
  const Field* cur_lo = nullptr;  // null: -infinity
  while (fi < f.size() && gi < g.size()) {
    const LinePiece<Field>& pf = f[fi];
    const LinePiece<Field>& pg = g[gi];
    // Cell upper bound: nearest piece end (null: +infinity).
    const Field* hi = nullptr;
    bool advance_f, advance_g;
    if (pf.hi_inf && pg.hi_inf) {
      advance_f = advance_g = true;
    } else if (pf.hi_inf) {
      hi = &pg.hi;
      advance_f = false;
      advance_g = true;
    } else if (pg.hi_inf) {
      hi = &pf.hi;
      advance_f = true;
      advance_g = false;
    } else if (pf.hi < pg.hi) {
      hi = &pf.hi;
      advance_f = true;
      advance_g = false;
    } else if (pg.hi < pf.hi) {
      hi = &pg.hi;
      advance_f = false;
      advance_g = true;
    } else {
      hi = &pf.hi;
      advance_f = advance_g = true;
    }

    const auto id_f = static_cast<std::size_t>(pf.id);
    const auto id_g = static_cast<std::size_t>(pg.id);
    const Field& sf = slopes[id_f];
    const Field& sg = slopes[id_g];
    if (sf == sg) {
      const Field& cf = intercepts[id_f];
      const Field& cg = intercepts[id_g];
      bool f_wins;
      if (cf < cg) {
        f_wins = take_min;
      } else if (cg < cf) {
        f_wins = !take_min;
      } else {
        f_wins = pf.id <= pg.id;
      }
      emit(out, f_wins ? pf.id : pg.id, cur_lo, hi);
    } else {
      const Field ustar = (intercepts[id_g] - intercepts[id_f]) / (sf - sg);
      // The line that wins left of u*: the steeper one for a min.
      const bool f_wins_left = take_min == (sg < sf);
      const int left = f_wins_left ? pf.id : pg.id;
      const int right = f_wins_left ? pg.id : pf.id;
      const bool after_lo = cur_lo == nullptr || *cur_lo < ustar;
      const bool before_hi = hi == nullptr || ustar < *hi;
      if (after_lo && before_hi) {
        emit(out, left, cur_lo, &ustar);
        emit(out, right, &ustar, hi);
      } else {
        emit(out, after_lo ? left : right, cur_lo, hi);
      }
    }

    cur_lo = hi;
    if (hi == nullptr) break;
    if (advance_f) ++fi;
    if (advance_g) ++gi;
  }
  return out;
}

}  // namespace dual_detail

// Final compaction charge (one ladder); defined in dual_hull.cpp.
void geom_detail_charge_pack(Machine& m);

// Envelope of the lines c_i + s_i u (ids = indices), lower (take_min) or
// upper.  The machine runs the Theorem 3.2 recursion with s = 1 charges.
template <class Field>
std::vector<LinePiece<Field>> machine_line_envelope(
    Machine& m, const std::vector<Field>& slopes,
    const std::vector<Field>& intercepts, bool take_min) {
  std::size_t n = slopes.size();
  DYNCG_ASSERT(n >= 1 && n <= m.size(), "need 1 <= n <= P lines");
  std::vector<std::vector<LinePiece<Field>>> level;
  level.reserve(n);
  m.charge_local(1);
  for (std::size_t i = 0; i < n; ++i) {
    level.push_back({LinePiece<Field>{static_cast<int>(i)}});
  }
  std::size_t width = std::max<std::size_t>(1, m.size() / ceil_pow2(n));
  while (level.size() > 1) {
    width *= 2;
    envelope_detail::charge_combine_level(m, std::min(width, m.size()),
                                          /*s_bound=*/1);
    std::vector<std::vector<LinePiece<Field>>> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t b = 0; b + 1 < level.size(); b += 2) {
      next.push_back(dual_detail::combine(slopes, intercepts, level[b],
                                          level[b + 1], take_min));
      DYNCG_ASSERT(next.back().size() <= 2 * width,
                   "line envelope exceeded lambda(n,1)");
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level.swap(next);
  }
  return std::move(level[0]);
}

// Convex hull of distinct points over an ordered field, in ccw order.
// Theta(sort) mesh/hypercube cost; with Field = RationalGerm this is the
// steady-state hull of Proposition 5.4 at the claimed bounds.
template <class Field>
std::vector<Point2<Field>> machine_hull_dual(Machine& m,
                                             std::vector<Point2<Field>> pts) {
  std::size_t n = pts.size();
  DYNCG_ASSERT(n >= 1 && n <= m.size(), "need 1 <= n <= P points");
  if (n <= 2) return pts;

  struct Slot {
    bool live = false;
    Point2<Field> p{};
  };
  std::vector<Slot> regs(m.size());
  for (std::size_t i = 0; i < n; ++i) regs[i] = Slot{true, pts[i]};
  ops::bitonic_sort(m, regs, [](const Slot& a, const Slot& b) {
    if (a.live != b.live) return a.live;
    if (!a.live) return false;
    return lex_less(a.p, b.p);
  });
  std::vector<Point2<Field>> sorted;
  sorted.reserve(n);
  for (std::size_t r = 0; r < n; ++r) sorted.push_back(regs[r].p);

  // Dual lines h_p(u) = p.y - u p.x.
  std::vector<Field> slopes, intercepts;
  slopes.reserve(n);
  intercepts.reserve(n);
  for (const auto& p : sorted) {
    slopes.push_back(-p.x);
    intercepts.push_back(p.y);
  }
  auto upper = machine_line_envelope(m, slopes, intercepts,
                                     /*take_min=*/false);
  auto lower = machine_line_envelope(m, slopes, intercepts,
                                     /*take_min=*/true);
  geom_detail_charge_pack(m);

  // Lower envelope walks the lower hull left-to-right, upper envelope the
  // upper hull right-to-left; ccw = lower chain + upper chain with the
  // shared extreme points dropped.  (For a single shared x-column the two
  // chains are disjoint single points, so the drops are conditional.)
  std::vector<Point2<Field>> ccw;
  for (const auto& piece : lower) {
    ccw.push_back(sorted[static_cast<std::size_t>(piece.id)]);
  }
  std::size_t ub = 0, ue = upper.size();
  if (ub < ue && upper.front().id == lower.back().id) ++ub;
  if (ub < ue && upper[ue - 1].id == lower.front().id) --ue;
  for (std::size_t i = ub; i < ue; ++i) {
    ccw.push_back(sorted[static_cast<std::size_t>(upper[i].id)]);
  }
  return ccw;
}

}  // namespace dyncg
