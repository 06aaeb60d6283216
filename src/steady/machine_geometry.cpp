#include "steady/machine_geometry.hpp"

#include <algorithm>

#include "dyncg/proximity.hpp"
#include "steady/dual_hull.hpp"
#include "support/trace.hpp"

namespace dyncg {

std::vector<std::size_t> machine_hull_ids(Machine& m,
                                          std::vector<Point2<double>> pts) {
  TRACE_SPAN_COST("steady.hull_ids", m.ledger());
  const std::size_t n = pts.size();
  const std::size_t P = m.size();
  DYNCG_ASSERT(n >= 1 && n <= P, "need 1 <= n <= P points");
  if (n <= 2) {
    std::vector<std::size_t> ids;
    for (const auto& p : pts) ids.push_back(p.id);
    return ids;
  }

  // Sort by x to derive the slope bound U: every pairwise slope magnitude is
  // at most (y-spread) / (minimum adjacent x-gap).  One sort, one shift for
  // adjacent gaps, and two reductions — all Table 1 ops.
  struct Slot {
    bool live = false;
    Point2<double> p{};
  };
  std::vector<Slot> regs(P);
  for (std::size_t i = 0; i < n; ++i) regs[i] = Slot{true, pts[i]};
  ops::bitonic_sort(m, regs, [](const Slot& a, const Slot& b) {
    if (a.live != b.live) return a.live;
    if (!a.live) return false;
    return lex_less(a.p, b.p);
  });
  m.charge_shift(1);
  double gap_min = kInfinity;
  double y_lo = regs[0].p.y, y_hi = regs[0].p.y;
  for (std::size_t r = 0; r + 1 < n; ++r) {
    DYNCG_ASSERT(regs[r].p.x != regs[r + 1].p.x || regs[r].p.y != regs[r + 1].p.y,
                 "duplicate points");
    double g = regs[r + 1].p.x - regs[r].p.x;
    if (g > 0) gap_min = std::min(gap_min, g);
  }
  for (std::size_t r = 0; r < n; ++r) {
    y_lo = std::min(y_lo, regs[r].p.y);
    y_hi = std::max(y_hi, regs[r].p.y);
  }
  geom_detail::charge_ladder(m, P);  // the two reductions (combined carry)
  m.charge_local(2);

  if (!(gap_min < kInfinity)) {
    // All points share one x: the hull is the bottom and top point.
    return {regs[0].p.id, regs[n - 1].p.id};
  }
  double U = 1.0 + (y_hi - y_lo + 1.0) / gap_min;

  // Dual lines h_p(u) = p.y - u p.x, shifted to t = u + U so the envelope
  // domain starts at 0.  Lines cross pairwise once: s = 1, lambda(n,1) = n.
  std::vector<Polynomial> lines;
  std::vector<std::size_t> owner;
  lines.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const Point2<double>& p = regs[r].p;
    lines.push_back(Polynomial({p.y + U * p.x, -p.x}));
    owner.push_back(p.id);
  }
  PolyFamily fam(std::move(lines));
  PiecewiseFn upper = parallel_envelope(m, fam, /*s_bound=*/1,
                                        /*take_min=*/false);
  PiecewiseFn lower = parallel_envelope(m, fam, /*s_bound=*/1,
                                        /*take_min=*/true);
  geom_detail::charge_ladder(m, P);  // pack the two chains into one string
  m.charge_local(2);

  // Upper envelope runs right-to-left over the upper hull; lower runs
  // left-to-right over the lower hull.  ccw = lower chain + reversed upper
  // chain without the shared extreme points.
  std::vector<std::size_t> ccw;
  for (const Piece& p : lower.pieces) {
    ccw.push_back(owner[static_cast<std::size_t>(p.id)]);
  }
  std::vector<std::size_t> up;
  for (const Piece& p : upper.pieces) {
    up.push_back(owner[static_cast<std::size_t>(p.id)]);
  }
  // `up` is right-to-left already; drop its first (rightmost) and last
  // (leftmost) entries, which the lower chain contributes.
  for (std::size_t i = 1; i + 1 < up.size(); ++i) ccw.push_back(up[i]);
  return ccw;
}

std::size_t machine_steady_neighbor(Machine& m, const MotionSystem& system,
                                    std::size_t query, bool farthest) {
  TRACE_SPAN_COST("steady.neighbor", m.ledger());
  const std::size_t n = system.size();
  DYNCG_ASSERT(n >= 2 && n <= m.size(), "need 2 <= n <= P points");
  // Broadcast f_query, build d^2 germs locally, one semigroup reduction
  // with the Lemma 5.1 comparator.
  {
    std::vector<int> token(m.size(), 0);
    ops::broadcast(m, token, 0);
  }
  m.charge_local(static_cast<std::uint64_t>(system.motion_degree()) + 1);
  struct Cand {
    bool live = false;
    std::size_t id = 0;
    AsymptoticPoly d2{};
  };
  std::vector<Cand> regs(m.size());
  for (std::size_t j = 0; j < n; ++j) {
    if (j == query) continue;
    regs[j] = Cand{true, j,
                   AsymptoticPoly(system.point(query).distance_squared(
                       system.point(j)))};
  }
  ops::reduce(m, regs, [farthest](const Cand& a, const Cand& b) {
    if (!a.live) return b;
    if (!b.live) return a;
    bool b_better = farthest ? a.d2 < b.d2 : b.d2 < a.d2;
    return b_better ? b : a;
  });
  DYNCG_ASSERT(regs[0].live, "no candidate neighbor");
  return regs[0].id;
}

std::size_t machine_steady_neighbor_via_transient(Machine& m,
                                                  const MotionSystem& system,
                                                  std::size_t query,
                                                  bool farthest) {
  NeighborSequence seq = neighbor_sequence(m, system, query, farthest);
  return seq.epochs.back().neighbor;
}

bool machine_steady_is_hull_vertex(Machine& m, const MotionSystem& system,
                                   std::size_t query) {
  const std::size_t n = system.size();
  DYNCG_ASSERT(system.dimension() == 2, "hull membership is planar");
  DYNCG_ASSERT(n <= m.size(), "machine smaller than the system");
  if (n <= 2) return true;
  // Broadcast f_query; each PE forms its direction germ (dx_j, dy_j).
  {
    std::vector<int> token(m.size(), 0);
    ops::broadcast(m, token, 0);
  }
  m.charge_local(static_cast<std::uint64_t>(system.motion_degree()) + 2);

  struct Dir {
    bool live = false;
    AsymptoticPoly x{};
    AsymptoticPoly y{};
  };
  auto cross_sign = [](const Dir& u, const Dir& v) {
    return (u.x * v.y - u.y * v.x).sign();
  };
  // Eventually-upper (G) and eventually-lower (B) sides.
  std::vector<Dir> gmin(m.size()), gmax(m.size()), bmin(m.size()),
      bmax(m.size());
  for (std::size_t j = 0; j < n; ++j) {
    if (j == query) continue;
    AsymptoticPoly dx(system.point(j).coordinate(0) -
                      system.point(query).coordinate(0));
    AsymptoticPoly dy(system.point(j).coordinate(1) -
                      system.point(query).coordinate(1));
    // T >= 0 eventually iff dy > 0, or dy == 0 with any x (T is 0 or pi).
    bool upper = dy.sign() > 0 || dy.sign() == 0;
    Dir d{true, dx, dy};
    if (upper) {
      gmin[j] = d;
      gmax[j] = d;
    } else {
      bmin[j] = d;
      bmax[j] = d;
    }
  }
  // Within one halfplane, angle(u) < angle(v) iff cross(u, v) > 0.
  auto pick = [&cross_sign](bool want_min) {
    return [want_min, cross_sign](const Dir& a, const Dir& b) {
      if (!a.live) return b;
      if (!b.live) return a;
      int c = cross_sign(a, b);
      bool a_smaller = c > 0;
      return (want_min == a_smaller) ? a : b;
    };
  };
  ops::reduce(m, gmin, pick(true));
  ops::reduce(m, gmax, pick(false));
  ops::reduce(m, bmin, pick(true));
  ops::reduce(m, bmax, pick(false));
  m.charge_local(4);

  const Dir& a0 = gmin[0];
  const Dir& b0 = gmax[0];
  const Dir& c0 = bmin[0];
  const Dir& d0 = bmax[0];
  // Lemma 4.4 at infinity.
  if (!a0.live || !c0.live) return true;          // conditions (3)/(4)
  if (cross_sign(d0, a0) <= 0) return true;       // a0 - d0 >= pi
  if (cross_sign(c0, b0) >= 0) return true;       // b0 - c0 <= pi
  return false;
}

ClosestPairResult<AsymptoticPoly> machine_steady_closest_pair(
    Machine& m, const MotionSystem& system) {
  return machine_closest_pair(m, germ_points(system));
}

std::vector<Point2<RationalGerm>> machine_steady_hull(
    Machine& m, const MotionSystem& system) {
  TRACE_SPAN_COST("steady.hull", m.ledger());
  // The dual-envelope hull over the rational-germ field: Theta(sort)-grade
  // rounds, matching the Table 3 hull row (see steady/dual_hull.hpp).
  return machine_hull_dual(m, germ_field_points(system));
}

std::vector<std::size_t> machine_steady_hull_ids(Machine& m,
                                                 const MotionSystem& system) {
  std::vector<Point2<RationalGerm>> hull = machine_steady_hull(m, system);
  std::vector<std::size_t> ids;
  ids.reserve(hull.size());
  for (const auto& p : hull) ids.push_back(p.id);
  return ids;
}

namespace {

// Proposition 5.6 on a built steady hull: antipodal pairs plus one max
// reduction.  Untraced; both public forms open the span.
ClosestPairResult<AsymptoticPoly> steady_farthest_pair_on_hull(
    Machine& m, const MotionSystem& system,
    const std::vector<Point2<RationalGerm>>& hull) {
  if (hull.size() == 2) {
    return ClosestPairResult<AsymptoticPoly>{
        hull[0].id, hull[1].id,
        AsymptoticPoly(
            system.point(hull[0].id).distance_squared(system.point(hull[1].id)))};
  }
  auto pairs = machine_antipodal_pairs(m, hull);
  geom_detail::charge_ladder(m, m.size());
  m.charge_local(4);
  auto best = std::pair<std::size_t, std::size_t>{hull[pairs[0].first].id,
                                                  hull[pairs[0].second].id};
  RationalGerm best_d2 = dist2(hull[pairs[0].first], hull[pairs[0].second]);
  for (const auto& [a, b] : pairs) {
    RationalGerm d = dist2(hull[a], hull[b]);
    if (best_d2 < d) {
      best_d2 = d;
      best = {hull[a].id, hull[b].id};
    }
  }
  return ClosestPairResult<AsymptoticPoly>{
      best.first, best.second,
      AsymptoticPoly(
          system.point(best.first).distance_squared(system.point(best.second)))};
}

}  // namespace

ClosestPairResult<AsymptoticPoly> machine_steady_farthest_pair(
    Machine& m, const MotionSystem& system) {
  TRACE_SPAN_COST("steady.farthest_pair", m.ledger());
  return steady_farthest_pair_on_hull(
      m, system, machine_hull_dual(m, germ_field_points(system)));
}

ClosestPairResult<AsymptoticPoly> machine_steady_farthest_pair(
    Machine& m, const MotionSystem& system,
    const std::vector<Point2<RationalGerm>>& hull) {
  TRACE_SPAN_COST("steady.farthest_pair", m.ledger());
  return steady_farthest_pair_on_hull(m, system, hull);
}

SteadyRectangle machine_steady_min_rectangle(Machine& m,
                                             const MotionSystem& system) {
  TRACE_SPAN_COST("steady.min_rectangle", m.ledger());
  std::vector<Point2<RationalGerm>> hull =
      machine_hull_dual(m, germ_field_points(system));
  EnclosingRectangle<RationalGerm> rect = machine_min_rectangle(m, hull);
  return SteadyRectangle{hull[rect.edge_from].id, hull[rect.edge_to].id,
                         rect.area_num / rect.len2};
}

}  // namespace dyncg
