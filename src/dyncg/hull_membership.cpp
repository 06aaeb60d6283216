#include "dyncg/hull_membership.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "poly/roots.hpp"
#include "support/assert.hpp"
#include "support/trace.hpp"

namespace dyncg {

RelativeMotion RelativeMotion::around(const MotionSystem& system,
                                      std::size_t query) {
  DYNCG_ASSERT(system.dimension() == 2, "hull membership is planar");
  RelativeMotion rel;
  for (std::size_t j = 0; j < system.size(); ++j) {
    if (j == query) continue;
    rel.dx.push_back(system.point(j).coordinate(0) -
                     system.point(query).coordinate(0));
    rel.dy.push_back(system.point(j).coordinate(1) -
                     system.point(query).coordinate(1));
    rel.owner.push_back(j);
  }
  return rel;
}

void RelativeMotion::parallel_times(int a, int b, const Interval& iv,
                                    bool same_direction,
                                    std::vector<double>& out) const {
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  Polynomial cross = dx[ia] * dy[ib] - dy[ia] * dx[ib];
  thread_local RootFindResult rr;
  real_roots_from_into(cross, iv.lo, thread_root_scratch(), rr, iv.hi);
  out.clear();
  if (rr.identically_zero) return;  // handled by identical()
  // Most pairs have no parallel time inside the cell: build the dot
  // product for the first one that does.
  std::optional<Polynomial> dot;
  for (double t : rr.roots) {
    if (t <= iv.lo || t >= iv.hi) continue;
    if (!dot) dot = dx[ia] * dx[ib] + dy[ia] * dy[ib];
    int s = robust_sign(*dot, t);
    if (same_direction ? s > 0 : s < 0) out.push_back(t);
  }
}

double AngleFamily::value(int id, double t) const {
  const auto i = static_cast<std::size_t>(id);
  return std::atan2(rel_->dy[i](t), rel_->dx[i](t));
}

bool AngleFamily::identical(int a, int b) const {
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  Polynomial cross = rel_->dx[ia] * rel_->dy[ib] - rel_->dy[ia] * rel_->dx[ib];
  if (!cross.is_zero()) return false;
  // Collinear rays: identical iff similarly oriented (sample the dot sign
  // away from degeneracies).
  Polynomial dot = rel_->dx[ia] * rel_->dx[ib] + rel_->dy[ia] * rel_->dy[ib];
  for (double t : {0.1234567, 1.7182818, 31.4159265}) {
    int s = robust_sign(dot, t);
    if (s != 0) return s > 0;
  }
  return false;
}

void AngleFamily::crossings_into(int a, int b, const Interval& iv,
                                 std::vector<double>& out) const {
  rel_->parallel_times(a, b, iv, /*same_direction=*/true, out);
}

std::vector<Interval> AngleFamily::defined_intervals(int id) const {
  const auto i = static_cast<std::size_t>(id);
  const Polynomial& dy = rel_->dy[i];
  if (dy.is_zero()) {
    // The ray stays horizontal: T is 0 or pi, so G is total, B empty.
    if (positive_) return {Interval{0.0, kInfinity}};
    return {};
  }
  RootFindResult rr;
  real_roots_from_into(dy, 0.0, thread_root_scratch(), rr);
  std::vector<double> knots;
  knots.push_back(0.0);
  for (double r : rr.roots) {
    if (r > knots.back()) knots.push_back(r);
  }
  knots.push_back(kInfinity);
  std::vector<Interval> out;
  for (std::size_t j = 0; j + 1 < knots.size(); ++j) {
    Interval sub{knots[j], knots[j + 1]};
    if (!sub.nondegenerate()) continue;
    double s = dy(sub.midpoint());
    bool in = positive_ ? s >= 0 : s < 0;
    if (in) {
      if (!out.empty() && out.back().hi == sub.lo) {
        out.back().hi = sub.hi;  // tangency: dy touches 0 without crossing
      } else {
        out.push_back(sub);
      }
    }
  }
  return out;
}

namespace {

// Angle difference f(t) - g(t) normalized into (0, 2pi), where f is a G
// value (in [0, pi]) and g is a B value (in (-pi, 0)).
double positive_gap(const RelativeMotion& rel, int gid, int bid, double t) {
  AngleFamily g(&rel, true), b(&rel, false);
  return g.value(gid, t) - b.value(bid, t);
}

// Intervals where pred(gap) holds, for the overlay of a G-envelope and a
// B-envelope; cells split at antiparallel times (gap == pi boundaries).
template <class Pred>
IntervalSet gap_indicator(Machine& m, const RelativeMotion& rel,
                          const PiecewiseFn& genv, const PiecewiseFn& benv,
                          Pred pred) {
  std::vector<Interval> hits;
  m.charge_local(4);  // per-PE: O(1) cells, O(k) roots each
  PiecePool& pool = thread_piece_pool();
  overlay_into(genv, benv, pool);
  std::vector<double>& cuts = pool.cuts;
  for (const Cell& cell : pool.cells) {
    if (cell.a < 0 || cell.b < 0) continue;
    rel.parallel_times(cell.a, cell.b, cell.iv, /*same_direction=*/false,
                       cuts);
    double lo = cell.iv.lo;
    for (std::size_t c = 0; c <= cuts.size(); ++c) {
      double hi = c < cuts.size() ? cuts[c] : cell.iv.hi;
      Interval sub{lo, hi};
      if (sub.nondegenerate() &&
          pred(positive_gap(rel, cell.a, cell.b, sub.midpoint()))) {
        hits.push_back(sub);
      }
      lo = hi;
    }
  }
  return IntervalSet(std::move(hits));
}

}  // namespace

IntervalSet hull_membership_intervals(Machine& m, const MotionSystem& system,
                                      std::size_t query) {
  TRACE_SPAN_COST("dyncg.hull_membership", m.ledger());
  return hull_membership_breakdown(m, system, query).total;
}

HullMembershipBreakdown hull_membership_breakdown(Machine& m,
                                                  const MotionSystem& system,
                                                  std::size_t query) {
  DYNCG_ASSERT(system.dimension() == 2, "hull membership is planar");
  if (system.size() <= 2) {
    // One or two points: the query is always extreme (vacuously via C0).
    IntervalSet all({Interval{0.0, kInfinity}});
    return HullMembershipBreakdown{IntervalSet{}, IntervalSet{}, all,
                                   all, all};
  }
  RelativeMotion rel = RelativeMotion::around(system, query);
  AngleFamily gfam(&rel, true), bfam(&rel, false);
  const int k = std::max(1, system.motion_degree());
  const int s_bound = 4 * k;  // Lemma 4.3 / Lemma 3.3 order

  // Step 1-2 (Theorem 4.5): the four partial envelopes by Theorem 3.4.
  PiecewiseFn a0 = parallel_envelope(m, gfam, s_bound, /*take_min=*/true);
  PiecewiseFn b0 = parallel_envelope(m, gfam, s_bound, /*take_min=*/false);
  PiecewiseFn c0 = parallel_envelope(m, bfam, s_bound, /*take_min=*/true);
  PiecewiseFn d0 = parallel_envelope(m, bfam, s_bound, /*take_min=*/false);

  // Step 3: indicators A_0 = [a_0 - d_0 >= pi], B_0 = [b_0 - c_0 <= pi]
  // (one Lemma 3.1-grade pass each, charged inside gap_indicator via the
  // overlay + root work; the communication is one merge + scans).
  envelope_detail::charge_combine_level(m, m.size(), s_bound);
  IntervalSet A0 = gap_indicator(m, rel, a0, d0,
                                 [](double gap) { return gap >= M_PI - 1e-12; });
  envelope_detail::charge_combine_level(m, m.size(), s_bound);
  IntervalSet B0 = gap_indicator(m, rel, b0, c0,
                                 [](double gap) { return gap <= M_PI + 1e-12; });
  // C_0 / D_0: maximal intervals where the G (resp. B) side is empty.
  IntervalSet C0 = a0.support().complement();
  IntervalSet D0 = c0.support().complement();

  // Step 4-5: H_0 = max of the indicators; pack the hit intervals.
  envelope_detail::charge_combine_level(m, m.size(), s_bound);
  for (int b = 0; b < floor_log2(m.size()); ++b) {
    m.charge_exchange(static_cast<unsigned>(b));
  }
  IntervalSet total = A0.unite(B0).unite(C0).unite(D0);
  return HullMembershipBreakdown{std::move(A0), std::move(B0), std::move(C0),
                                 std::move(D0), std::move(total)};
}

StatusOr<IntervalSet> try_hull_membership_intervals(Machine& m,
                                                    const MotionSystem& system,
                                                    std::size_t query) {
  if (system.dimension() != 2) {
    return Status::unsupported(
        "hull membership is planar (dimension 2), got dimension " +
        std::to_string(system.dimension()));
  }
  const std::size_t n = system.size();
  if (query >= n) {
    return Status::invalid_argument("query index " + std::to_string(query) +
                                    " out of range [0, " + std::to_string(n) +
                                    ")");
  }
  if (n > 2) {
    Status st = validate_envelope_input(m, n - 1);
    if (!st.is_ok()) return st;
  }
  return hull_membership_intervals(m, system, query);
}

Machine hull_membership_machine_mesh(const MotionSystem& system) {
  return envelope_machine_mesh(system.size(),
                               4 * std::max(1, system.motion_degree()));
}

Machine hull_membership_machine_hypercube(const MotionSystem& system) {
  return envelope_machine_hypercube(system.size(),
                                    4 * std::max(1, system.motion_degree()));
}

bool brute_force_is_extreme(const MotionSystem& system, std::size_t query,
                            double t) {
  std::vector<double> angles;
  auto q = system.point(query).position(t);
  for (std::size_t j = 0; j < system.size(); ++j) {
    if (j == query) continue;
    auto p = system.point(j).position(t);
    angles.push_back(std::atan2(p[1] - q[1], p[0] - q[0]));
  }
  if (angles.empty()) return true;
  std::sort(angles.begin(), angles.end());
  double max_gap = angles.front() + 2 * M_PI - angles.back();
  for (std::size_t i = 1; i < angles.size(); ++i) {
    max_gap = std::max(max_gap, angles[i] - angles[i - 1]);
  }
  return max_gap >= M_PI - 1e-9;
}

}  // namespace dyncg
