#pragma once

#include <optional>
#include <vector>

#include "dyncg/motion.hpp"
#include "envelope/parallel_envelope.hpp"
#include "machine/machine.hpp"
#include "ops/basic.hpp"
#include "ops/crcw.hpp"
#include "ops/sorting.hpp"
#include "steady/static_geometry.hpp"
#include "steady/steady_state.hpp"

// Mesh/hypercube implementations of the static and steady-state geometry of
// Tables 3 and 4.
//
// - The static convex hull runs through point-line duality: a point p lies
//   on the upper hull iff its dual line h_p(u) = p.y - u p.x appears on the
//   *upper envelope* of the dual lines.  Lines cross pairwise once
//   (lambda(n,1) = n), so Theorem 3.2's machinery builds both hulls in
//   Theta(n^(1/2)) mesh / Theta(log^2 n) hypercube time — the Miller-Stout
//   bounds of Table 4, reproduced with the paper's own envelope engine.
// - The generic (coordinate-type-templated) hull, closest pair, antipodal
//   pairs, farthest pair, and minimum rectangle run on germ coordinates too
//   (Lemma 5.1), giving the Table 3 steady-state rows.  The hull merge uses
//   binary-search tangents, which costs an extra log factor over the
//   Miller-Stout bound; EXPERIMENTS.md quantifies the gap.
namespace dyncg {

// --- charge helpers (the communication pattern of each phase) -------------

namespace geom_detail {

inline void charge_ladder(Machine& m, std::size_t w) {
  for (int k = 0; k < floor_log2(w); ++k) {
    m.charge_exchange(static_cast<unsigned>(k));
  }
}

// One D&C merge level over width-w strings: tangent binary search (2 log w
// probes, each a broadcast ladder) plus one compaction.
inline void charge_tangent_merge_level(Machine& m, std::size_t w) {
  int lg = floor_log2(w);
  for (int probe = 0; probe < 2 * lg; ++probe) charge_ladder(m, w);
  charge_ladder(m, w);
  m.charge_local(static_cast<std::uint64_t>(2 * lg));
}

// One closest-pair merge level: y-merge (reversal + merge pass), strip
// compaction scan, O(1) neighbor shifts, delta reduction.
inline void charge_strip_merge_level(Machine& m, std::size_t w) {
  charge_ladder(m, w);  // reversal
  charge_ladder(m, w);  // bitonic merge pass
  charge_ladder(m, w);  // strip pack prefix
  m.charge_shift(8);    // the <= 7 strip neighbor comparisons
  charge_ladder(m, w);  // delta reduction
  m.charge_local(16);
}

}  // namespace geom_detail

// --- static hull via duality (double coordinates) --------------------------

// Counterclockwise hull ids of distinct points.  Machine size >=
// ceil_pow2(n).
std::vector<std::size_t> machine_hull_ids(Machine& m,
                                          std::vector<Point2<double>> pts);

// --- generic machine algorithms (double or AsymptoticPoly coordinates) ----

// Convex hull by sort + divide-and-conquer chain merges; ccw order.
template <class CT>
std::vector<Point2<CT>> machine_hull_dc(Machine& m,
                                        std::vector<Point2<CT>> pts) {
  std::size_t P = m.size();
  DYNCG_ASSERT(pts.size() <= P, "more points than PEs");
  std::size_t n = pts.size();
  if (n <= 2) return pts;

  struct Slot {
    bool live = false;
    Point2<CT> p{};
  };
  std::vector<Slot> regs(P);
  for (std::size_t i = 0; i < n; ++i) regs[i] = Slot{true, pts[i]};
  ops::bitonic_sort(m, regs, [](const Slot& a, const Slot& b) {
    if (a.live != b.live) return a.live;
    if (!a.live) return false;
    return lex_less(a.p, b.p);
  });

  // Per-string state: the (lower, upper) chains, x-increasing.  Each level
  // merges sibling strings' chains with tangent searches; the data movement
  // is charged per level, the chain algebra runs per string.
  struct Chains {
    std::vector<Point2<CT>> lower;
    std::vector<Point2<CT>> upper;
  };
  std::size_t strings = P;
  std::vector<Chains> state(P);
  for (std::size_t r = 0; r < P; ++r) {
    if (regs[r].live) {
      state[r].lower.push_back(regs[r].p);
      state[r].upper.push_back(regs[r].p);
    }
  }
  auto merge_chain = [](const std::vector<Point2<CT>>& a,
                        const std::vector<Point2<CT>>& b, bool upper) {
    std::vector<Point2<CT>> out;
    auto scan = [&out, upper](const Point2<CT>& p) {
      while (out.size() >= 2) {
        int o = orientation(out[out.size() - 2], out[out.size() - 1], p);
        bool drop = upper ? o >= 0 : o <= 0;
        if (!drop) break;
        out.pop_back();
      }
      out.push_back(p);
    };
    for (const auto& p : a) scan(p);
    for (const auto& p : b) scan(p);
    return out;
  };
  for (std::size_t w = 2; w <= P; w *= 2) {
    geom_detail::charge_tangent_merge_level(m, w);
    std::size_t next_strings = strings / 2;
    std::vector<Chains> next(next_strings == 0 ? 1 : next_strings);
    for (std::size_t b = 0; b < strings / 2; ++b) {
      next[b].lower = merge_chain(state[2 * b].lower, state[2 * b + 1].lower,
                                  /*upper=*/false);
      next[b].upper = merge_chain(state[2 * b].upper, state[2 * b + 1].upper,
                                  /*upper=*/true);
    }
    state.swap(next);
    strings /= 2;
  }

  // ccw = lower chain left-to-right + upper chain right-to-left, endpoints
  // shared.
  const Chains& top = state[0];
  std::vector<Point2<CT>> hull = top.lower;
  for (std::size_t i = top.upper.size() - 1; i-- > 1;) {
    hull.push_back(top.upper[i]);
  }
  if (hull.size() > 1) {
    // Degenerate all-collinear input: lower == reversed upper.
    bool all_collinear = true;
    for (std::size_t i = 2; i < hull.size(); ++i) {
      if (orientation(hull[0], hull[1], hull[i]) != 0) {
        all_collinear = false;
        break;
      }
    }
    if (all_collinear) {
      return {top.lower.front(), top.lower.back()};
    }
  }
  return hull;
}

// Closest pair by sort + strip divide and conquer (Proposition 5.3's static
// engine).  Theta(sort + sum of merge levels): Theta(n^(1/2)) mesh,
// Theta(log^2 n) hypercube.
template <class CT>
ClosestPairResult<CT> machine_closest_pair(Machine& m,
                                           std::vector<Point2<CT>> pts) {
  std::size_t P = m.size();
  std::size_t n = pts.size();
  DYNCG_ASSERT(n >= 2 && n <= P, "need 2 <= n <= P points");

  struct Slot {
    bool live = false;
    Point2<CT> p{};
  };
  std::vector<Slot> regs(P);
  for (std::size_t i = 0; i < n; ++i) regs[i] = Slot{true, pts[i]};
  ops::bitonic_sort(m, regs, [](const Slot& a, const Slot& b) {
    if (a.live != b.live) return a.live;
    if (!a.live) return false;
    return lex_less(a.p, b.p);
  });

  struct Block {
    std::vector<Point2<CT>> by_y;  // y-sorted
    std::optional<ClosestPairResult<CT>> best;
    CT max_x{};  // rightmost x in the block (the boundary for strips)
    bool has_pts = false;
  };
  std::vector<Block> state(P);
  for (std::size_t r = 0; r < P; ++r) {
    if (regs[r].live) {
      state[r].by_y.push_back(regs[r].p);
      state[r].max_x = regs[r].p.x;
      state[r].has_pts = true;
    }
  }
  auto y_less = [](const Point2<CT>& a, const Point2<CT>& b) {
    if (a.y < b.y) return true;
    if (b.y < a.y) return false;
    return a.x < b.x;
  };
  for (std::size_t w = 2; w <= P; w *= 2) {
    geom_detail::charge_strip_merge_level(m, w);
    std::vector<Block> next(std::max<std::size_t>(1, state.size() / 2));
    for (std::size_t b = 0; b + 1 < state.size(); b += 2) {
      Block& L = state[b];
      Block& R = state[b + 1];
      Block out;
      out.has_pts = L.has_pts || R.has_pts;
      if (!out.has_pts) {
        next[b / 2] = std::move(out);
        continue;
      }
      out.max_x = R.has_pts ? R.max_x : L.max_x;
      std::merge(L.by_y.begin(), L.by_y.end(), R.by_y.begin(), R.by_y.end(),
                 std::back_inserter(out.by_y), y_less);
      out.best = L.best;
      if (R.best && (!out.best || R.best->d2 < out.best->d2)) out.best = R.best;
      if (L.has_pts && R.has_pts) {
        CT mid_x = L.max_x;  // split abscissa between the halves
        if (!out.best) {
          // First level with two points: seed with any cross pair.
          out.best = ClosestPairResult<CT>{
              L.by_y[0].id, R.by_y[0].id, dist2(L.by_y[0], R.by_y[0])};
        }
        std::vector<const Point2<CT>*> strip;
        for (const auto& p : out.by_y) {
          CT dx = p.x - mid_x;
          if (dx * dx < out.best->d2 || !(out.best->d2 < dx * dx)) {
            strip.push_back(&p);
          }
        }
        for (std::size_t i = 0; i < strip.size(); ++i) {
          for (std::size_t j = i + 1; j < strip.size() && j <= i + 7; ++j) {
            CT d = dist2(*strip[i], *strip[j]);
            if (d < out.best->d2 && strip[i]->id != strip[j]->id) {
              out.best = ClosestPairResult<CT>{strip[i]->id, strip[j]->id, d};
            }
          }
        }
      }
      next[b / 2] = std::move(out);
    }
    state.swap(next);
  }
  DYNCG_ASSERT(state[0].best.has_value(), "no pair found");
  return *state[0].best;
}

// --- Lemma 5.5: antipodal pairs by the sector grouping --------------------

// Circularly ordered direction key: directions compare by ccw angle from a
// fixed reference, using only ring operations and sign tests (germ-safe).
// The key decides its half-plane against the reference once, when built.
template <class CT>
struct DirKey {
  CT x, y;
  // 0: strictly ccw in [0, pi) from the reference, or the reference
  // itself; 1: the rest.
  int half;

  DirKey(CT dx, CT dy, const CT& rx, const CT& ry)
      : x(std::move(dx)), y(std::move(dy)) {
    const int c = sign_of(rx * y - ry * x);
    const bool upper = c > 0 || (c == 0 && sign_of(rx * x + ry * y) > 0);
    half = upper ? 0 : 1;
  }
  bool operator<(const DirKey& o) const {
    if (half != o.half) return half < o.half;
    CT cr = x * o.y - y * o.x;
    return sign_of(cr) > 0;  // a strictly ccw-before b within the half
  }
  bool operator==(const DirKey& o) const { return !(*this < o) && !(o < *this); }
};

// All antipodal vertex pairs of a ccw convex polygon stored one vertex per
// PE.  Returns index pairs into `hull`.  Cost: O(1) shifts + one grouping
// (two sorts and a scan) — Theta(sort) as in Lemma 5.5.
template <class CT>
std::vector<std::pair<std::size_t, std::size_t>> machine_antipodal_pairs(
    Machine& m, const std::vector<Point2<CT>>& hull) {
  std::size_t h = hull.size();
  std::size_t P = m.size();
  DYNCG_ASSERT(h >= 3 && h <= P, "need a polygon fitting the machine");
  // Step 4: neighbor exchange for edge endpoints.
  m.charge_shift(2);
  m.charge_local(4);
  // Edge i runs P_{i-1} -> P_i; directions rotate ccw with i.
  auto edge_dir = [&hull, h](std::size_t i) {
    const Point2<CT>& a = hull[(i + h - 1) % h];
    const Point2<CT>& b = hull[i];
    return std::pair<CT, CT>{b.x - a.x, b.y - a.y};
  };
  auto [rx, ry] = edge_dir(0);

  // Step 6: grouping — locate each reversed edge ray among the sector
  // boundaries (the edge directions themselves).
  std::vector<std::optional<std::pair<DirKey<CT>, long>>> data(P);
  std::vector<std::optional<DirKey<CT>>> queries(P);
  for (std::size_t i = 0; i < h; ++i) {
    auto [dx, dy] = edge_dir(i);
    data[i] = std::pair<DirKey<CT>, long>{DirKey<CT>(dx, dy, rx, ry),
                                          static_cast<long>(i)};
    queries[i] = DirKey<CT>(-dx, -dy, rx, ry);
  }
  auto located = ops::concurrent_read<DirKey<CT>, long>(
      m, data, queries, /*exact_match=*/false);
  m.charge_local(4);

  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < h; ++i) {
    // Sector [dir_j, dir_{j+1}) belongs to vertex P_j; a query below every
    // key wraps to the last sector.
    std::size_t j = located[i].has_value()
                        ? static_cast<std::size_t>(*located[i])
                        : h - 1;
    std::size_t prev = (i + h - 1) % h;
    for (std::size_t v : {j, (j + 1) % h}) {  // successor guards ties
      if (v != prev && prev < v) pairs.emplace_back(prev, v);
      if (v != prev && v < prev) pairs.emplace_back(v, prev);
      if (v != i && i < v) pairs.emplace_back(i, v);
      if (v != i && v < i) pairs.emplace_back(v, i);
    }
  }
  return pairs;
}

// Farthest pair / diameter (Proposition 5.6, Corollary 5.7): hull +
// antipodal pairs + one semigroup reduction over the <= 4 pairs per PE.
template <class CT>
ClosestPairResult<CT> machine_farthest_pair(Machine& m,
                                            std::vector<Point2<CT>> pts) {
  DYNCG_ASSERT(pts.size() >= 2, "need two points");
  std::vector<Point2<CT>> hull = machine_hull_dc(m, std::move(pts));
  if (hull.size() == 2) {
    return ClosestPairResult<CT>{hull[0].id, hull[1].id, dist2(hull[0], hull[1])};
  }
  auto pairs = machine_antipodal_pairs(m, hull);
  geom_detail::charge_ladder(m, m.size());  // the max reduction
  m.charge_local(4);
  ClosestPairResult<CT> best{hull[pairs[0].first].id, hull[pairs[0].second].id,
                             dist2(hull[pairs[0].first], hull[pairs[0].second])};
  for (const auto& [a, b] : pairs) {
    CT d = dist2(hull[a], hull[b]);
    if (best.d2 < d) best = {hull[a].id, hull[b].id, d};
  }
  return best;
}

// Minimum-area enclosing rectangle (Theorem 5.8): per edge, the support
// vertex comes from the antipodal grouping and the two perpendicular
// extremes from a second grouping with directions rotated 90 degrees; one
// steady/static minimum reduction finishes.
template <class CT>
EnclosingRectangle<CT> machine_min_rectangle(Machine& m,
                                             const std::vector<Point2<CT>>& hull) {
  std::size_t h = hull.size();
  std::size_t P = m.size();
  DYNCG_ASSERT(h >= 3 && h <= P, "need a polygon fitting the machine");
  m.charge_shift(2);
  m.charge_local(8);
  auto edge_dir = [&hull, h](std::size_t i) {
    const Point2<CT>& a = hull[(i + h - 1) % h];
    const Point2<CT>& b = hull[i];
    return std::pair<CT, CT>{b.x - a.x, b.y - a.y};
  };
  auto [rx, ry] = edge_dir(0);

  // The maximizer of direction d is the vertex P_j whose sector (in edge
  // rays) contains rot90(d); three groupings per edge: far side (-u), and
  // the two perpendicular extremes (+-rot90(u) queries become -u rotated).
  auto locate = [&](auto make_query) {
    std::vector<std::optional<std::pair<DirKey<CT>, long>>> data(P);
    std::vector<std::optional<DirKey<CT>>> queries(P);
    for (std::size_t i = 0; i < h; ++i) {
      auto [dx, dy] = edge_dir(i);
      data[i] = std::pair<DirKey<CT>, long>{DirKey<CT>(dx, dy, rx, ry),
                                            static_cast<long>(i)};
      auto [qx, qy] = make_query(dx, dy);
      queries[i] = DirKey<CT>(qx, qy, rx, ry);
    }
    auto res = ops::concurrent_read<DirKey<CT>, long>(m, data, queries,
                                                      /*exact_match=*/false);
    std::vector<std::size_t> out(h);
    for (std::size_t i = 0; i < h; ++i) {
      out[i] = res[i].has_value() ? static_cast<std::size_t>(*res[i]) : h - 1;
    }
    return out;
  };
  // maximizer along d  <->  rot90(d) = (-d.y, d.x) located among edge rays.
  // far side: d = inward normal = rot90(u)  => query rot90(rot90(u)) = -u.
  auto far_v = locate([](CT ux, CT uy) { return std::pair<CT, CT>{-ux, -uy}; });
  // forward extreme: d = u => query rot90(u) = (-u.y, u.x).
  auto fwd_v = locate([](CT ux, CT uy) { return std::pair<CT, CT>{-uy, ux}; });
  // backward extreme: d = -u => query rot90(-u) = (u.y, -u.x).
  auto bck_v = locate([](CT ux, CT uy) { return std::pair<CT, CT>{uy, -ux}; });

  geom_detail::charge_ladder(m, P);  // final minimum reduction
  m.charge_local(8);

  bool have = false;
  EnclosingRectangle<CT> best;
  for (std::size_t i = 0; i < h; ++i) {
    auto [ux, uy] = edge_dir(i);
    const Point2<CT>& base = hull[(i + h - 1) % h];
    CT len2 = ux * ux + uy * uy;
    // Consider the located vertex and its cyclic successor (tie guard).
    auto proj = [&](std::size_t v) {
      return (hull[v].x - base.x) * ux + (hull[v].y - base.y) * uy;
    };
    auto lift = [&](std::size_t v) {
      return (hull[v].x - base.x) * uy * CT(-1.0) +
             (hull[v].y - base.y) * ux;  // cross(u, p - base)
    };
    CT maxu = proj(fwd_v[i]), minu = proj(bck_v[i]), maxn = lift(far_v[i]);
    for (std::size_t v :
         {(fwd_v[i] + 1) % h, (bck_v[i] + 1) % h, (far_v[i] + 1) % h}) {
      CT pu = proj(v), pn = lift(v);
      if (maxu < pu) maxu = pu;
      if (pu < minu) minu = pu;
      if (maxn < pn) maxn = pn;
    }
    EnclosingRectangle<CT> cand{(i + h - 1) % h, i, (maxu - minu) * maxn, len2};
    if (!have || cand.area_num * best.len2 < best.area_num * cand.len2) {
      best = cand;
      have = true;
    }
  }
  return best;
}

// --- Proposition 5.2: steady-state nearest/farthest neighbor --------------

std::size_t machine_steady_neighbor(Machine& m, const MotionSystem& system,
                                    std::size_t query, bool farthest = false);

// The "naive" solution Section 5 opens with: take the last piece of the
// Theorem 4.1 sequence.  Correct, but needs lambda_M(n-1, 2k) PEs and
// Theta(lambda^(1/2)) mesh time where Prop 5.2 needs Theta(n) PEs and
// Theta(n^(1/2)); bench_table3 contrasts the two.  The machine must be
// sized like proximity_machine_*.
std::size_t machine_steady_neighbor_via_transient(Machine& m,
                                                  const MotionSystem& system,
                                                  std::size_t query,
                                                  bool farthest = false);

// Steady-state hull-vertex query by the Proposition 5.4 remark: "another
// optimal solution may be obtained by modifying the algorithm used for
// Theorem 4.5".  At t -> infinity the Lemma 4.4 conditions become sign
// tests on direction *germs* of the rays query -> P_j: four semigroup
// reductions (min/max over the G and B sides under the circular-angle
// comparator) plus O(1) germ cross products — Theta(n^(1/2)) mesh,
// Theta(log n) hypercube, optimal.
bool machine_steady_is_hull_vertex(Machine& m, const MotionSystem& system,
                                   std::size_t query);

// --- steady-state wrappers (Table 3 rows) ----------------------------------

ClosestPairResult<AsymptoticPoly> machine_steady_closest_pair(
    Machine& m, const MotionSystem& system);

// The steady hull (Proposition 5.4) as ccw germ points, under the
// "steady.hull" span.  Build it once and pass it to the three-argument
// machine_steady_farthest_pair to answer both rows for one hull's rounds.
std::vector<Point2<RationalGerm>> machine_steady_hull(
    Machine& m, const MotionSystem& system);
// The ids of machine_steady_hull, same span and ledger.
std::vector<std::size_t> machine_steady_hull_ids(Machine& m,
                                                 const MotionSystem& system);
// Farthest pair (Proposition 5.6) from the system alone: builds its own
// hull inside the "steady.farthest_pair" span.
ClosestPairResult<AsymptoticPoly> machine_steady_farthest_pair(
    Machine& m, const MotionSystem& system);
// The same answer from a hull machine_steady_hull built on `m` for
// `system`: only the antipodal pairs and the reduction are charged.
ClosestPairResult<AsymptoticPoly> machine_steady_farthest_pair(
    Machine& m, const MotionSystem& system,
    const std::vector<Point2<RationalGerm>>& hull);
SteadyRectangle machine_steady_min_rectangle(Machine& m,
                                             const MotionSystem& system);

}  // namespace dyncg
