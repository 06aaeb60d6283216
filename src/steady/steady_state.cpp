#include "steady/steady_state.hpp"

#include "pieces/envelope_serial.hpp"
#include "support/assert.hpp"

namespace dyncg {

std::vector<Point2<AsymptoticPoly>> germ_points(const MotionSystem& system) {
  DYNCG_ASSERT(system.dimension() == 2, "steady-state geometry is planar");
  std::vector<Point2<AsymptoticPoly>> pts;
  pts.reserve(system.size());
  for (std::size_t i = 0; i < system.size(); ++i) {
    pts.push_back(Point2<AsymptoticPoly>{
        AsymptoticPoly(system.point(i).coordinate(0)),
        AsymptoticPoly(system.point(i).coordinate(1)), i});
  }
  return pts;
}

std::size_t steady_neighbor(const MotionSystem& system, std::size_t query,
                            bool farthest) {
  DYNCG_ASSERT(system.size() >= 2, "need two points");
  std::size_t best = query == 0 ? 1 : 0;
  Polynomial bd = system.point(query).distance_squared(system.point(best));
  for (std::size_t j = 0; j < system.size(); ++j) {
    if (j == query) continue;
    Polynomial d = system.point(query).distance_squared(system.point(j));
    int cmp = compare_at_infinity(d, bd);  // Lemma 5.1, Theta(1)
    if (farthest ? cmp > 0 : cmp < 0) {
      bd = d;
      best = j;
    }
  }
  return best;
}

ClosestPairResult<AsymptoticPoly> steady_closest_pair(
    const MotionSystem& system) {
  return closest_pair(germ_points(system));
}

ClosestPairResult<AsymptoticPoly> steady_farthest_pair(
    const MotionSystem& system) {
  return farthest_pair(germ_points(system));
}

std::vector<std::size_t> steady_hull_ids(const MotionSystem& system) {
  std::vector<Point2<AsymptoticPoly>> hull = convex_hull(germ_points(system));
  std::vector<std::size_t> ids;
  ids.reserve(hull.size());
  for (const auto& p : hull) ids.push_back(p.id);
  return ids;
}

bool steady_is_hull_vertex(const MotionSystem& system, std::size_t query) {
  for (std::size_t id : steady_hull_ids(system)) {
    if (id == query) return true;
  }
  return false;
}

Polynomial steady_diameter_squared(const MotionSystem& system) {
  ClosestPairResult<AsymptoticPoly> far = steady_farthest_pair(system);
  return system.point(far.a).distance_squared(system.point(far.b));
}

DiameterFunction steady_diameter_function(const MotionSystem& system) {
  // Steady antipodal pairs of the steady hull, via the germ calipers.
  std::vector<Point2<AsymptoticPoly>> hull = convex_hull(germ_points(system));
  DYNCG_ASSERT(hull.size() >= 2, "diameter of fewer than two points");
  std::vector<Polynomial> d2;
  if (hull.size() == 2) {
    d2.push_back(system.point(hull[0].id).distance_squared(
        system.point(hull[1].id)));
  } else {
    for (const auto& [a, b] : antipodal_pairs(hull)) {
      d2.push_back(system.point(hull[a].id).distance_squared(
          system.point(hull[b].id)));
    }
  }
  // The diameter function is the upper envelope of those squared
  // distances.  It is exact once the hull/antipodal structure has
  // stabilized; bound that horizon by the largest crossing among all the
  // pairwise squared distances of the system (a conservative structural
  // root bound).
  PolyFamily fam(std::move(d2));
  PiecewiseFn env = envelope_serial(fam, /*take_min=*/false);
  double horizon = 0.0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    for (std::size_t j = i + 1; j < system.size(); ++j) {
      Polynomial dij = system.point(i).distance_squared(system.point(j));
      horizon = std::max(horizon, dij.root_bound());
      for (std::size_t l = 0; l < system.size(); ++l) {
        for (std::size_t m2 = l + 1; m2 < system.size(); ++m2) {
          if (l == i && m2 == j) continue;
          Polynomial diff =
              dij - system.point(l).distance_squared(system.point(m2));
          horizon = std::max(horizon, diff.root_bound());
        }
      }
    }
  }
  return DiameterFunction{materialize(fam, env), horizon};
}

SteadyRectangle steady_min_rectangle(const MotionSystem& system) {
  std::vector<Point2<AsymptoticPoly>> hull = convex_hull(germ_points(system));
  EnclosingRectangle<AsymptoticPoly> rect = min_enclosing_rectangle(hull);
  return SteadyRectangle{hull[rect.edge_from].id, hull[rect.edge_to].id,
                         RationalGerm(rect.area_num.poly(), rect.len2.poly())};
}

std::vector<Point2<RationalGerm>> germ_field_points(
    const MotionSystem& system) {
  DYNCG_ASSERT(system.dimension() == 2, "steady-state geometry is planar");
  std::vector<Point2<RationalGerm>> pts;
  pts.reserve(system.size());
  for (std::size_t i = 0; i < system.size(); ++i) {
    pts.push_back(Point2<RationalGerm>{
        RationalGerm(system.point(i).coordinate(0)),
        RationalGerm(system.point(i).coordinate(1)), i});
  }
  return pts;
}

std::vector<Point2<double>> snapshot_points(const MotionSystem& system,
                                            double t) {
  DYNCG_ASSERT(system.dimension() == 2, "snapshot is planar");
  std::vector<Point2<double>> pts;
  pts.reserve(system.size());
  for (std::size_t i = 0; i < system.size(); ++i) {
    auto pos = system.point(i).position(t);
    pts.push_back(Point2<double>{pos[0], pos[1], i});
  }
  return pts;
}

}  // namespace dyncg
