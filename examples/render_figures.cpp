// Regenerates the paper's geometric figures as SVG files in the current
// directory:
//   figure4.svg — the pieces of min{f, g, h} (functions + envelope)
//   figure5.svg — a partial angle function switching defined/undefined
//   figure6.svg — a convex polygon, an antipodal pair, parallel lines of
//                 support, and the edge-ray sector diagram
//
//   $ ./render_figures [output_dir]
#include <cmath>
#include <cstdio>
#include <string>

#include "dyncg/hull_membership.hpp"
#include "dyncg/motion.hpp"
#include "pieces/envelope_serial.hpp"
#include "steady/machine_geometry.hpp"
#include "support/rng.hpp"
#include "support/svg.hpp"

namespace {

using namespace dyncg;

bool render_figure4(const std::string& dir) {
  PolyFamily fam({Polynomial({6.0, -0.5}),   // f
                  Polynomial({0.0, 1.0}),    // g
                  Polynomial({2.0})});       // h
  const char* names[] = {"f", "g", "h"};
  const char* colors[] = {"#888", "#888", "#888"};
  SvgCanvas svg(-0.5, -0.8, 12.0, 8.0);
  // The three functions.
  for (int i = 0; i < 3; ++i) {
    std::vector<std::pair<double, double>> pts;
    for (double t = 0; t <= 12; t += 0.1) pts.push_back({t, fam.value(i, t)});
    svg.polyline(pts, colors[i], 1.5);
    svg.text(10.7, fam.value(i, 10.7) + 0.25, names[i], 15, "#555");
  }
  // The envelope, thick, with piece boundaries marked.
  PiecewiseFn env = envelope_serial(fam);
  std::vector<std::pair<double, double>> epts;
  for (double t = 0; t <= 12; t += 0.05) {
    epts.push_back({t, fam.value(env.id_at(t), t)});
  }
  svg.polyline(epts, "#c0392b", 3.5);
  const char* labels[] = {"a", "b"};
  int li = 0;
  for (const Piece& p : env.pieces) {
    if (std::isinf(p.iv.hi)) break;
    svg.line(p.iv.hi, -0.8, p.iv.hi, fam.value(p.id, p.iv.hi), "#777", 1.0,
             true);
    svg.circle(p.iv.hi, fam.value(p.id, p.iv.hi), 4, "#c0392b");
    if (li < 2) svg.text(p.iv.hi - 0.15, -0.55, labels[li++], 14);
  }
  svg.text(0.2, 7.4, "Figure 4: pieces of min{f, g, h}", 16);
  svg.text(0.2, 6.9, "(g,[0,a]); (h,[a,b]); (f,[b,inf))", 13, "#c0392b");
  return svg.save(dir + "/figure4.svg");
}

bool render_figure5(const std::string& dir) {
  // One partial angle function: G for a point crossing the query's
  // horizontal line twice (defined where y_j >= y_0).
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory(
      {Polynomial({-1.0, 0.4}), Polynomial::from_roots({1.0, 4.0})}));
  MotionSystem sys(2, std::move(pts));
  RelativeMotion rel = RelativeMotion::around(sys, 0);
  AngleFamily g(&rel, true);
  SvgCanvas svg(-0.3, -3.6, 7.0, 3.6);
  svg.line(-0.3, 0, 7.0, 0, "#999", 1.0);
  svg.text(6.5, 0.15, "t", 13, "#555");
  for (const Interval& iv : g.defined_intervals(0)) {
    std::vector<std::pair<double, double>> seg;
    double hi = std::isinf(iv.hi) ? 7.0 : iv.hi;
    for (double t = iv.lo; t <= hi; t += 0.02) {
      seg.push_back({t, g.value(0, t)});
    }
    svg.polyline(seg, "#2471a3", 3.0);
    svg.line(iv.lo, -3.5, iv.lo, 3.5, "#b03a2e", 1.0, true);
    if (!std::isinf(iv.hi)) svg.line(iv.hi, -3.5, iv.hi, 3.5, "#b03a2e", 1.0, true);
  }
  svg.text(0.1, 3.2, "Figure 5: a partial function G_j with transitions", 15);
  svg.text(0.1, 2.8, "(defined only while y_j >= y_0; dashes mark "
           "transitions)", 12, "#b03a2e");
  return svg.save(dir + "/figure5.svg");
}

bool render_figure6(const std::string& dir) {
  // A convex hexagon with one antipodal pair and its parallel support
  // lines, plus the sector rays at the origin.
  Rng rng(12);
  std::vector<Point2<double>> raw;
  for (int i = 0; i < 6; ++i) {
    double a = 2 * M_PI * i / 6.0 + 0.2;
    double r = 3.0 + rng.uniform(-0.6, 0.6);
    raw.push_back(Point2<double>{r * std::cos(a), r * std::sin(a),
                                 static_cast<std::size_t>(i)});
  }
  auto hull = convex_hull(raw);
  SvgCanvas svg(-9.5, -5.5, 9.5, 5.5, 760, 440);
  std::vector<std::pair<double, double>> poly;
  for (const auto& p : hull) poly.push_back({p.x - 4.5, p.y});
  svg.polygon(poly, "#1e8449", "#82e0aa");
  for (std::size_t i = 0; i < hull.size(); ++i) {
    svg.circle(hull[i].x - 4.5, hull[i].y, 4, "#145a32");
    svg.text(hull[i].x - 4.4, hull[i].y + 0.25,
             "v" + std::to_string(i), 12, "#145a32");
  }
  // Farthest antipodal pair + support lines perpendicular to the diameter.
  auto pairs = antipodal_pairs(hull);
  std::size_t ba = pairs[0].first, bb = pairs[0].second;
  double best = 0;
  for (auto [a, b] : pairs) {
    double d = dist2(hull[a], hull[b]);
    if (d > best) {
      best = d;
      ba = a;
      bb = b;
    }
  }
  const auto& A = hull[ba];
  const auto& B = hull[bb];
  svg.line(A.x - 4.5, A.y, B.x - 4.5, B.y, "#c0392b", 2.0);
  double dx = B.x - A.x, dy = B.y - A.y;
  double len = std::sqrt(dx * dx + dy * dy);
  double px = -dy / len * 3.0, py = dx / len * 3.0;
  svg.line(A.x - 4.5 - px, A.y - py, A.x - 4.5 + px, A.y + py, "#555", 1.2, true);
  svg.line(B.x - 4.5 - px, B.y - py, B.x - 4.5 + px, B.y + py, "#555", 1.2, true);
  svg.text(-8.9, 4.9, "Figure 6a: antipodal pair + parallel lines of "
           "support", 14);
  // 6b: edge-ray sector diagram on the right.
  double cx = 5.0, cy = 0.0;
  std::size_t h = hull.size();
  for (std::size_t i = 0; i < h; ++i) {
    const auto& prev = hull[(i + h - 1) % h];
    const auto& cur = hull[i];
    double ex = cur.x - prev.x, ey = cur.y - prev.y;
    double el = std::sqrt(ex * ex + ey * ey);
    svg.line(cx, cy, cx + 3.5 * ex / el, cy + 3.5 * ey / el, "#1a5276", 1.6);
    svg.text(cx + 3.8 * ex / el, cy + 3.8 * ey / el,
             "e" + std::to_string(i), 12, "#1a5276");
  }
  svg.circle(cx, cy, 3, "#1a5276");
  svg.text(2.4, 4.9, "Figure 6b: edge rays partition directions into "
           "sectors", 14);
  return svg.save(dir + "/figure6.svg");
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : ".";
  bool ok = render_figure4(dir) && render_figure5(dir) && render_figure6(dir);
  std::printf("%s/figure4.svg, figure5.svg, figure6.svg: %s\n", dir.c_str(),
              ok ? "written" : "FAILED");
  return ok ? 0 : 1;
}
