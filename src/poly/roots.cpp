#include "poly/roots.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "poly/kernels.hpp"
#include "support/assert.hpp"

namespace dyncg {
namespace {

constexpr double kAbsTol = 1e-10;   // |p(t)| below scale * this counts as 0
constexpr double kRootTol = 1e-12;  // bisection interval width target
constexpr int kBisectIters = 200;
constexpr double kNoStop = std::numeric_limits<double>::infinity();

double magnitude_scale(const Polynomial& p) {
  double m = 0.0;
  for (double c : p.coefficients()) m = std::max(m, std::fabs(c));
  return m == 0.0 ? 1.0 : m;
}

// Bisection on [lo, hi] where p(lo) and p(hi) have strictly opposite signs.
// `dp` is p's derivative, precomputed by the caller (the recursion already
// needed it for the critical points).
double bisect(const Polynomial& p, const Polynomial& dp, double lo,
              double hi) {
  double flo = p(lo);
  for (int it = 0; it < kBisectIters && hi - lo > kRootTol * (1 + std::fabs(lo) + std::fabs(hi)); ++it) {
    double mid = 0.5 * (lo + hi);
    double fm = p(mid);
    if (fm == 0.0) return mid;
    if ((flo < 0) != (fm < 0)) {
      hi = mid;
    } else {
      lo = mid;
      flo = fm;
    }
  }
  double r = 0.5 * (lo + hi);
  // Newton polish (guarded: keep within the bracket).
  for (int it = 0; it < 4; ++it) {
    double d = dp(r);
    if (d == 0.0) break;
    double step = p(r) / d;
    double cand = r - step;
    if (cand < lo || cand > hi) break;
    r = cand;
  }
  return r;
}

// Core recursion: distinct roots of p on [lo, hi], assuming p not identically
// zero, appended to `out` in ascending order.  `scale` is the magnitude of
// the original polynomial's coefficients; `depth` indexes the scratch level
// (the derivative chain).
//
// `stop` cuts the work past the caller's window without moving a bracket,
// so every root below it keeps its bits.  Depth 0 keeps its knots through
// the first one at or past `stop`, which skips every monotone interval that
// starts there.  Depth 1 returns once it has kept a root at or past `stop`:
// its list up to that root is the uncut list's, and that root is depth 0's
// last knot.  Deeper levels run whole: a cut depth 2 could hide depth 1's
// first root past `stop`, and depth 0 would bisect a wider last interval.
void roots_rec_into(const Polynomial& p, double lo, double hi, double stop,
                    double scale, RootScratch& scratch, std::size_t depth,
                    std::vector<double>& out) {
  const std::size_t start = out.size();
  int deg = p.degree();
  if (deg <= 0) return;
  if (deg == 1) {
    double r = -p.coefficient(0) / p.coefficient(1);
    if (r >= lo && r <= hi) out.push_back(r);
    return;
  }
  if (deg == 2) {
    double a = p.coefficient(2), b = p.coefficient(1), c = p.coefficient(0);
    double disc = b * b - 4 * a * c;
    // Tangency tolerance relative to the coefficient scale.
    double dtol = kAbsTol * scale * scale;
    if (disc > dtol) {
      double sq = std::sqrt(disc);
      // Numerically stable quadratic roots.
      double q = -0.5 * (b + (b >= 0 ? sq : -sq));
      double r1 = q / a;
      double r2 = (q == 0.0) ? r1 : c / q;
      if (r1 > r2) std::swap(r1, r2);
      if (r1 >= lo && r1 <= hi) out.push_back(r1);
      if (r2 >= lo && r2 <= hi && r2 != r1) out.push_back(r2);
    } else if (disc >= -dtol) {
      double r = -b / (2 * a);
      if (r >= lo && r <= hi) out.push_back(r);
    }
    return;
  }
  // General case: critical points split [lo, hi] into monotone intervals.
  // The wrappers pre-size the level chain to the top-level degree, so this
  // reference stays valid across the recursive call below.
  RootScratch::Level& lv = scratch.levels[depth];
  lv.deriv.assign_derivative(p);
  lv.crit.clear();
  roots_rec_into(lv.deriv, lo, hi, depth == 0 ? stop : kNoStop, scale,
                 scratch, depth + 1, lv.crit);
  lv.knots.clear();
  lv.knots.push_back(lo);
  for (double c : lv.crit) {
    if (c > lv.knots.back()) lv.knots.push_back(c);
  }
  if (hi > lv.knots.back()) lv.knots.push_back(hi);
  if (depth == 0) {
    auto past = std::find_if(lv.knots.begin(), lv.knots.end(),
                             [stop](double k) { return k >= stop; });
    if (past != lv.knots.end()) lv.knots.erase(past + 1, lv.knots.end());
  }

  // One batched sweep evaluates p at every knot; the scalar loop evaluated
  // each interior knot twice (as fb then fa) with identical results, so
  // reading the shared value is bit-identical.
  lv.vals.resize(lv.knots.size());
  kernels::horner_many(p.coefficients().data(), p.coefficients().size(),
                       lv.knots.data(), lv.knots.size(), lv.vals.data());

  // Each interval adds roots inside itself, in order, so they arrive
  // ascending and one pass drops each within dedup_tol of the last kept.
  // The tolerance comes from [lo, hi], whatever `stop` cuts.
  const double tol = kAbsTol * scale;
  const double dedup_tol = kRootTol * (1 + std::fabs(lo) + std::fabs(hi));
  auto keep = [&](double r) {
    if (out.size() == start || r - out.back() > dedup_tol) out.push_back(r);
  };
  for (std::size_t i = 0; i + 1 < lv.knots.size(); ++i) {
    double a = lv.knots[i], b = lv.knots[i + 1];
    double fa = lv.vals[i], fb = lv.vals[i + 1];
    bool za = std::fabs(fa) <= tol, zb = std::fabs(fb) <= tol;
    if (za) keep(a);
    if (zb && i + 2 == lv.knots.size()) keep(b);
    if (!za && !zb && (fa < 0) != (fb < 0)) {
      keep(bisect(p, lv.deriv, a, b));
    }
    // Depth 1's cut.  Depth 0 can pass it only in its last interval.
    if (out.size() > start && out.back() >= stop) return;
  }
}

}  // namespace

RootScratch& thread_root_scratch() {
  thread_local RootScratch scratch;
  return scratch;
}

int robust_sign(const Polynomial& p, double t) {
  double v = p(t);
  double tol = kAbsTol * magnitude_scale(p) *
               std::max(1.0, std::pow(std::fabs(t), std::max(0, p.degree())));
  if (std::fabs(v) <= tol) return 0;
  return v > 0 ? 1 : -1;
}

void real_roots_into(const Polynomial& p, double lo, double hi,
                     RootScratch& scratch, RootFindResult& out) {
  out.identically_zero = false;
  out.roots.clear();
  if (p.is_zero()) {
    out.identically_zero = true;
    return;
  }
  DYNCG_ASSERT(lo <= hi, "real_roots_into: empty interval");
  scratch.level(static_cast<std::size_t>(p.degree()));
  roots_rec_into(p, lo, hi, kNoStop, magnitude_scale(p), scratch, 0,
                 out.roots);
}

void real_roots_from_into(const Polynomial& p, double t0, RootScratch& scratch,
                          RootFindResult& out, double stop) {
  out.identically_zero = false;
  out.roots.clear();
  if (p.is_zero()) {
    out.identically_zero = true;
    return;
  }
  double hi = std::max(t0 + 1.0, p.root_bound() + 1.0);
  scratch.level(static_cast<std::size_t>(p.degree()));
  roots_rec_into(p, t0, hi, stop, magnitude_scale(p), scratch, 0, out.roots);
}

void crossing_times_into(const Polynomial& f, const Polynomial& g, double t0,
                         RootScratch& scratch, RootFindResult& out,
                         double stop) {
  scratch.diff.assign_difference(f, g);
  real_roots_from_into(scratch.diff, t0, scratch, out, stop);
}

}  // namespace dyncg
