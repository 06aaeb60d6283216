#include "poly/roots.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "poly/kernels.hpp"
#include "support/assert.hpp"

namespace dyncg {
namespace {

constexpr double kRootTol = 1e-12;  // bisection interval width target
constexpr int kBisectIters = 200;
constexpr double kNoStop = std::numeric_limits<double>::infinity();

// The zero test: Horner's rule computes p(x) to within about
// 2 deg u sum|c_i||x|^i (u = 2^-53, the unit roundoff), so a computed value
// within gamma (deg + 1) u sum|c_i||x|^i of zero cannot be told from zero.
// gamma leaves room for the rounding of x itself (a critical point is a
// computed root of p').
constexpr double kUnitRoundoff = 0x1p-53;
constexpr double kZeroSlack = 4.0;  // gamma

double horner_bound(const Polynomial& p, double x) {
  const std::vector<double>& c = p.coefficients();
  const double ax = std::fabs(x);
  double terms = 0.0;  // sum|c_i||x|^i, by Horner's rule
  for (std::size_t i = c.size(); i-- > 0;) terms = terms * ax + std::fabs(c[i]);
  return kZeroSlack * (p.degree() + 1) * kUnitRoundoff * terms;
}

// An overflowed bound says nothing: the value it bounds has overflowed too,
// or lost every bit, and keeps its sign.  The search's top end,
// root_bound() + 1, overflows p for a small enough leading coefficient.
bool horner_zero(const Polynomial& p, double x, double px) {
  const double bound = horner_bound(p, x);
  return std::isfinite(bound) && std::fabs(px) <= bound;
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
// zero, appended to `out` in ascending order.  `depth` indexes the scratch
// level (the derivative chain).
//
// `stop` cuts the work past the caller's window without moving a bracket,
// so every root below it keeps its bits.  Depth 0 keeps its knots through
// the first one at or past `stop`, which skips every monotone interval that
// starts there.  Depth 1 returns once it has kept a root at or past `stop`:
// its list up to that root is the uncut list's, and that root is depth 0's
// last knot.  Deeper levels run whole: a cut depth 2 could hide depth 1's
// first root past `stop`, and depth 0 would bisect a wider last interval.
void roots_rec_into(const Polynomial& p, double lo, double hi, double stop,
                    RootScratch& scratch, std::size_t depth,
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
    // A discriminant within its own rounding error is a double root.  One
    // whose error bound overflows says nothing, so the general case below
    // brackets the roots instead.
    double dtol =
        3 * kZeroSlack * kUnitRoundoff * (b * b + 4 * std::fabs(a * c));
    if (std::isfinite(dtol)) {
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
  }
  // General case: critical points split [lo, hi] into monotone intervals.
  // The wrappers pre-size the level chain to the top-level degree, so this
  // reference stays valid across the recursive call below.
  RootScratch::Level& lv = scratch.levels[depth];
  lv.deriv.assign_derivative(p);
  lv.crit.clear();
  roots_rec_into(lv.deriv, lo, hi, depth == 0 ? stop : kNoStop, scratch,
                 depth + 1, lv.crit);
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
  const double dedup_tol = kRootTol * (1 + std::fabs(lo) + std::fabs(hi));
  auto keep = [&](double r) {
    if (out.size() == start || r - out.back() > dedup_tol) out.push_back(r);
  };
  // Each knot is tested once: an interval's right end is the next one's
  // left end.
  bool za = horner_zero(p, lv.knots[0], lv.vals[0]);
  for (std::size_t i = 0; i + 1 < lv.knots.size(); ++i) {
    double a = lv.knots[i], b = lv.knots[i + 1];
    double fa = lv.vals[i], fb = lv.vals[i + 1];
    bool zb = horner_zero(p, b, fb);
    if (za) keep(a);
    if (zb && i + 2 == lv.knots.size()) keep(b);
    if (!za && !zb && (fa < 0) != (fb < 0)) {
      keep(bisect(p, lv.deriv, a, b));
    }
    // Depth 1's cut.  Depth 0 can pass it only in its last interval.
    if (out.size() > start && out.back() >= stop) return;
    za = zb;
  }
}

}  // namespace

RootScratch& thread_root_scratch() {
  thread_local RootScratch scratch;
  return scratch;
}

int robust_sign(const Polynomial& p, double t) {
  double v = p(t);
  if (horner_zero(p, t, v)) return 0;
  return v > 0 ? 1 : -1;
}

bool vanishes_at_isolated_root(const Polynomial& q, double t) {
  // A bisection stops once its bracket, which holds t and the true root, is
  // at most kRootTol (1 + |lo| + |hi|) wide; a critical point is such a
  // root of p'.
  const double r = 2 * kRootTol * (1 + std::fabs(t));
  const std::vector<double>& c = q.coefficients();
  const double x = std::fabs(t) + r;
  double slope = 0.0;  // sum i|c_i|x^(i-1) bounds |q'| within r of t
  for (std::size_t i = c.size(); i-- > 1;) {
    slope = slope * x + static_cast<double>(i) * std::fabs(c[i]);
  }
  const double bound = horner_bound(q, t) + r * slope;
  return std::isfinite(bound) && std::fabs(q(t)) <= bound;
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
  roots_rec_into(p, lo, hi, kNoStop, scratch, 0, out.roots);
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
  roots_rec_into(p, t0, hi, stop, scratch, 0, out.roots);
}

void crossing_times_into(const Polynomial& f, const Polynomial& g, double t0,
                         RootScratch& scratch, RootFindResult& out,
                         double stop) {
  scratch.diff.assign_difference(f, g);
  real_roots_from_into(scratch.diff, t0, scratch, out, stop);
}

}  // namespace dyncg
