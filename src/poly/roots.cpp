#include "poly/roots.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "poly/bigfloat.hpp"
#include "poly/kernels.hpp"
#include "support/assert.hpp"

namespace dyncg {
namespace {

// The dedup distance, and the root error vanishes_at_isolated_root allows:
// roots within kRootTol (1 + |lo| + |hi|) of each other count as one.
constexpr double kRootTol = 1e-12;
constexpr double kNoStop = std::numeric_limits<double>::infinity();

// The knot zero test: Horner's rule computes p(x) to within about
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

// --- Exact signs ----------------------------------------------------------
//
// Three stages, each with an error bound that certifies the computed
// value's sign when the value exceeds it (n = deg p, T = sum|c_i||x|^i):
//   1. Horner's rule is within gamma_2n T of p(x), gamma_2n = 2nu/(1 - 2nu);
//      (2n + 1) u times the computed T bounds that, T's own rounding
//      included.
//   2. Compensated Horner is within u|p(x)| + gamma_2n^2 T of p(x), so its
//      sign is p(x)'s once it exceeds (2n + 1)^2 u^2 T.
//   3. BigFloat Horner is exact.
// Underflow adds absolute errors the relative bounds miss: under 2^-1074
// per Horner product and under 2^-1044 per TwoProduct, each carried to the
// result times |x|^i.  Both bounds add kUnderflowSlack sum|x|^i for them:
// 2^-1000 (~1e-301) is far more than needed, but a normal number, so no
// bound is computed from subnormal operands, which cost a microcode assist
// each.  An overflow leaves an infinite bound or a NaN, which decides
// nothing.
constexpr double kUnderflowSlack = 0x1p-1000;

// Error-free transformations, barring overflow: a + b = s + e exactly
// (TwoSum), and Veltkamp's split of a into two halves whose four products
// with the halves of b are exact, so a b = p + e (Dekker's TwoProduct).
// Both need every operation rounded on its own: the build sets no -march,
// so there is no fused multiply-add to contract into (poly/kernels.hpp).
void two_sum(double a, double b, double& s, double& e) {
  s = a + b;
  const double z = s - a;
  e = (a - (s - z)) + (b - z);
}

void split(double a, double& hi, double& lo) {
  const double c = 134217729.0 * a;  // 2^27 + 1
  hi = c - (c - a);
  lo = a - hi;
}

// One pass of Horner's rule at x over p = c[0] + ... + c[m-1] x^(m-1),
// m >= 1: the value with its stage-1 bound, p'(x) for Newton's step and,
// when kCompensated, the compensated value with its stage-2 bound.
// Compensated Horner (Graillat, Langlois and Louvet, 2005) recovers the
// rounding error of every product and sum and adds the errors up by a
// second Horner pass, as accurate as Horner's rule in twice the precision;
// its running value is Horner's, bit for bit.  A split or sum that
// overflows leaves a NaN.
struct Eval {
  double value;  // p(x) by Horner's rule, bit for bit Polynomial::operator()
  double slope;  // p'(x) by Horner's rule
  double bound;  // stage 1: |value - p(x)| <= bound
  double compensated = 0.0;
  double compensated_bound = 0.0;
};

template <bool kCompensated>
Eval evaluate(const double* c, std::size_t m, double x) {
  const double ax = std::fabs(x);
  double xh = 0.0, xl = 0.0;
  if constexpr (kCompensated) split(x, xh, xl);
  double v = 0.0, d = 0.0, err = 0.0, terms = 0.0, powers = 0.0;
  for (std::size_t i = m; i-- > 0;) {
    d = d * x + v;
    if constexpr (kCompensated) {
      const double prod = v * x;
      double vh, vl, se;
      split(v, vh, vl);
      const double pe = vl * xl - (((prod - vh * xh) - vl * xh) - vh * xl);
      two_sum(prod, c[i], v, se);
      err = err * x + (pe + se);
    } else {
      v = v * x + c[i];
    }
    terms = terms * ax + std::fabs(c[i]);  // T = sum|c_i||x|^i
    powers = powers * ax + 1.0;            // sum|x|^i
  }
  const double n2 = 2.0 * static_cast<double>(m - 1) + 1.0;  // 2n + 1
  const double slack = kUnderflowSlack * powers;
  Eval e{v, d, n2 * kUnitRoundoff * terms + slack};
  if constexpr (kCompensated) {
    e.compensated = v + err;
    e.compensated_bound =
        n2 * n2 * (kUnitRoundoff * kUnitRoundoff) * terms + slack;
  }
  return e;
}

// The sign of v when |v| > bound, else 0 (a NaN or infinite bound too).
int certified_sign(double v, double bound) {
  if (!(std::fabs(v) > bound)) return 0;
  return v > 0 ? 1 : -1;
}

int bigfloat_sign(const double* c, std::size_t m, double x, double approx) {
  // A coefficient or x that is not finite has no exact value: the computed
  // value's sign is all there is.
  bool finite = std::isfinite(x);
  for (std::size_t i = 0; i < m; ++i) finite = finite && std::isfinite(c[i]);
  if (!finite) return approx > 0 ? 1 : (approx < 0 ? -1 : 0);
  const BigFloat bx(x);
  BigFloat acc(c[m - 1]);
  for (std::size_t i = m - 1; i-- > 0;) acc = acc * bx + BigFloat(c[i]);
  return acc.sign();
}

// The exact sign at x from a compensated evaluation there: stage 1 if it
// decides, else stage 2, else stage 3.  `stage` receives which.
int settled_sign(const double* c, std::size_t m, double x, const Eval& e,
                 int& stage) {
  stage = 1;
  if (int s = certified_sign(e.value, e.bound)) return s;
  stage = 2;
  if (std::isfinite(e.compensated)) {
    if (int s = certified_sign(e.compensated, e.compensated_bound)) return s;
  }
  stage = 3;
  return bigfloat_sign(c, m, x, e.value);
}

// settled_sign for the search, counted in `work`.
int search_sign(const double* c, std::size_t m, double x, const Eval& e,
                RootScratch::Work& work) {
  int stage = 0;
  const int s = settled_sign(c, m, x, e, stage);
  ++work.signs[stage - 1];
  return s;
}

// Doubles in order: key(x) < key(y) iff x < y, adjacent doubles have
// adjacent keys, and -0.0 and +0.0 share key 0.
std::int64_t order_key(double x) {
  const auto b = std::bit_cast<std::int64_t>(x);
  return b >= 0 ? b : -(b & std::numeric_limits<std::int64_t>::max());
}

double from_order_key(std::int64_t k) {
  return k >= 0 ? std::bit_cast<double>(k) : -std::bit_cast<double>(-k);
}

// Step budgets: Newton steps on Horner's value (past them, the exact-sign
// bisection below still settles the root), Newton steps on the compensated
// value, and ulps the final walk may take.
constexpr int kNewtonSteps = 64;
constexpr int kCompensatedSteps = 2;
constexpr int kWalkUlps = 4;

// The root of p in (a, b), whose ends have certified, opposite signs
// (fa = p(a), fb = p(b) as computed): the largest double below the exact
// root, or the root itself when it is a double.  With one sign change in
// (a, b) that answer depends on p alone, not on the bracket or the path.
//
// Safeguarded Newton steps start from the regula-falsi point: a step that
// leaves the bracket bisects instead, and only a stage-1 certified sign
// moves the bracket.  Once stage 1 cannot decide, x is within Horner's
// noise of the root, and up to two Newton steps on the compensated value
// take it to within an ulp or so.  Exact signs then walk to the one-ulp
// bracket; when it is more than kWalkUlps away, an exact-sign bisection
// over the doubles of the bracket settles it in at most 64 steps.
double search_root(const double* c, std::size_t m, double a, double b,
                   double fa, double fb, RootScratch::Work& work) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ++work.searches;
  const int sa = fa > 0 ? 1 : -1;  // p(b) has the other sign
  const double deg = static_cast<double>(m - 1);
  double x = a - fa * ((b - a) / (fb - fa));
  if (!(x > a && x < b)) x = a + 0.5 * (b - a);
  // Far from the root, where p grows like (x - r)^deg, a Newton step covers
  // only 1/deg of the way.  A step from the side of the last one that
  // shrank |p| less than fourfold doubles the step's multiple, up to deg;
  // a sign change resets it.
  double mult = 1.0, last_abs = 0.0;
  int last_sign = 0;
  Eval e{};
  for (int it = 0; it < kNewtonSteps; ++it) {
    e = evaluate<false>(c, m, x);
    const int s = certified_sign(e.value, e.bound);
    if (s == 0) break;
    ++work.newton_steps;
    (s == sa ? a : b) = x;
    const double av = std::fabs(e.value);
    if (s != last_sign) {
      mult = 1.0;
    } else if (av > 0.25 * last_abs) {
      mult = std::min(2.0 * mult, deg);
    }
    last_sign = s;
    last_abs = av;
    const double step = e.value / e.slope;
    double next = x - mult * step;
    if (!(next > a && next < b)) next = x - step;
    if (!(next > a && next < b)) {
      next = a + 0.5 * (b - a);
      if (!(next > a && next < b)) break;  // a and b are adjacent
    }
    x = next;
  }
  // x is within Horner's noise of the root.  Each compensated evaluation
  // gives a Newton step and, when a stage can decide it, x's exact sign.
  e = evaluate<true>(c, m, x);
  for (int it = 0; it < kCompensatedSteps; ++it) {
    const double next = x - e.compensated / e.slope;
    if (std::isnan(next) || std::clamp(next, a, b) == x) break;
    ++work.compensated_steps;
    x = std::clamp(next, a, b);
    e = evaluate<true>(c, m, x);
  }
  // The walk, then the bisection: a keeps sign sa and b the other.
  if (!(x < b)) {
    x = std::nextafter(b, -kInf);
    e = evaluate<true>(c, m, x);
  }
  int s = x == a ? sa : search_sign(c, m, x, e, work);
  for (int k = 0; s != 0 && k < kWalkUlps; ++k) {
    (s == sa ? a : b) = x;
    x = std::nextafter(x, s == sa ? kInf : -kInf);
    if (!(x > a && x < b)) return a;
    s = search_sign(c, m, x, evaluate<true>(c, m, x), work);
  }
  if (s == 0) return x;
  (s == sa ? a : b) = x;
  ++work.fallbacks;
  std::int64_t ka = order_key(a), kb = order_key(b);
  // Keys span up to 2^64 - 2^53: their difference fits in 64 bits unsigned.
  auto gap = [&] {
    return static_cast<std::uint64_t>(kb) - static_cast<std::uint64_t>(ka);
  };
  while (gap() > 1) {
    const std::int64_t km = ka + static_cast<std::int64_t>(gap() / 2);
    const double mid = from_order_key(km);
    const int sm = search_sign(c, m, mid, evaluate<true>(c, m, mid), work);
    if (sm == 0) return mid;
    (sm == sa ? ka : kb) = km;
  }
  return from_order_key(ka);
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
// first root past `stop`, and depth 0 would search a wider last interval.
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
    // whose error bound overflows or underflows (coefficients past ~1e154
    // or below ~1e-154) says nothing, so the general case below brackets
    // the roots instead.
    double dtol =
        3 * kZeroSlack * kUnitRoundoff * (b * b + 4 * std::fabs(a * c));
    if (std::isfinite(dtol) && dtol >= std::numeric_limits<double>::min()) {
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
      keep(search_root(p.coefficients().data(), p.coefficients().size(), a, b,
                       fa, fb, scratch.work));
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

int exact_sign(const Polynomial& p, double x, int* stage) {
  int decided = 0, s = 0;
  if (!p.is_zero()) {
    const double* c = p.coefficients().data();
    const std::size_t m = p.coefficients().size();
    // Stage 1 alone decides nearly every point away from a root.
    const Eval e = evaluate<false>(c, m, x);
    decided = 1;
    s = certified_sign(e.value, e.bound);
    if (s == 0) s = settled_sign(c, m, x, evaluate<true>(c, m, x), decided);
  }
  if (stage != nullptr) *stage = decided;
  return s;
}

bool vanishes_at_isolated_root(const Polynomial& q, double t) {
  // A searched root is within an ulp of the exact one, but a closed-form
  // quadratic root is only near it (ROADMAP item 3).
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
