#pragma once

#include <limits>
#include <vector>

#include "poly/polynomial.hpp"

// Real-root isolation for the bounded-degree polynomials of the k-motion
// model.  The paper assumes (Section 6, property 4) that the at-most-k
// solutions of f(t) = g(t) can be found in Theta(1) serial time; this module
// is that primitive.  The method recurses on derivatives: the roots of p'
// partition the line into intervals on which p is monotone, so each interval
// holds at most one root, found by bisection and polished by Newton steps.
// Tangential roots (even multiplicity) are detected at the critical points.
namespace dyncg {

struct RootFindResult {
  // True when the polynomial is identically zero on the queried interval, in
  // which case `roots` is meaningless (every point is a root).
  bool identically_zero = false;
  // Distinct real roots in ascending order.
  std::vector<double> roots;
};

// Reusable buffers for the derivative-recursion root isolation.  One level
// per recursion depth (the derivative chain), plus the difference polynomial
// for crossing_times_into.  Thread-confined; grab the calling thread's
// instance with thread_root_scratch().
struct RootScratch {
  struct Level {
    Polynomial deriv;
    std::vector<double> crit;
    std::vector<double> knots;
    std::vector<double> vals;  // p at each knot, one batched evaluation
  };
  Polynomial diff;
  std::vector<Level> levels;

  Level& level(std::size_t depth) {
    if (depth >= levels.size()) levels.resize(depth + 1);
    return levels[depth];
  }
};

RootScratch& thread_root_scratch();

// Sign of p at t, 0 when the computed p(t) is within Horner's rounding-error
// bound of zero (the zero test root isolation uses at its knots).  A value
// whose bound overflows keeps its sign.
int robust_sign(const Polynomial& p, double t);

// Whether q can vanish at the true root behind t, a root that isolation
// reported for another polynomial.  t is off by up to the isolation's root
// tolerance r = 2e-12 (1 + |t|), so beyond Horner's bound at t this allows
// what q can move over r: r sum i|c_i|(|t| + r)^(i-1).
bool vanishes_at_isolated_root(const Polynomial& q, double t);

// The root entry points.  Results land in `out` (cleared first) and every
// intermediate lives in `scratch`, so a warm scratch isolates roots without
// allocating.

// All distinct real roots of p in the closed interval [lo, hi].
void real_roots_into(const Polynomial& p, double lo, double hi,
                     RootScratch& scratch, RootFindResult& out);

// All distinct real roots of p in [t0, +infinity).  Uses the Cauchy bound to
// cap the search interval.
//
// `stop` is where the caller's window ends: a caller that keeps only the
// roots inside its cell (t0, stop) passes the cell's end, and the monotone
// intervals past it are skipped.  No bracket moves, so every root below
// `stop` has the bits the default call (+infinity) gives it; roots at or
// past it may be missing.
void real_roots_from_into(
    const Polynomial& p, double t0, RootScratch& scratch, RootFindResult& out,
    double stop = std::numeric_limits<double>::infinity());

// The distinct t >= t0 at which f and g intersect (f - g = 0), cut at
// `stop` as above.  If the two polynomials are identical,
// `identically_zero` is set.
void crossing_times_into(
    const Polynomial& f, const Polynomial& g, double t0, RootScratch& scratch,
    RootFindResult& out, double stop = std::numeric_limits<double>::infinity());

}  // namespace dyncg
