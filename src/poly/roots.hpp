#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "poly/polynomial.hpp"

// Real-root isolation for the bounded-degree polynomials of the k-motion
// model.  The paper assumes (Section 6, property 4) that the at-most-k
// solutions of f(t) = g(t) can be found in Theta(1) serial time; this module
// is that primitive.  The method recurses on derivatives: the roots of p'
// partition the line into intervals on which p is monotone, so each interval
// holds at most one root.  A safeguarded Newton search settled by exact
// signs returns it as the largest double below the exact root (the root
// itself when it is a double), whatever the interval.  Tangential roots
// (even multiplicity) are detected at the critical points.  DESIGN.md §6
// says which roots are canonical this way and which are not yet.
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
  // What the root searches did, summed over the calls that used this
  // scratch (docs/PERFORMANCE.md#certified-roots): searches, Newton steps
  // on Horner's value and on the compensated value, signs decided by each
  // exact_sign stage, and searches that ended in the exact-sign bisection.
  struct Work {
    std::uint64_t searches = 0;
    std::uint64_t newton_steps = 0;
    std::uint64_t compensated_steps = 0;
    std::uint64_t signs[3] = {0, 0, 0};
    std::uint64_t fallbacks = 0;
  } work;

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

// The exact sign of p(x): -1, 0 or +1.  Three stages, each certifying the
// computed value's sign against its error bound, and the first that can
// decide does: Horner's rule, then compensated Horner, then BigFloat.
// Where a coefficient is not finite, no exact value exists and the sign of
// Horner's value is returned.  `stage`, when given, receives the deciding
// stage (1, 2 or 3; 0 for the zero polynomial).
int exact_sign(const Polynomial& p, double x, int* stage = nullptr);

// Whether q can vanish at the true root behind t, a root that isolation
// reported for another polynomial.  Beyond Horner's bound at t this allows
// what q can move over r = 2e-12 (1 + |t|), r sum i|c_i|(|t| + r)^(i-1):
// a closed-form quadratic root is only near the exact root.
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
