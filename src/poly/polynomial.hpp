#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

// Dense univariate polynomials with real (double) coefficients.  These are
// the trajectory coordinates of the paper's k-motion model (Section 2.4) and
// everything derived from them: squared distances (degree <= 2k), support
// line offsets, rectangle areas (degree <= 8k), ...
namespace dyncg {

class Polynomial {
 public:
  // The zero polynomial.
  Polynomial() = default;

  // Coefficients in ascending order: c[0] + c[1] t + c[2] t^2 + ...
  explicit Polynomial(std::vector<double> coeffs);

  // Convenience: constant polynomial.
  static Polynomial constant(double c);

  // Convenience: the monomial a t^d.
  static Polynomial monomial(double a, int d);

  // Monic polynomial with the given real roots.
  static Polynomial from_roots(const std::vector<double>& roots);

  // Degree; the zero polynomial reports degree -1.
  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }

  bool is_zero() const { return coeffs_.empty(); }

  // The accessors below are inline: the envelope and root-isolation hot
  // loops read coefficients and evaluate millions of times per build, and
  // an out-of-line call costs more than the body.
  // Coefficient of t^i (zero when i exceeds the degree).
  double coefficient(int i) const {
    if (i < 0 || i >= static_cast<int>(coeffs_.size())) return 0.0;
    return coeffs_[static_cast<std::size_t>(i)];
  }

  const std::vector<double>& coefficients() const { return coeffs_; }

  // Horner evaluation.
  double operator()(double t) const {
    double v = 0.0;
    for (std::size_t i = coeffs_.size(); i-- > 0;) v = v * t + coeffs_[i];
    return v;
  }

  Polynomial derivative() const;

  Polynomial operator+(const Polynomial& o) const;
  Polynomial operator-(const Polynomial& o) const;
  Polynomial operator*(const Polynomial& o) const;
  Polynomial operator*(double s) const;
  Polynomial operator-() const;

  // True in-place compound forms: no temporary polynomial is built.  The
  // element order matches the allocating operators exactly (the in-place
  // product accumulates out[k] with i ascending, the same association order
  // as the i-then-j convolution), so the results are bit-identical — except
  // for signed zeros: `+` and `-` start each coefficient from +0.0, so
  // {-0.0, 1} + {-0.0, 2} has c0 = +0.0 while += leaves -0.0 (likewise -
  // and -= with a +0.0 subtrahend).  The results still compare ==.
  Polynomial& operator+=(const Polynomial& o);
  Polynomial& operator-=(const Polynomial& o);
  Polynomial& operator*=(const Polynomial& o);

  // Scratch-reusing recomputations for the pooled hot paths (roots.hpp's
  // RootScratch): identical results to `a - b` / `p.derivative()`, but the
  // coefficient storage is reused in place.  Neither argument may alias
  // *this.
  void assign_difference(const Polynomial& a, const Polynomial& b);
  void assign_derivative(const Polynomial& p);

  // Exact structural equality of trimmed coefficient vectors.
  bool operator==(const Polynomial& o) const { return coeffs_ == o.coeffs_; }
  bool operator!=(const Polynomial& o) const { return !(*this == o); }

  // Sign of the polynomial as t -> +infinity: -1, 0 (identically zero), +1.
  // This is the Lemma 5.1 primitive: a steady-state comparison of two
  // polynomials is the sign at infinity of their difference, computable in
  // O(1) time from the leading coefficient.
  int sign_at_infinity() const {
    if (coeffs_.empty()) return 0;
    return coeffs_.back() > 0 ? 1 : -1;
  }

  // Cauchy bound: all real roots lie in [-B, B].  Returns 0 for constants.
  double root_bound() const {
    if (coeffs_.size() <= 1) return 0.0;
    double lead = std::fabs(coeffs_.back());
    double maxq = 0.0;
    for (std::size_t i = 0; i + 1 < coeffs_.size(); ++i) {
      maxq = std::max(maxq, std::fabs(coeffs_[i]) / lead);
    }
    return 1.0 + maxq;
  }

  // Human-readable form, e.g. "3 - t + 2 t^2".
  std::string to_string() const;

  // How many of the ascending coefficients c[0..n) the constructor keeps:
  // trailing terms at most 1e-12 of the largest magnitude are dropped, and
  // an all-zero list keeps none (the zero polynomial).
  static std::size_t trimmed_size(const double* c, std::size_t n);

 private:
  void trim();

  std::vector<double> coeffs_;  // ascending powers, trailing zeros trimmed
};

inline Polynomial operator*(double s, const Polynomial& p) { return p * s; }

// Steady-state comparison (Lemma 5.1): the sign of f - g as t -> infinity.
// Returns -1 if f < g eventually, 0 if f == g identically, +1 if f > g.
int compare_at_infinity(const Polynomial& f, const Polynomial& g);

}  // namespace dyncg
