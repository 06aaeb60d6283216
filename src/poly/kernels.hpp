#pragma once

#include <cstddef>
#include <vector>

#include "poly/polynomial.hpp"

// Numeric kernels for the bounded-degree polynomial primitive (Section 6,
// property 4: one evaluation is O(1) local work per PE).  Every loop that
// evaluates, differences, or differentiates polynomials in bulk funnels
// through these entry points; each is one scalar loop inlined at the call
// site, because the envelope calls them millions of times with 2-6 elements
// (one batch per overlay cell or root-search knot set).
//
// Exactness contract (docs/PERFORMANCE.md#numeric-kernels): each kernel
// performs the operation sequence of the kernel-free Polynomial code it
// stands in for (operator(), operator-, derivative()) — same association
// order, no FMA contraction (the build sets no -march, so the compiler has
// no fused multiply-add to contract into) — so envelopes, ledgers, and
// cache keys are bit-identical to that code.
namespace dyncg {
namespace kernels {

// out[i] = c[0] + c[1] ts[i] + ... + c[nc-1] ts[i]^(nc-1), Horner order —
// one polynomial at many times (root-search knots).  nc == 0 writes +0.0,
// matching Polynomial::operator().
inline void horner_many(const double* coeffs, std::size_t nc,
                        const double* ts, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t j = nc; j-- > 0;) v = v * ts[i] + coeffs[j];
    out[i] = v;
  }
}

// Many polynomials at one time over a zero-padded column-major slab:
// coefficient j of member m lives at coeffs[j * stride + m], rows is the
// common (padded) coefficient count.  Writes out[0..count).  Zero padding
// above a member's true degree is bit-exact under Horner: the padded rows
// evaluate to +/-0 and the first real coefficient row restores the scalar
// recurrence exactly.
inline void horner_slab(const double* coeffs, std::size_t stride,
                        std::size_t rows, std::size_t count, double t,
                        double* out) {
  for (std::size_t m = 0; m < count; ++m) {
    double v = 0.0;
    for (std::size_t j = rows; j-- > 0;) v = v * t + coeffs[j * stride + m];
    out[m] = v;
  }
}

// Difference coefficients with zero padding to max(na, nb):
// out[i] = (0.0 + pad(a, i)) - pad(b, i) — the exact operation order of the
// historical assign_difference loop.  out must not alias a or b.
inline void diff_coeffs(const double* a, std::size_t na, const double* b,
                        std::size_t nb, double* out) {
  const std::size_t n = na > nb ? na : nb;
  for (std::size_t i = 0; i < n; ++i) {
    const double av = i < na ? a[i] : 0.0;
    const double bv = i < nb ? b[i] : 0.0;
    out[i] = (0.0 + av) - bv;
  }
}

// Derivative coefficients: out[i-1] = c[i] * i for i in [1, n).  out must
// not alias c.
inline void derivative_coeffs(const double* c, std::size_t n, double* out) {
  for (std::size_t i = 1; i < n; ++i) {
    out[i - 1] = c[i] * static_cast<double>(i);
  }
}

// In-place elementwise accumulate: x[i] += y[i] / x[i] -= y[i].  x == y is
// allowed (doubling / zeroing).
inline void add_coeffs(double* x, const double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] += y[i];
}

inline void sub_coeffs(double* x, const double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] -= y[i];
}

// --- Coefficient slab -----------------------------------------------------

// Zero-padded column-major coefficient storage for a polynomial family: the
// structure-of-arrays layout horner_slab() consumes.  Built once per
// PolyFamily; evaluating all members at one t is a single slab sweep.
class CoeffSlab {
 public:
  CoeffSlab() = default;
  explicit CoeffSlab(const std::vector<Polynomial>& members);

  std::size_t count() const { return count_; }
  std::size_t rows() const { return rows_; }
  const double* data() const { return coeffs_.data(); }

  // out[m] = members[m](t) for every member, bit-identical to evaluating
  // each member's Polynomial::operator() in turn.
  void values_at(double t, double* out) const {
    horner_slab(coeffs_.data(), count_, rows_, count_, t, out);
  }

 private:
  std::vector<double> coeffs_;  // rows_ x count_, column-major, zero-padded
  std::size_t count_ = 0;
  std::size_t rows_ = 0;
};

}  // namespace kernels
}  // namespace dyncg
