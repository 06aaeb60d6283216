#pragma once

#include "poly/polynomial.hpp"
#include "support/assert.hpp"
#include "support/status.hpp"

// The ordered field of rational-function germs at t = +infinity.
//
// AsymptoticPoly (poly/asymptotic.hpp) is the ordered *ring* Lemma 5.1
// needs; some machine algorithms additionally need division — notably the
// dual-envelope convex hull, whose envelope breakpoints are slopes
// (y_p - y_q) / (x_p - x_q) of germ coordinates.  Quotients of polynomials
// ordered by their eventual sign form a field: compare p1/q1 with p2/q2 by
// the sign at infinity of p1 q2 - p2 q1 (denominators normalized positive).
namespace dyncg {

class RationalGerm {
 public:
  RationalGerm() : num_(), den_(Polynomial::constant(1.0)) {}
  RationalGerm(double c)  // NOLINT: field literal
      : num_(Polynomial::constant(c)), den_(Polynomial::constant(1.0)) {}
  explicit RationalGerm(Polynomial p)
      : num_(std::move(p)), den_(Polynomial::constant(1.0)) {}
  RationalGerm(Polynomial num, Polynomial den)
      : num_(std::move(num)), den_(std::move(den)) {
    DYNCG_ASSERT(!den_.is_zero(), "zero denominator germ");
    normalize();
  }

  const Polynomial& num() const { return num_; }
  const Polynomial& den() const { return den_; }

  RationalGerm operator+(const RationalGerm& o) const {
    return RationalGerm(num_ * o.den_ + o.num_ * den_, den_ * o.den_);
  }
  RationalGerm operator-(const RationalGerm& o) const {
    return RationalGerm(num_ * o.den_ - o.num_ * den_, den_ * o.den_);
  }
  RationalGerm operator*(const RationalGerm& o) const {
    return RationalGerm(num_ * o.num_, den_ * o.den_);
  }
  RationalGerm operator/(const RationalGerm& o) const {
    DYNCG_ASSERT(!o.num_.is_zero(), "division by the zero germ");
    return RationalGerm(num_ * o.den_, den_ * o.num_);
  }

  // Recoverable-error variants: a zero divisor / zero denominator is an
  // invalid-argument Status instead of an abort.
  StatusOr<RationalGerm> try_divide(const RationalGerm& o) const {
    if (o.num_.is_zero()) {
      return Status::invalid_argument("division by the zero germ");
    }
    return RationalGerm(num_ * o.den_, den_ * o.num_);
  }
  static StatusOr<RationalGerm> try_create(Polynomial num, Polynomial den) {
    if (den.is_zero()) {
      return Status::invalid_argument("zero denominator germ");
    }
    return RationalGerm(std::move(num), std::move(den));
  }
  RationalGerm operator-() const { return RationalGerm(-num_, den_); }

  int sign() const { return num_.sign_at_infinity(); }

  // Comparisons take the sign of *this - o without building it (see
  // difference_sign).
  bool operator<(const RationalGerm& o) const { return difference_sign(o) < 0; }
  bool operator>(const RationalGerm& o) const { return o < *this; }
  bool operator<=(const RationalGerm& o) const { return !(o < *this); }
  bool operator>=(const RationalGerm& o) const { return !(*this < o); }
  bool operator==(const RationalGerm& o) const {
    return difference_sign(o) == 0;
  }
  bool operator!=(const RationalGerm& o) const { return !(*this == o); }

  // Numeric value at a (large, finite) time, for reporting.
  double value_at(double t) const { return num_(t) / den_(t); }

 private:
  // (*this - o).sign(), computed as operator- and the constructor would:
  // the same three products num*o.den, o.num*den and den*o.den, each
  // trimmed by Polynomial::trimmed_size, the trimmed difference of the first
  // two, the zero-denominator assert and the flip for a negative
  // denominator.  The coefficients live in a stack buffer, so comparing
  // germs whose products fit it allocates nothing; larger germs spill to
  // the heap.  Nothing is shared between calls or threads.
  int difference_sign(const RationalGerm& o) const;

  void normalize() {
    if (den_.sign_at_infinity() < 0) {
      num_ = -num_;
      den_ = -den_;
    }
  }

  Polynomial num_;
  Polynomial den_;
};

inline int sign_of(const RationalGerm& x) { return x.sign(); }

}  // namespace dyncg
