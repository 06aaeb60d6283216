#include "poly/polynomial.hpp"

#include <cmath>
#include <sstream>

#include "poly/kernels.hpp"
#include "support/assert.hpp"

namespace dyncg {
namespace {

// Coefficients smaller than this relative to the largest coefficient are
// treated as numerical noise when trimming the leading terms.  Keeping the
// threshold tight matters: a spurious leading coefficient changes the degree
// and therefore the sign at infinity.
constexpr double kTrimRel = 1e-12;

}  // namespace

Polynomial::Polynomial(std::vector<double> coeffs)
    : coeffs_(std::move(coeffs)) {
  trim();
}

Polynomial Polynomial::constant(double c) { return Polynomial({c}); }

Polynomial Polynomial::monomial(double a, int d) {
  DYNCG_ASSERT(d >= 0, "negative monomial degree");
  std::vector<double> c(static_cast<std::size_t>(d) + 1, 0.0);
  c.back() = a;
  return Polynomial(std::move(c));
}

Polynomial Polynomial::from_roots(const std::vector<double>& roots) {
  Polynomial p = constant(1.0);
  for (double r : roots) p *= Polynomial({-r, 1.0});
  return p;
}

std::size_t Polynomial::trimmed_size(const double* c, std::size_t n) {
  double maxmag = 0.0;
  for (std::size_t i = 0; i < n; ++i) maxmag = std::max(maxmag, std::fabs(c[i]));
  if (maxmag == 0.0) return 0;
  while (n > 0 && std::fabs(c[n - 1]) <= kTrimRel * maxmag) --n;
  return n;
}

void Polynomial::trim() {
  coeffs_.resize(trimmed_size(coeffs_.data(), coeffs_.size()));
}

Polynomial Polynomial::derivative() const {
  if (coeffs_.size() <= 1) return Polynomial();
  std::vector<double> d(coeffs_.size() - 1);
  for (std::size_t i = 1; i < coeffs_.size(); ++i) {
    d[i - 1] = coeffs_[i] * static_cast<double>(i);
  }
  return Polynomial(std::move(d));
}

Polynomial Polynomial::operator+(const Polynomial& o) const {
  std::vector<double> c(std::max(coeffs_.size(), o.coeffs_.size()), 0.0);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) c[i] += coeffs_[i];
  for (std::size_t i = 0; i < o.coeffs_.size(); ++i) c[i] += o.coeffs_[i];
  return Polynomial(std::move(c));
}

Polynomial Polynomial::operator-(const Polynomial& o) const {
  std::vector<double> c(std::max(coeffs_.size(), o.coeffs_.size()), 0.0);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) c[i] += coeffs_[i];
  for (std::size_t i = 0; i < o.coeffs_.size(); ++i) c[i] -= o.coeffs_[i];
  return Polynomial(std::move(c));
}

Polynomial Polynomial::operator*(const Polynomial& o) const {
  if (coeffs_.empty() || o.coeffs_.empty()) return Polynomial();
  std::vector<double> c(coeffs_.size() + o.coeffs_.size() - 1, 0.0);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    for (std::size_t j = 0; j < o.coeffs_.size(); ++j) {
      c[i + j] += coeffs_[i] * o.coeffs_[j];
    }
  }
  return Polynomial(std::move(c));
}

void Polynomial::assign_difference(const Polynomial& a, const Polynomial& b) {
  DYNCG_ASSERT(&a != this && &b != this, "assign_difference: aliased operand");
  coeffs_.resize(std::max(a.coeffs_.size(), b.coeffs_.size()));
  kernels::diff_coeffs(a.coeffs_.data(), a.coeffs_.size(), b.coeffs_.data(),
                       b.coeffs_.size(), coeffs_.data());
  trim();
}

void Polynomial::assign_derivative(const Polynomial& p) {
  DYNCG_ASSERT(&p != this, "assign_derivative: aliased operand");
  if (p.coeffs_.size() <= 1) {
    coeffs_.clear();
    return;
  }
  coeffs_.resize(p.coeffs_.size() - 1);
  kernels::derivative_coeffs(p.coeffs_.data(), p.coeffs_.size(),
                             coeffs_.data());
  trim();
}

Polynomial& Polynomial::operator+=(const Polynomial& o) {
  if (o.coeffs_.size() > coeffs_.size()) coeffs_.resize(o.coeffs_.size(), 0.0);
  kernels::add_coeffs(coeffs_.data(), o.coeffs_.data(), o.coeffs_.size());
  trim();
  return *this;
}

Polynomial& Polynomial::operator-=(const Polynomial& o) {
  if (o.coeffs_.size() > coeffs_.size()) coeffs_.resize(o.coeffs_.size(), 0.0);
  kernels::sub_coeffs(coeffs_.data(), o.coeffs_.data(), o.coeffs_.size());
  trim();
  return *this;
}

Polynomial& Polynomial::operator*=(const Polynomial& o) {
  if (&o == this) return *this = *this * o;  // aliasing: no in-place order
  if (coeffs_.empty() || o.coeffs_.empty()) {
    coeffs_.clear();
    return *this;
  }
  const std::size_t na = coeffs_.size();
  const std::size_t nb = o.coeffs_.size();
  coeffs_.resize(na + nb - 1, 0.0);
  // Fill out[k] for k descending: every read coeffs_[i] with i <= k is still
  // an original coefficient of *this, and accumulating i ascending keeps the
  // association order of the allocating convolution, so the product is
  // bit-identical to operator*.
  for (std::size_t k = na + nb - 1; k-- > 0;) {
    double acc = 0.0;
    const std::size_t i_lo = k >= nb ? k - nb + 1 : 0;
    const std::size_t i_hi = std::min(k, na - 1);
    for (std::size_t i = i_lo; i <= i_hi; ++i) {
      acc += coeffs_[i] * o.coeffs_[k - i];
    }
    coeffs_[k] = acc;
  }
  trim();
  return *this;
}

Polynomial Polynomial::operator*(double s) const {
  std::vector<double> c = coeffs_;
  for (double& x : c) x *= s;
  return Polynomial(std::move(c));
}

Polynomial Polynomial::operator-() const { return *this * -1.0; }

std::string Polynomial::to_string() const {
  if (coeffs_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    if (coeffs_[i] == 0.0 && coeffs_.size() > 1) continue;
    if (!first) os << (coeffs_[i] >= 0 ? " + " : " - ");
    double mag = first ? coeffs_[i] : std::fabs(coeffs_[i]);
    if (i == 0) {
      os << mag;
    } else {
      os << mag << " t";
      if (i > 1) os << "^" << i;
    }
    first = false;
  }
  return os.str();
}

int compare_at_infinity(const Polynomial& f, const Polynomial& g) {
  return (f - g).sign_at_infinity();
}

}  // namespace dyncg
