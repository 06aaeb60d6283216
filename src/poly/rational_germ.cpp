#include "poly/rational_germ.hpp"

#include <algorithm>
#include <vector>

#include "poly/kernels.hpp"

namespace dyncg {
namespace {

// Stack room for the four coefficient lists of one comparison: two degree-d
// germs with degree-d denominators fit for d up to 31.
constexpr std::size_t kInlineCoeffs = 256;

std::size_t product_size(const Polynomial& a, const Polynomial& b) {
  if (a.is_zero() || b.is_zero()) return 0;
  return a.coefficients().size() + b.coefficients().size() - 1;
}

// out[0, product_size(a, b)) = a * b, each out[k] summed from +0.0 over
// a[i] b[k - i] with i ascending as Polynomial::operator* does; returns the
// size that product keeps after its trim.
std::size_t trimmed_product(const Polynomial& a, const Polynomial& b,
                            double* out) {
  const std::size_t n = product_size(a, b);
  const std::vector<double>& ca = a.coefficients();
  const std::vector<double>& cb = b.coefficients();
  std::fill(out, out + n, 0.0);
  for (std::size_t i = 0; i < ca.size(); ++i) {
    for (std::size_t j = 0; j < cb.size(); ++j) out[i + j] += ca[i] * cb[j];
  }
  return Polynomial::trimmed_size(out, n);
}

}  // namespace

int RationalGerm::difference_sign(const RationalGerm& o) const {
  const std::size_t n1 = product_size(num_, o.den_);
  const std::size_t n2 = product_size(o.num_, den_);
  const std::size_t n3 = product_size(den_, o.den_);
  const std::size_t nd = std::max(n1, n2);
  double stack[kInlineCoeffs];
  std::vector<double> spill;
  double* p1 = stack;
  if (n1 + n2 + nd + n3 > kInlineCoeffs) {
    spill.resize(n1 + n2 + nd + n3);
    p1 = spill.data();
  }
  double* p2 = p1 + n1;
  double* d = p2 + n2;
  double* p3 = d + nd;
  const std::size_t t1 = trimmed_product(num_, o.den_, p1);
  const std::size_t t2 = trimmed_product(o.num_, den_, p2);
  const std::size_t t3 = trimmed_product(den_, o.den_, p3);
  DYNCG_ASSERT(t3 > 0, "zero denominator germ");
  // Polynomial::operator- on the two trimmed products.
  kernels::diff_coeffs(p1, t1, p2, t2, d);
  const std::size_t kept = Polynomial::trimmed_size(d, std::max(t1, t2));
  if (kept == 0) return 0;
  const int num_sign = d[kept - 1] > 0 ? 1 : -1;
  return p3[t3 - 1] > 0 ? num_sign : -num_sign;
}

}  // namespace dyncg
