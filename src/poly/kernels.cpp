#include "poly/kernels.hpp"

#include <algorithm>

namespace dyncg {
namespace kernels {

CoeffSlab::CoeffSlab(const std::vector<Polynomial>& members) {
  count_ = members.size();
  rows_ = 0;
  for (const Polynomial& p : members) {
    rows_ = std::max(rows_, p.coefficients().size());
  }
  coeffs_.assign(rows_ * count_, 0.0);
  for (std::size_t m = 0; m < count_; ++m) {
    const std::vector<double>& c = members[m].coefficients();
    for (std::size_t j = 0; j < c.size(); ++j) {
      coeffs_[j * count_ + m] = c[j];
    }
  }
}

}  // namespace kernels
}  // namespace dyncg
