#include "pieces/jump_family.hpp"

#include "pieces/piecewise.hpp"

namespace dyncg {

double JumpFamily::value(int id, double t) const {
  return branch(id)(t);
}

bool JumpFamily::identical(int a, int b) const {
  return branch(a) == branch(b);
}

void JumpFamily::crossings_into(int a, int b, const Interval& iv,
                                std::vector<double>& out) const {
  polynomial_crossings_into(branch(a), branch(b), iv, out);
}

std::vector<Interval> JumpFamily::defined_intervals(int id) const {
  const JumpMotion& m = motions_[static_cast<std::size_t>(id) / 2];
  bool is_before = id % 2 == 0;
  if (m.knot <= 0.0) {
    if (is_before) return {};  // the before-branch never applies
    return {Interval{0.0, kInfinity}};
  }
  if (is_before) return {Interval{0.0, m.knot}};
  return {Interval{m.knot, kInfinity}};
}

}  // namespace dyncg
