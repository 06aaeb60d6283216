#include "pieces/envelope_serial.hpp"

#include "support/assert.hpp"

namespace dyncg {

int extremum_member_at(const PolyFamily& fam, double t, bool take_min) {
  DYNCG_ASSERT(fam.size() > 0, "extremum over an empty family");
  // One slab sweep evaluates every member (kernels::horner_slab); the values
  // and the strict-improvement scan are bit-identical to evaluating each
  // member in turn, so ties still resolve toward the smaller id.
  thread_local std::vector<double> vals;
  vals.resize(fam.size());
  fam.values_all(t, vals.data());
  int best = 0;
  double bv = vals[0];
  for (int i = 1; i < static_cast<int>(fam.size()); ++i) {
    double v = vals[static_cast<std::size_t>(i)];
    if (take_min ? v < bv : v > bv) {
      best = i;
      bv = v;
    }
  }
  return best;
}

}  // namespace dyncg
