#include "envelope/parallel_envelope.hpp"

namespace dyncg {
namespace envelope_detail {

void charge_combine_level(Machine& m, std::size_t w, int s_bound) {
  DYNCG_ASSERT(w >= 2 && (w & (w - 1)) == 0, "level width must be 2^k");
  const int levels = floor_log2(w);
  // Step 2: bitonic merge of the doubled record file (two records per
  // piece).  Reversal of the upper half + one merge pass; both are ladders
  // over strides inside the string.
  for (int k = 0; k < levels; ++k) m.charge_exchange(static_cast<unsigned>(k));
  for (int k = 0; k < levels; ++k) m.charge_exchange(static_cast<unsigned>(k));
  m.charge_local(2 * levels);
  // Step 3: segmented scan of active pieces + unit shift for cell ends.
  for (int k = 0; k < levels; ++k) m.charge_exchange(static_cast<unsigned>(k));
  m.charge_shift(1);
  m.charge_local(levels);
  // Step 4 + 5: root finding and subpiece ordering are PE-local, O(s).
  m.charge_local(static_cast<std::uint64_t>(s_bound) + 2);
  // Step 6: predecessor scan, segmented suffix scan, and the rebalancing
  // prefix + monotone concentration route.
  for (int pass = 0; pass < 3; ++pass) {
    for (int k = 0; k < levels; ++k) m.charge_exchange(static_cast<unsigned>(k));
  }
  for (int k = 0; k < levels; ++k) m.charge_exchange(static_cast<unsigned>(k));
  m.charge_local(static_cast<std::uint64_t>(levels));
}

}  // namespace envelope_detail

Status validate_envelope_input(const Machine& m, std::size_t family_size) {
  if (family_size < 1) {
    return Status::invalid_argument("envelope of an empty family");
  }
  std::size_t need = ceil_pow2(family_size);
  if (m.size() < need) {
    return Status::failed_precondition(
        "machine smaller than the function count: " +
        std::to_string(m.size()) + " PEs for " +
        std::to_string(family_size) + " functions (need >= " +
        std::to_string(need) + ")");
  }
  return Status::ok();
}

Machine envelope_machine_mesh(std::size_t n, int s_bound, MeshOrder order) {
  std::size_t n2 = ceil_pow2(n);
  return Machine(make_mesh_for(lambda_upper_bound(n2, s_bound), order));
}

Machine envelope_machine_hypercube(std::size_t n, int s_bound,
                                   CubeOrder order) {
  std::size_t n2 = ceil_pow2(n);
  return Machine(make_hypercube_for(lambda_upper_bound(n2, s_bound), order));
}

}  // namespace dyncg
