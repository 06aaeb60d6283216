#pragma once

#include "pieces/piecewise.hpp"
#include "pram/pram.hpp"

// Envelope construction on the CREW PRAM, and the serial baseline.
//
// [Chandran and Mount 1989] describe h(t) in O(log n) CREW PRAM time; that
// algorithm relies on intricate pipelined merging, so we substitute the
// straightforward parallel divide and conquer: log n levels, each level
// combining sibling envelopes with one parallel endpoint merge (binary
// search per element, O(log n) steps) plus O(1) local work — O(log^2 n)
// PRAM steps measured.  For the Section 6 comparison we report both the
// measured step count of this implementation and the idealized
// Chandran-Mount charge c * log n; the native mesh/hypercube algorithms
// beat the direct simulation of either (see DESIGN.md's substitution
// table).
namespace dyncg {

struct PramEnvelopeResult {
  PiecewiseFn envelope;
  std::uint64_t steps;      // measured PRAM steps of our implementation
  std::uint64_t piece_ops;  // elementary piece operations (serial "time")
};

// Parallel D&C envelope on a CREW PRAM with Theta(lambda(n,s)) processors:
// the bottom-up pairwise combines of the [Atallah 1985] divide and conquer,
// one PRAM level per round of combines.  The same run is the serial
// baseline: `piece_ops` follows its recurrence T(n) = 2T(n/2) +
// O(lambda(n,s)) by counting one op per leaf and one per piece each combine
// reads or writes.
PramEnvelopeResult pram_envelope(const PolyFamily& fam, bool take_min = true);

// Idealized [Chandran and Mount 1989] step count: kChandranMountConstant *
// ceil(log2 n).
inline constexpr std::uint64_t kChandranMountConstant = 10;
std::uint64_t chandran_mount_steps(std::size_t n);

}  // namespace dyncg
