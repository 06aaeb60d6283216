#pragma once

#include <vector>

#include "machine/machine.hpp"
#include "pieces/piecewise.hpp"
#include "support/ackermann.hpp"
#include "support/assert.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

// Parallel construction of the minimum (or maximum) function — the paper's
// central algorithm (Section 3).
//
// Theorem 3.2: given n functions with s-motion stored one per PE on a mesh
// of lambda_M(n,s) PEs or a hypercube of lambda_H(n,s) PEs, the minimum
// function h(t) can be built in Theta(lambda^(1/2)(n,s)) mesh time or
// Theta(log^2 n) hypercube time, pieces ordered one per PE.
//
// The machine runs the recursion bottom-up.  At level ell, each string of
// w = P * 2^ell / 2^ceil(log n) PEs holds the envelope of its 2^ell
// functions, pieces left-justified one per PE (Lemma 2.4 guarantees they
// fit).  A level performs the six steps of Lemma 3.1 inside every string in
// parallel:
//   1. locally expand each piece into Left/Right endpoint records,
//   2. merge the two halves' records by endpoint (bitonic merge, ties in
//      favor of Right records),
//   3. a segmented scan gives every record the pieces of f and of g active
//      on its elementary cell ("other-piece" fields), plus a unit shift for
//      the cell's right boundary,
//   4. each PE solves f|I = g|I on its O(1) cells (at most s roots each)
//      and picks the minimum on each of the <= s+1 closed subintervals by an
//      interior evaluation,
//   5. locally orders its O(1) subpieces,
//   6. coalesces equal-function runs (a scan for the predecessor piece, a
//      segmented suffix scan for the run end) and rebalances the result one
//      piece per PE (prefix + monotone concentration route).
//
// Cost per level on a width-w string: one merge + O(1) scans + O(1) local
// work = Theta(w^(1/2)) mesh rounds / Theta(log w) hypercube rounds, and the
// level sum telescopes to Theta(P^(1/2)) / Theta(log^2 P).  The ledger is
// charged exactly that pattern; the per-PE storage bounds the distributed
// algorithm relies on (at most one piece per PE entering a level, at most
// 2(s+1) subpieces inside step 4) are asserted on every level.
namespace dyncg {

struct EnvelopeRunStats {
  std::size_t levels = 0;
  std::size_t max_pieces = 0;  // max piece count over all strings and levels
};

namespace envelope_detail {

// Charge one Lemma 3.1 pass over strings of width w (PE ranks).
void charge_combine_level(Machine& m, std::size_t w, int s_bound);

}  // namespace envelope_detail

// Lower (take_min) or upper envelope of the whole family on machine `m`.
// `s_bound` is the maximum number of pairwise crossings (the s of
// lambda(n,s)); for partial families per Theorem 3.4 pass the effective
// order s + 2k.  The machine must have at least ceil_pow2(n) PEs and at
// least lambda(n, s) PEs for the one-piece-per-PE invariant to hold (use
// envelope_machine_mesh / envelope_machine_hypercube).
//
// `adaptive` reproduces the Section 3 observation that "min{f_0, ...,
// f_{n-1}} may have less than lambda(n,k) pieces, in which case it may be
// possible to use a submesh and obtain asymptotically faster running
// times (Theta(n^(1/2)) in the best case)": after every level the strings
// compact (one concentration ladder) into the smallest power-of-two width
// that holds the worst string's pieces with one-per-PE slack, and the next
// combine is charged at that width.  "The same is not true of the
// hypercube" — log of the width is Theta(log n) regardless, which the
// ablation bench confirms.
template <class Family>
PiecewiseFn parallel_envelope(Machine& m, const Family& fam, int s_bound,
                              bool take_min = true,
                              EnvelopeRunStats* stats = nullptr,
                              bool adaptive = false) {
  TRACE_SPAN_COST("envelope.parallel", m.ledger());
  const std::size_t P = m.size();
  const std::size_t n = fam.size();
  DYNCG_ASSERT(n >= 1, "envelope of an empty family");
  const std::size_t n2 = ceil_pow2(n);
  DYNCG_ASSERT(P >= n2, "machine smaller than the function count");
  const std::size_t base_w = P / n2;

  // Distributed state: per-string envelopes, pieces left-justified one per
  // PE.  strings[b] is the envelope owned by the b-th string of the current
  // level.
  std::vector<PiecewiseFn> strings(n2);
  m.charge_local(1);  // step 0: every PE forms its singleton piece list
  // Singletons draw their piece buffers from the worker's pool, closing the
  // acquire/release cycle: every level's combines release two buffers per
  // one acquired, and this step takes the surplus back, so the pool's
  // footprint stays at the high-water mark instead of growing by n buffers
  // per envelope build.
  parallel_for(n, [&](std::size_t b) {
    PiecewiseFn s{thread_piece_pool().acquire_pieces()};
    singleton_into(fam, static_cast<int>(b), s);
    DYNCG_ASSERT(s.piece_count() <= base_w,
                 "singleton pieces exceed the base string width");
    strings[b] = std::move(s);
  });

  std::size_t width = base_w;
  std::size_t count = n2;
  // Adaptive mode: the effective string width the data currently occupies.
  std::size_t eff_width = base_w;
  EnvelopeRunStats st;
  // Output slots for each level, allocated once: the first level sizes the
  // buffer and every later level shrinks it in place.
  std::vector<PiecewiseFn> next;
  while (count > 1) {
    TRACE_SPAN_COST("envelope.level", m.ledger());
    width *= 2;
    count /= 2;
    ++st.levels;
    std::size_t level_width = width;
    if (adaptive) {
      // Inputs occupy pairs of eff_width strings; combine runs there.
      level_width = std::min(width, 2 * eff_width);
    }
    envelope_detail::charge_combine_level(m, level_width, s_bound);
    next.resize(count);
    // Strings are independent, so the per-string combines run across host
    // threads; the max-reduction merges per-worker results in index order
    // (charge_combine_level above already billed the whole level).
    std::size_t level_max = parallel_reduce<std::size_t>(
        count, std::size_t{1},
        [&](std::size_t& acc, std::size_t b) {
          PiecewiseFn& left = strings[2 * b];
          PiecewiseFn& right = strings[2 * b + 1];
          // Per-thread scratch pool: each combine reuses the worker's
          // buffers, and the consumed input strings donate their piece
          // buffers back for the next level (docs/PERFORMANCE.md).
          PiecePool& pool = thread_piece_pool();
          PiecewiseFn combined{pool.acquire_pieces()};
          combine_extremum_into(fam, left, right, take_min, pool, combined);
          pool.release_pieces(std::move(left.pieces));
          pool.release_pieces(std::move(right.pieces));
          // One-piece-per-PE invariant (Lemma 2.4 / machine sizing).
          DYNCG_ASSERT(combined.piece_count() <= width,
                       "string overflow: machine sized below lambda(n,s)");
          acc = std::max(acc, combined.piece_count());
          next[b] = std::move(combined);
        },
        [](std::size_t& into, std::size_t from) {
          into = std::max(into, from);
        });
    st.max_pieces = std::max(st.max_pieces, level_max);
    strings.swap(next);
    if (adaptive) {
      // Compact (or spread) every string into the smallest sufficient
      // width; one concentration ladder spanning both the old and the new
      // layout.
      eff_width = std::min(width, ceil_pow2(level_max));
      std::size_t span = std::max(level_width, eff_width);
      for (int k = 0; (std::size_t{1} << k) < span; ++k) {
        m.charge_exchange(static_cast<unsigned>(k));
      }
      m.charge_local(1);
    }
  }
  if (stats != nullptr) *stats = st;
  return std::move(strings[0]);
}

// Machines of the paper's canonical envelope sizes: lambda_M(n,s) PEs for
// the mesh, lambda_H(n,s) for the hypercube (Section 3).  The bound is
// computed for ceil_pow2(n) functions so every recursion level fits.
Machine envelope_machine_mesh(std::size_t n, int s_bound,
                              MeshOrder order = MeshOrder::kProximity);
Machine envelope_machine_hypercube(std::size_t n, int s_bound,
                                   CubeOrder order = CubeOrder::kGray);

// Input validation shared by every envelope-backed try_ entry point: the
// family must be non-empty and the machine must hold ceil_pow2(n) strings.
// (The one-piece-per-PE invariant inside the recursion stays DYNCG_ASSERT —
// violating it means the lambda bound, not the input, is wrong.)
Status validate_envelope_input(const Machine& m, std::size_t family_size);

// Recoverable-error variant of parallel_envelope: rejects bad input with a
// Status instead of aborting.  See support/status.hpp.
template <class Family>
StatusOr<PiecewiseFn> try_parallel_envelope(Machine& m, const Family& fam,
                                            int s_bound, bool take_min = true,
                                            EnvelopeRunStats* stats = nullptr,
                                            bool adaptive = false) {
  Status st = validate_envelope_input(m, fam.size());
  if (!st.is_ok()) return st;
  return parallel_envelope(m, fam, s_bound, take_min, stats, adaptive);
}

}  // namespace dyncg
