#pragma once

#include <vector>

#include "pieces/piecewise.hpp"

// Serial construction of the minimum function h(t) = min{f_0, ..., f_{n-1}}
// (Equation (1)).  This is the divide-and-conquer scheme of [Atallah 1985]
// that Theorem 3.2 parallelizes: split the family in half, build both
// sub-envelopes recursively, and combine them with the pairwise algorithm of
// Lemma 3.1.  It serves as (a) the correctness oracle for the machine
// implementations and (b) the serial baseline in the Section 6 comparison
// benches.
namespace dyncg {

// Lower envelope of the whole family.  Pass take_min = false for the upper
// envelope (maximum function).
//
// The halving recursion is run as an explicit post-order walk over ranges
// of member ids — the merge tree (and therefore the output, bit for bit) is
// the classic divide-and-conquer of [Atallah 1985], but no per-level
// id-vector copies are made and every intermediate envelope's piece buffer
// is recycled through the calling thread's PiecePool, so a steady-state
// envelope build allocates only for high-water-mark growth.
template <class Family>
PiecewiseFn envelope_serial(const Family& fam, bool take_min = true) {
  if (fam.size() == 0) return PiecewiseFn{};
  PiecePool& pool = thread_piece_pool();
  // Work stack of [lo, hi) ranges; `merge` frames pop the top two results.
  struct Frame {
    std::size_t lo, hi;
    bool merge;
  };
  std::vector<Frame> work;
  std::vector<PiecewiseFn> results;
  work.push_back(Frame{0, fam.size(), false});
  while (!work.empty()) {
    Frame f = work.back();
    work.pop_back();
    if (f.merge) {
      PiecewiseFn right = std::move(results.back());
      results.pop_back();
      PiecewiseFn left = std::move(results.back());
      results.pop_back();
      PiecewiseFn combined{pool.acquire_pieces()};
      combine_extremum_into(fam, left, right, take_min, pool, combined);
      pool.release_pieces(std::move(left.pieces));
      pool.release_pieces(std::move(right.pieces));
      results.push_back(std::move(combined));
      continue;
    }
    if (f.hi - f.lo == 1) {
      PiecewiseFn leaf{pool.acquire_pieces()};
      singleton_into(fam, static_cast<int>(f.lo), leaf);
      results.push_back(std::move(leaf));
      continue;
    }
    std::size_t mid = f.lo + (f.hi - f.lo) / 2;
    // Left is evaluated first (pushed last), matching the recursion order.
    work.push_back(Frame{f.lo, f.hi, true});
    work.push_back(Frame{mid, f.hi, false});
    work.push_back(Frame{f.lo, mid, false});
  }
  return std::move(results.back());
}

// Brute-force evaluation of the envelope at a time point, for tests: the
// index of the minimal (or maximal) member at t, with ties broken toward the
// smaller id.
int extremum_member_at(const PolyFamily& fam, double t, bool take_min);

}  // namespace dyncg
