#pragma once

#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <vector>

#include "pieces/interval.hpp"

// Structure-of-arrays piece storage (docs/PERFORMANCE.md#numeric-kernels).
//
// A piece of an envelope is a (member id, interval) pair (Section 2.5).  The
// envelope hot paths — overlay sweeps, pairwise combines, the per-level
// strings of the parallel envelope — iterate breakpoints and ids far more
// often than they touch whole pieces, so the slab stores the three fields as
// contiguous parallel arrays (lo / hi / id) instead of an array of structs.
// Readers keep the familiar value view: operator[] and the iterator yield
// `Piece` values, so `for (const Piece& p : fn.pieces)` binds each to a
// lifetime-extended temporary and existing call sites compile unchanged.
// Mutation happens through the slab API (push_back / set_back_hi / clear),
// which is what the coalescing emitters need.
namespace dyncg {

struct Piece {
  Interval iv;
  int id = -1;  // index of the family member realizing the envelope on iv
};

// Borrowed raw view of a slab: the contiguous breakpoint/id arrays the
// sweeps consume directly.
struct PieceSlabView {
  const double* lo = nullptr;
  const double* hi = nullptr;
  const int* id = nullptr;
  std::size_t count = 0;
};

class PieceSlab {
 public:
  using value_type = Piece;

  PieceSlab() = default;
  PieceSlab(std::initializer_list<Piece> ps) {
    reserve(ps.size());
    for (const Piece& p : ps) push_back(p);
  }

  std::size_t size() const { return lo_.size(); }
  bool empty() const { return lo_.empty(); }

  void clear() {
    lo_.clear();
    hi_.clear();
    id_.clear();
  }
  void reserve(std::size_t n) {
    lo_.reserve(n);
    hi_.reserve(n);
    id_.reserve(n);
  }

  void push_back(const Piece& p) {
    lo_.push_back(p.iv.lo);
    hi_.push_back(p.iv.hi);
    id_.push_back(p.id);
  }
  void emplace_back(double lo, double hi, int id) {
    lo_.push_back(lo);
    hi_.push_back(hi);
    id_.push_back(id);
  }

  Piece operator[](std::size_t i) const {
    return Piece{Interval{lo_[i], hi_[i]}, id_[i]};
  }
  Piece back() const { return (*this)[size() - 1]; }

  // Field accessors for the coalescing emitters (a value-returning back()
  // cannot be assigned through).
  double back_hi() const { return hi_.back(); }
  int back_id() const { return id_.back(); }
  void set_back_hi(double hi) { hi_.back() = hi; }

  PieceSlabView view() const {
    return PieceSlabView{lo_.data(), hi_.data(), id_.data(), lo_.size()};
  }

  void swap(PieceSlab& o) {
    lo_.swap(o.lo_);
    hi_.swap(o.hi_);
    id_.swap(o.id_);
  }

  bool operator==(const PieceSlab& o) const = default;

  // Forward iterator yielding Piece values (reference == value_type, like
  // std::vector<bool>); read-only by construction.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Piece;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Piece;

    const_iterator() = default;
    const_iterator(const PieceSlab* s, std::size_t i) : s_(s), i_(i) {}

    Piece operator*() const { return (*s_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator t = *this;
      ++i_;
      return t;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const PieceSlab* s_ = nullptr;
    std::size_t i_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

 private:
  std::vector<double> lo_;  // piece interval left endpoints
  std::vector<double> hi_;  // piece interval right endpoints
  std::vector<int> id_;     // realizing member ids
};

}  // namespace dyncg
