#pragma once

#include <vector>

#include "pieces/interval.hpp"
#include "poly/polynomial.hpp"

// Functions with jump discontinuities (Lemma 3.3 / Figure 5).
//
// Lemma 3.3 bounds the envelope of functions that are continuous except for
// at most p_j jump discontinuities and q_j transitions, with p_j + q_j <= k:
// at most lambda(n, s + 2k) pieces.  The AngleFamily exercises transitions;
// this family exercises *jumps*: each motion is two polynomials glued at a
// knot c, left branch on [0, c), right branch on [c, inf), generally with
// f(c-) != f(c+).  Models regime switches (a tariff change, a stage
// separation, a controller handoff).
//
// A jump reorders functions without an equality crossing, so an envelope
// cell must never span one.  The family therefore exposes each *branch* as
// its own member (2n members for n motions, member 2j = before-branch of
// motion j, member 2j+1 = after-branch), each partial on its window: every
// member is continuous, crossings are plain polynomial roots, and the
// generic envelope machinery applies unchanged.  `owner()` maps a branch id
// back to its motion.
namespace dyncg {

struct JumpMotion {
  Polynomial before;
  Polynomial after;
  double knot;  // the jump time (one jump: p_j = 1)
};

class JumpFamily {
 public:
  JumpFamily() = default;
  explicit JumpFamily(std::vector<JumpMotion> motions)
      : motions_(std::move(motions)) {}

  // Family size counts branches.
  std::size_t size() const { return 2 * motions_.size(); }
  std::size_t motions() const { return motions_.size(); }
  const JumpMotion& motion(std::size_t j) const { return motions_[j]; }

  // Branch id -> owning motion index.
  std::size_t owner(int id) const { return static_cast<std::size_t>(id) / 2; }

  // The value of the owning motion at t (branch polynomials agree with this
  // on their windows, which is all the envelope machinery evaluates).
  double value(int id, double t) const;
  bool identical(int a, int b) const;
  void crossings_into(int a, int b, const Interval& iv,
                      std::vector<double>& out) const;
  std::vector<Interval> defined_intervals(int id) const;

 private:
  const Polynomial& branch(int id) const {
    const JumpMotion& m = motions_[static_cast<std::size_t>(id) / 2];
    return (id % 2 == 0) ? m.before : m.after;
  }

  std::vector<JumpMotion> motions_;
};

}  // namespace dyncg
