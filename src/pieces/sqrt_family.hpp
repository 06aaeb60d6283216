#pragma once

#include <vector>

#include "pieces/interval.hpp"

// A non-polynomial model of the Family concept, reproducing Section 6's
// "Further Remarks": the paper's algorithms need only that each function
//   (1) is continuous on [0, inf),
//   (2) has a Theta(1) storage description,
//   (3) evaluates in Theta(1) serial time, and
//   (4) crosses any other member at most k times, with the crossings
//       computable in Theta(1) serial time.
// Functions of the form f(t) = a + b sqrt(t) + c t satisfy all four with
// k = 2 (a crossing is a root of a quadratic in sqrt(t)), so the whole
// envelope machinery — serial, PRAM, mesh, hypercube — runs on them
// unchanged.  Physically they model diffusive drift superposed on constant
// velocity.
namespace dyncg {

struct SqrtMotion {
  double a = 0.0;  // offset
  double b = 0.0;  // diffusive coefficient (of sqrt(t))
  double c = 0.0;  // drift (of t)

  double operator()(double t) const;
};

class SqrtFamily {
 public:
  SqrtFamily() = default;
  explicit SqrtFamily(std::vector<SqrtMotion> members)
      : members_(std::move(members)) {}

  std::size_t size() const { return members_.size(); }
  const SqrtMotion& member(int id) const {
    return members_[static_cast<std::size_t>(id)];
  }

  double value(int id, double t) const;
  bool identical(int a, int b) const;
  // At most two crossings: the roots of a quadratic in sqrt(t).
  void crossings_into(int a, int b, const Interval& iv,
                      std::vector<double>& out) const;
  std::vector<Interval> defined_intervals(int) const {
    return {Interval{0.0, kInfinity}};
  }

  // The DS order of this family (pairwise crossings bound).
  static constexpr int kCrossingBound = 2;

 private:
  std::vector<SqrtMotion> members_;
};

}  // namespace dyncg
