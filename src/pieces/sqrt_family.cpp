#include "pieces/sqrt_family.hpp"

#include <algorithm>
#include <cmath>

namespace dyncg {

double SqrtMotion::operator()(double t) const {
  return a + b * std::sqrt(t) + c * t;
}

double SqrtFamily::value(int id, double t) const {
  return members_[static_cast<std::size_t>(id)](t);
}

bool SqrtFamily::identical(int a, int b) const {
  const SqrtMotion& x = members_[static_cast<std::size_t>(a)];
  const SqrtMotion& y = members_[static_cast<std::size_t>(b)];
  return x.a == y.a && x.b == y.b && x.c == y.c;
}

void SqrtFamily::crossings_into(int a, int b, const Interval& iv,
                                std::vector<double>& out) const {
  const SqrtMotion& f = members_[static_cast<std::size_t>(a)];
  const SqrtMotion& g = members_[static_cast<std::size_t>(b)];
  // f - g = da + db x + dc x^2 with x = sqrt(t) >= 0.
  double da = f.a - g.a, db = f.b - g.b, dc = f.c - g.c;
  double xs[2];
  std::size_t nx = 0;
  constexpr double kTiny = 1e-14;
  if (std::fabs(dc) < kTiny) {
    if (std::fabs(db) >= kTiny) xs[nx++] = -da / db;
  } else {
    double disc = db * db - 4 * dc * da;
    if (disc >= 0) {
      double sq = std::sqrt(disc);
      double q = -0.5 * (db + (db >= 0 ? sq : -sq));
      xs[nx++] = q / dc;
      if (q != 0.0) xs[nx++] = da / q;
    }
  }
  out.clear();
  for (std::size_t i = 0; i < nx; ++i) {
    if (xs[i] < 0) continue;  // sqrt(t) is nonnegative
    double t = xs[i] * xs[i];
    if (t > iv.lo && t < iv.hi) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace dyncg
