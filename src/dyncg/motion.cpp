#include "dyncg/motion.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace dyncg {

Trajectory Trajectory::fixed(const std::vector<double>& position) {
  std::vector<Polynomial> coords;
  coords.reserve(position.size());
  for (double x : position) coords.push_back(Polynomial::constant(x));
  return Trajectory(std::move(coords));
}

int Trajectory::motion_degree() const {
  int k = 0;
  for (const Polynomial& c : coords_) k = std::max(k, c.degree());
  return k;
}

std::vector<double> Trajectory::position(double t) const {
  std::vector<double> p;
  p.reserve(coords_.size());
  for (const Polynomial& c : coords_) p.push_back(c(t));
  return p;
}

Polynomial Trajectory::distance_squared(const Trajectory& other) const {
  DYNCG_ASSERT(dimension() == other.dimension(),
               "distance between different dimensions");
  // The family-construction setup loop runs once per pair in the register
  // fill of every proximity/all-pairs/collision driver; the kernel-backed
  // assign_difference and the in-place += avoid three temporaries per
  // coordinate while keeping the exact operation order (bit-identical sum).
  Polynomial sum, diff;
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    diff.assign_difference(coords_[i], other.coords_[i]);
    sum += diff * diff;
  }
  return sum;
}

Trajectory Trajectory::velocity() const {
  std::vector<Polynomial> d;
  d.reserve(coords_.size());
  for (const Polynomial& c : coords_) d.push_back(c.derivative());
  return Trajectory(std::move(d));
}

Polynomial Trajectory::speed_squared() const {
  Polynomial sum, d;
  for (const Polynomial& c : coords_) {
    d.assign_derivative(c);
    sum += d * d;
  }
  return sum;
}

MotionSystem::MotionSystem(std::size_t dimension,
                           std::vector<Trajectory> points)
    : dim_(dimension), points_(std::move(points)) {
  for (const Trajectory& p : points_) {
    DYNCG_ASSERT(p.dimension() == dim_, "trajectory dimension mismatch");
  }
}

StatusOr<MotionSystem> MotionSystem::try_create(
    std::size_t dimension, std::vector<Trajectory> points) {
  if (dimension < 1) {
    return Status::invalid_argument("motion system dimension must be >= 1");
  }
  if (points.empty()) {
    return Status::invalid_argument("motion system has no points");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].dimension() != dimension) {
      return Status::invalid_argument(
          "trajectory " + std::to_string(i) + " has dimension " +
          std::to_string(points[i].dimension()) + ", expected " +
          std::to_string(dimension));
    }
  }
  return MotionSystem(dimension, std::move(points));
}

int MotionSystem::motion_degree() const {
  int k = 0;
  for (const Trajectory& p : points_) k = std::max(k, p.motion_degree());
  return k;
}

std::vector<std::vector<double>> MotionSystem::positions(double t) const {
  std::vector<std::vector<double>> out;
  out.reserve(points_.size());
  for (const Trajectory& p : points_) out.push_back(p.position(t));
  return out;
}

bool MotionSystem::initial_positions_distinct() const {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    for (std::size_t j = i + 1; j < points_.size(); ++j) {
      double d = points_[i].distance_squared(points_[j])(0.0);
      if (d <= 1e-18) return false;
    }
  }
  return true;
}

MotionSystem random_motion_system(Rng& rng, std::size_t n, std::size_t dim,
                                  int k, double coeff) {
  DYNCG_ASSERT(k >= 0, "negative motion degree");
  std::vector<Trajectory> pts;
  pts.reserve(n);
  // A start within 1e-3 of an accepted one (d^2 < 1e-6) is drawn again.
  // Accepted starts are bucketed by their first coordinate, which lies in
  // [-4 coeff, 4 coeff], in buckets at least 2e-3 wide, so only the same
  // and the adjacent buckets can hold a clash.
  const double lo = -4 * coeff;
  const double width =
      std::max(2e-3, 8 * coeff / static_cast<double>(std::max<std::size_t>(n, 1)));
  const std::size_t buckets = static_cast<std::size_t>(8 * coeff / width) + 1;
  auto bucket_of = [&](const std::vector<double>& start) {
    const double x = dim > 0 ? (start[0] - lo) / width : 0.0;
    return std::min(static_cast<std::size_t>(std::max(x, 0.0)), buckets - 1);
  };
  std::vector<std::size_t> head(buckets, n), next;  // n ends a chain
  std::vector<std::vector<double>> starts;
  next.reserve(n);
  starts.reserve(n);
  while (pts.size() < n) {
    std::vector<Polynomial> coords;
    std::vector<double> start;
    for (std::size_t d = 0; d < dim; ++d) {
      std::vector<double> c(static_cast<std::size_t>(k) + 1);
      for (double& x : c) x = rng.uniform(-coeff, coeff);
      // Spread the constant terms wider so initial positions separate.
      c[0] = rng.uniform(-4 * coeff, 4 * coeff);
      start.push_back(c[0]);
      coords.push_back(Polynomial(c));
    }
    const std::size_t b = bucket_of(start);
    bool clash = false;
    for (std::size_t nb = b > 0 ? b - 1 : 0; nb <= b + 1 && nb < buckets; ++nb) {
      for (std::size_t j = head[nb]; j != n; j = next[j]) {
        const std::vector<double>& s = starts[j];
        double d2 = 0;
        for (std::size_t i = 0; i < dim; ++i) d2 += (s[i] - start[i]) * (s[i] - start[i]);
        if (d2 < 1e-6) clash = true;
      }
    }
    if (clash) continue;
    next.push_back(head[b]);
    head[b] = starts.size();
    starts.push_back(std::move(start));
    pts.push_back(Trajectory(std::move(coords)));
  }
  return MotionSystem(dim, std::move(pts));
}

MotionSystem diverging_motion_system(Rng& rng, std::size_t n, int k) {
  DYNCG_ASSERT(k >= 1, "diverging system needs k >= 1");
  std::vector<Trajectory> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Distinct outward directions with jittered speeds; lower-order terms
    // random so the transient is nontrivial.
    double angle = 2 * M_PI * (static_cast<double>(i) + rng.uniform(0.05, 0.4)) /
                   static_cast<double>(n);
    double speed = rng.uniform(1.0, 3.0);
    std::vector<double> cx(static_cast<std::size_t>(k) + 1);
    std::vector<double> cy(static_cast<std::size_t>(k) + 1);
    for (int d = 0; d <= k; ++d) {
      cx[static_cast<std::size_t>(d)] = rng.uniform(-1.0, 1.0);
      cy[static_cast<std::size_t>(d)] = rng.uniform(-1.0, 1.0);
    }
    cx[static_cast<std::size_t>(k)] = speed * std::cos(angle);
    cy[static_cast<std::size_t>(k)] = speed * std::sin(angle);
    pts.push_back(Trajectory({Polynomial(cx), Polynomial(cy)}));
  }
  return MotionSystem(2, std::move(pts));
}

}  // namespace dyncg
