#include "envelope/scenario_key.hpp"

#include <cstring>

namespace dyncg {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t mix_bytes(std::uint64_t h, const unsigned char* p,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  static_assert(sizeof(b) == sizeof(v));
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void append_hex(std::string& out, std::uint64_t b) {
  char buf[16];
  fingerprint_hex_into(buf, b);
  out.append(buf, sizeof buf);
}

}  // namespace

std::uint64_t fingerprint_bytes(std::uint64_t h, const void* data,
                                std::size_t size) {
  return mix_bytes(h, static_cast<const unsigned char*>(data), size);
}

std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v) {
  unsigned char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  return mix_bytes(h, bytes, sizeof(v));
}

std::uint64_t fingerprint_mix(std::uint64_t h, double v) {
  return fingerprint_mix(h, bits_of(v));
}

std::uint64_t fingerprint(const Polynomial& p, std::uint64_t h) {
  // Length first: [1, 0] and [1] must differ even though both evaluate to 1.
  h = fingerprint_mix(h, static_cast<std::uint64_t>(p.degree() + 1));
  for (int i = 0; i <= p.degree(); ++i) {
    h = fingerprint_mix(h, p.coefficient(i));
  }
  return h;
}

std::uint64_t fingerprint(const Trajectory& t, std::uint64_t h) {
  h = fingerprint_mix(h, static_cast<std::uint64_t>(t.dimension()));
  for (std::size_t c = 0; c < t.dimension(); ++c) {
    h = fingerprint(t.coordinate(c), h);
  }
  return h;
}

std::uint64_t fingerprint(const MotionSystem& system, std::uint64_t h) {
  h = fingerprint_mix(h, static_cast<std::uint64_t>(system.dimension()));
  h = fingerprint_mix(h, static_cast<std::uint64_t>(system.size()));
  for (std::size_t i = 0; i < system.size(); ++i) {
    h = fingerprint(system.point(i), h);
  }
  return h;
}

std::uint64_t fingerprint(const RationalGerm& g, std::uint64_t h) {
  h = fingerprint(g.num(), h);
  return fingerprint(g.den(), h);
}

void append_canonical(std::string& out, double v) {
  append_hex(out, bits_of(v));
}

void append_canonical(std::string& out, const Polynomial& p) {
  for (int i = 0; i <= p.degree(); ++i) {
    append_hex(out, bits_of(p.coefficient(i)));
  }
}

void append_key_dimension(std::string& out, std::size_t dimension) {
  out += 'd';
  out += std::to_string(dimension);
}

void append_key_point(std::string& out) { out += 'p'; }

void append_key_coordinate(std::string& out, const double* coeffs,
                           std::size_t count) {
  std::size_t n = count;
  for (; n >= 0x80; n >>= 7) out += static_cast<char>(0x80 | (n & 0x7f));
  out += static_cast<char>(n);
  out.append(reinterpret_cast<const char*>(coeffs), count * sizeof(double));
}

void append_scenario_key(std::string& out, const MotionSystem& system) {
  append_key_dimension(out, system.dimension());
  for (std::size_t i = 0; i < system.size(); ++i) {
    append_key_point(out);
    const Trajectory& t = system.point(i);
    for (std::size_t c = 0; c < t.dimension(); ++c) {
      const std::vector<double>& coeffs = t.coordinate(c).coefficients();
      append_key_coordinate(out, coeffs.data(), coeffs.size());
    }
  }
}

namespace {

// Walks a scenario key: the dimension, then each point's coordinates as
// (coefficient bytes, count) spans, in order.
class KeyWalk {
 public:
  explicit KeyWalk(std::string_view bytes)
      : p_(bytes.data() + 1), end_(bytes.data() + bytes.size()) {  // past 'd'
    while (p_ < end_ && *p_ != 'p') {
      dim_ = dim_ * 10 + static_cast<std::size_t>(*p_++ - '0');
    }
  }
  std::size_t dimension() const { return dim_; }
  // Steps past the next point marker; false after the last point.
  bool point() { return p_ < end_ && *p_++ == 'p'; }
  // The next coordinate's coefficients.
  std::string_view coordinate(std::size_t* count) {
    std::size_t n = 0;
    for (int shift = 0;; shift += 7) {
      const auto byte = static_cast<unsigned char>(*p_++);
      n |= static_cast<std::size_t>(byte & 0x7f) << shift;
      if (byte < 0x80) break;
    }
    *count = n;
    const std::string_view coeffs(p_, n * sizeof(double));
    p_ += coeffs.size();
    return coeffs;
  }

 private:
  const char* p_;
  const char* end_;
  std::size_t dim_ = 0;
};

}  // namespace

MotionSystem scenario_from_key(std::string_view bytes) {
  KeyWalk walk(bytes);
  std::vector<Trajectory> points;
  while (walk.point()) {
    std::vector<Polynomial> coords;
    coords.reserve(walk.dimension());
    for (std::size_t c = 0; c < walk.dimension(); ++c) {
      std::size_t count = 0;
      const std::string_view raw = walk.coordinate(&count);
      std::vector<double> coeffs(count);
      if (count != 0) std::memcpy(coeffs.data(), raw.data(), raw.size());
      coords.emplace_back(std::move(coeffs));
    }
    points.emplace_back(std::move(coords));
  }
  return MotionSystem(walk.dimension(), std::move(points));
}

std::uint64_t fingerprint_scenario_key(std::uint64_t h,
                                       std::string_view bytes) {
  KeyWalk walk(bytes);
  const std::string dim = 'd' + std::to_string(walk.dimension());
  h = fingerprint_bytes(h, dim.data(), dim.size());
  char hex[16];
  while (walk.point()) {
    h = fingerprint_bytes(h, "p", 1);
    for (std::size_t c = 0; c < walk.dimension(); ++c) {
      if (c != 0) h = fingerprint_bytes(h, "c", 1);
      std::size_t count = 0;
      const std::string_view raw = walk.coordinate(&count);
      for (std::size_t j = 0; j < count; ++j) {
        std::uint64_t b;
        std::memcpy(&b, raw.data() + j * sizeof b, sizeof b);
        fingerprint_hex_into(hex, b);
        h = fingerprint_bytes(h, hex, sizeof hex);
      }
    }
  }
  return h;
}

std::string trajectory_key(const Trajectory& t) {
  std::string out;
  out += 'd';
  out += std::to_string(t.dimension());
  for (std::size_t c = 0; c < t.dimension(); ++c) {
    out += 'g';
    out += std::to_string(t.coordinate(c).degree() + 1);
    out += ':';
    append_canonical(out, t.coordinate(c));
  }
  return out;
}

void fingerprint_hex_into(char (&digits)[16], std::uint64_t h) {
  static const char* hex = "0123456789abcdef";
  for (int i = 15; i >= 0; --i, h >>= 4) digits[i] = hex[h & 0xf];
}

std::string fingerprint_hex(std::uint64_t h) {
  std::string out;
  append_hex(out, h);
  return out;
}

}  // namespace dyncg
