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
  static const char* digits = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i, b >>= 4) buf[i] = digits[b & 0xf];
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

void append_canonical(std::string& out, const Trajectory& t) {
  for (std::size_t c = 0; c < t.dimension(); ++c) {
    if (c != 0) out += 'c';
    append_canonical(out, t.coordinate(c));
  }
}

void append_canonical(std::string& out, const MotionSystem& system) {
  out += 'd';
  out += std::to_string(system.dimension());
  for (std::size_t i = 0; i < system.size(); ++i) {
    out += 'p';
    append_canonical(out, system.point(i));
  }
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

std::uint64_t trajectory_fingerprint(const Trajectory& t) {
  const std::string key = trajectory_key(t);
  return fingerprint_bytes(kFingerprintSeed, key.data(), key.size());
}

std::string fingerprint_hex(std::uint64_t h) {
  std::string out;
  append_hex(out, h);
  return out;
}

}  // namespace dyncg
