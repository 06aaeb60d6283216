#pragma once

#include <cstdint>
#include <string>

#include "dyncg/motion.hpp"
#include "poly/rational_germ.hpp"

// Canonical cache keys for motion scenarios and steady-state germs.
//
// The serving layer (src/serve/, tools/dyncg_serve) answers repeated
// scenarios from a result cache; Chan's shallow-cuttings line of work
// frames such a germ/trajectory-keyed cache as the first serving
// optimization before full dynamization.  A cache key must be
//
//   * exact — two scenarios share a key iff every trajectory coefficient is
//     bit-identical (answers are byte-compared against fresh computes, so a
//     "close enough" key would serve wrong bytes);
//   * canonical — independent of how the scenario was specified (generator
//     seed vs. inline coefficients: both materialize the MotionSystem and
//     key on its bits);
//   * cheap — O(total coefficients), no geometry.
//
// Two forms are provided.  `append_canonical` renders IEEE-754 bit patterns
// as fixed-width hex into a string: the exact form, used as the cache map
// key.  `fingerprint` folds the same bytes through 64-bit FNV-1a: the
// compact form, surfaced in responses/telemetry (the wire `key`) to name
// an entry without shipping the coefficients back.
namespace dyncg {

inline constexpr std::uint64_t kFingerprintSeed = 0xcbf29ce484222325ull;

// FNV-1a over the value's IEEE-754 bit pattern (distinguishes -0.0/+0.0 and
// every NaN payload — exactly the "bit-identical" contract).
std::uint64_t fingerprint_mix(std::uint64_t h, double v);
std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v);
// Raw bytes (the serving layer folds whole canonical key strings).
std::uint64_t fingerprint_bytes(std::uint64_t h, const void* data,
                                std::size_t size);

// Ascending coefficients, constant first; degree changes change the key.
std::uint64_t fingerprint(const Polynomial& p,
                          std::uint64_t h = kFingerprintSeed);
// Coordinates in order, each polynomial delimited.
std::uint64_t fingerprint(const Trajectory& t,
                          std::uint64_t h = kFingerprintSeed);
// Dimension, then every trajectory in system order.
std::uint64_t fingerprint(const MotionSystem& system,
                          std::uint64_t h = kFingerprintSeed);
// Numerator then denominator (germs are normalized: positive denominator
// leading sign), so equal germs built the same way key equal.
std::uint64_t fingerprint(const RationalGerm& g,
                          std::uint64_t h = kFingerprintSeed);

// Exact canonical forms: fixed-width hex of each coefficient's bit pattern,
// with structural delimiters ('c' between coordinates, 'p' between points).
void append_canonical(std::string& out, double v);
void append_canonical(std::string& out, const Polynomial& p);
void append_canonical(std::string& out, const Trajectory& t);
void append_canonical(std::string& out, const MotionSystem& system);

// Per-trajectory canonical key, usable standalone (the whole-scenario forms
// above are only unambiguous inside a fixed-dimension scenario string):
// dimension prefix plus a `g<count>:` coefficient-count group before each
// coordinate, so the key is self-delimiting and two trajectories share a
// key iff every coefficient is bit-identical.  Fleet sessions dedupe
// identical trajectory inserts on this key, and incremental-query cache
// entries fold it into their fingerprints.
std::string trajectory_key(const Trajectory& t);
// The same identity as a compact 64-bit name (FNV-1a over the key bytes).
std::uint64_t trajectory_fingerprint(const Trajectory& t);

// "a1b2c3d4e5f60718" — the fingerprint as 16 lowercase hex digits, the form
// responses and telemetry use to name a cache entry.
std::string fingerprint_hex(std::uint64_t h);

}  // namespace dyncg
