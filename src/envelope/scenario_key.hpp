#pragma once

#include <cstdint>
#include <string>
#include <string_view>

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
// Three forms are provided.  `append_scenario_key` writes each coefficient's
// 8 raw IEEE-754 bytes behind its coordinate's coefficient count: the exact
// form, used as the result-cache map key (8 bytes per coefficient).
// `append_canonical` renders bit patterns as fixed-width hex: the text form
// of per-trajectory keys and request boxes.  `fingerprint` folds bytes
// through 64-bit FNV-1a: the 64-bit name surfaced in responses/telemetry
// (the wire `key`) to name an entry without shipping the coefficients back.
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

// Fixed-width hex of each coefficient's bit pattern, constant first (16
// lowercase digits per double, no delimiters).
void append_canonical(std::string& out, double v);
void append_canonical(std::string& out, const Polynomial& p);

// Whole-scenario key, compact and exact.  Appends 'd', the dimension in
// decimal, then for every point 'p' and, per coordinate, its coefficient
// count (LEB128, one byte below 128) followed by each coefficient's 8
// IEEE-754 bytes in host order.  The counts make the encoding
// self-delimiting, so two systems append the same bytes iff they have the
// same dimension, point count and degrees and bit-identical coefficients.
// The bytes never leave the process (host order is enough).
void append_scenario_key(std::string& out, const MotionSystem& system);
// The pieces of that encoding, in order, for a reader that writes a
// scenario's key without building the system (serve::read_request): the
// dimension header once, then per point its marker and each coordinate's
// count and the coefficients the Polynomial holds (trimmed).
void append_key_dimension(std::string& out, std::size_t dimension);
void append_key_point(std::string& out);
void append_key_coordinate(std::string& out, const double* coeffs,
                           std::size_t count);

// The system whose scenario key is `bytes` (exactly what
// append_scenario_key appended): the inverse, for callers that keep the key
// and build the system only when they need it.
MotionSystem scenario_from_key(std::string_view bytes);

// `h` folded by FNV-1a with the scenario's hex text, read from its key
// bytes without building it: "d<dim>", then per point 'p' and the
// coordinates' hex coefficients (append_canonical) joined by 'c'.  That
// text is the one responses have always fingerprinted, so the wire `key`
// is unchanged.  It is not self-delimiting ('c' is also a hex digit), which
// is why it is not the cache key.
std::uint64_t fingerprint_scenario_key(std::uint64_t h,
                                       std::string_view bytes);

// Per-trajectory canonical key, usable standalone, in hex text:
// dimension prefix plus a `g<count>:` coefficient-count group before each
// coordinate, so the key is self-delimiting and two trajectories share a
// key iff every coefficient is bit-identical.  Fleet sessions dedupe
// identical trajectory inserts on this key, and incremental-query cache
// entries fold it into their fingerprints.
std::string trajectory_key(const Trajectory& t);

// "a1b2c3d4e5f60718" — the fingerprint as 16 lowercase hex digits, the form
// responses and telemetry use to name a cache entry.
std::string fingerprint_hex(std::uint64_t h);
// The same 16 digits written into a caller's buffer, without allocating.
void fingerprint_hex_into(char (&digits)[16], std::uint64_t h);

}  // namespace dyncg
