#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/rng.hpp"

// Seeded request generators for the three servebench workloads.  The daemon
// only ever receives the lines these produce; the same (seed, connection,
// lane) always yields byte-identical lines.
//
// Why each workload exists (README.md has the layer map):
//
//   cold_mix    Engine-bound, cache bypassed.  Stateless generator-form
//               queries, every one with a fresh scenario seed, so the cache
//               never hits.  Machine construction, the Section 4/5 algorithms,
//               the parallel envelope, the ops library, fault recovery and
//               the kernels do nearly all the work; request bytes are tiny.
//               A cache or protocol optimisation should predict no change.
//   hot_repeat  Wire/protocol/cache-bound, engine nearly idle.  Inline
//               scenarios (1-30 KB lines) drawn Zipf(1.0) from a warmed pool
//               of 256; one request in 20 is a fresh scenario that misses,
//               so parse, key canonicalisation, lookup, render and the
//               socket loop dominate, and the rare misses show the batch
//               scheduler's head-of-line blocking.  Engine optimisations
//               should predict little change.
//   fleet_churn Stateful writes beside reads.  One fleet session per
//               connection, filled to 768 members; each update erases 4,
//               inserts 4 and advances time, every 8th request is a
//               fleet_query.  The only workload on DynamicEnvelope and the
//               fleet registry; bypasses the engine and the cache.
//
// Lanes keep the streams that share a seed apart: the timed stream, the
// warm-up requests, and the probe prefixes the traced run uses for layers a
// workload never reaches draw disjoint scenario seeds.
namespace servebench {

enum class Workload { kColdMix, kHotRepeat, kFleetChurn };
const char* workload_name(Workload w);
bool parse_workload(const std::string& name, Workload* out);

enum Lane : std::uint64_t { kLaneTimed = 0, kLaneWarm = 1, kLaneProbe = 2 };

// splitmix64 over (seed, a, b): independent sub-stream seeds.
std::uint64_t substream(std::uint64_t seed, std::uint64_t a,
                        std::uint64_t b = 0);

enum class ItemKind { kQuery, kFleetUpdate, kFleetQuery };

struct Item {
  std::string line;
  ItemKind kind = ItemKind::kQuery;
  bool check = false;  // first request for its scenario on this stream
};

// The six stateless ops, in the order per-op metrics are reported.
extern const char* const kQueryOps[6];

// --- cold_mix ----------------------------------------------------------------

// Op mix per block of 20 requests (shuffled within the block): neighbor 6,
// collisions 4, hullwhen 3, contain 3 (alternately with a box), steady 2,
// pairs 2.  Each op cycles n through {64, 128, 256} (pairs stays at 64: it
// is O(n^2)) and then the machine between mesh and hypercube; every 8th
// request of an op carries a recoverable single-link-down fault spec.
// d = 2, k = 2.  Stratifying the draw keeps the work mix the same under
// every seed, so run-to-run spread comes from the system, not the draw.
class ColdMixStream {
 public:
  ColdMixStream(std::uint64_t seed, std::size_t conn,
                std::uint64_t lane = kLaneTimed);
  Item next();

 private:
  std::uint64_t seed_;
  std::size_t conn_;
  std::uint64_t lane_;
  dyncg::Rng rng_;
  std::uint64_t index_ = 0;
  std::vector<int> block_;
  std::size_t per_op_[6] = {0, 0, 0, 0, 0, 0};
};

// --- hot_repeat --------------------------------------------------------------

inline constexpr std::size_t kHotPoolSize = 256;
inline constexpr std::uint64_t kHotFreshEvery = 20;

// Shape of pool rank r: op, size, machine and box are fixed by the rank (so
// the Zipf head has the same shape under every seed); coefficients come
// from the seed.  Sizes span n = 8..200 (pairs 8..32), i.e. ~1-28 KB lines.
struct HotShape {
  int op = 0;  // index into kQueryOps
  std::size_t n = 8;
  bool hypercube = false;
  bool box = false;
};
HotShape hot_shape(std::size_t rank);
// One inline-scenario request line; coefficients uniform in [-2, 2],
// printed with 17 significant digits so they round-trip exactly.
std::string hot_line(const HotShape& shape, std::uint64_t coeff_seed);

class HotPool {
 public:
  explicit HotPool(std::uint64_t seed);
  const std::string& line(std::size_t rank) const { return lines_[rank]; }
  std::size_t size() const { return lines_.size(); }

 private:
  std::vector<std::string> lines_;
};

class HotStream {
 public:
  HotStream(std::uint64_t seed, std::size_t conn, const HotPool* pool,
            std::uint64_t lane = kLaneTimed);
  Item next();
  // Next Zipf(1.0) rank in [0, kHotPoolSize).
  std::size_t zipf_rank();

 private:
  std::uint64_t seed_;
  std::size_t conn_;
  std::uint64_t lane_;
  const HotPool* pool_;
  double offset_ = 0.0;  // seeded start of the rank sequence, in [0, 1)
  std::uint64_t draws_ = 0;
  std::uint64_t index_ = 0;
  std::vector<double> cdf_;
  std::vector<bool> seen_;
};

// --- fleet_churn -------------------------------------------------------------

inline constexpr std::size_t kFleetFill = 768;
inline constexpr std::size_t kFleetFillBatch = 32;
inline constexpr std::size_t kFleetChurn = 4;  // erases and inserts per update
inline constexpr std::uint64_t kFleetQueryEvery = 8;
// Time advances by j / kFleetTick, j in 1..4, per update.
inline constexpr double kFleetTick = 65536.0;

// One session's stream.  Members are d = 2, k = 2 trajectories and every
// update advances time by j / 65536, j in 1..4.  Coefficients are printed
// with 17 significant digits and times are dyadic, so every value
// round-trips exactly through the wire.  One insert in 16 duplicates a live
// trajectory (the registry's dedupe path).
//
// The request cost must not drift with how many requests came before it,
// or a faster server would be rewarded with cheaper requests:
//   * each member moves as a + b (t - t0) + c (t - t0)^2 around its
//     insertion time t0, so the fleet stays around the reference as churn
//     replaces it (every ~190 updates) — origin-centred motions fly apart
//     and the envelope collapses to a single piece;
//   * time moves slowly: 60 s at three times today's update rate reaches
//     t ~ 7.  Written out in powers of t, a member inserted at t0 has
//     coefficients ~ c t0^2, and near t0 ~ 40 the double-precision
//     incremental envelope stops matching canonical_rebuild (seed 5 with
//     steps of j/1024 diverges after ~18k updates of one session);
//   * coefficients are random, not small integers: integers make exact
//     multi-member ties, where the incremental envelope can emit a
//     zero-length piece that canonical_rebuild does not.
class FleetStream {
 public:
  FleetStream(std::uint64_t seed, std::size_t conn,
              std::uint64_t lane = kLaneTimed);
  static std::string open_line();
  void set_fleet(const std::string& name) { fleet_ = name; }
  // Setup: updates that fill the session to kFleetFill members.
  std::vector<std::string> fill_lines();
  Item next();

 private:
  std::string random_point();
  std::string insert_json(std::uint64_t id, const std::string& point);

  dyncg::Rng rng_;
  std::string fleet_;
  std::uint64_t index_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t ticks_ = 0;  // session time in 1/kFleetTick units
  std::vector<std::uint64_t> live_;
  std::map<std::uint64_t, std::string> point_of_;
};

// %.17g: every double parses back to the same bits.
std::string exact_num(double v);

}  // namespace servebench
