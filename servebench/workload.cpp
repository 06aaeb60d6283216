#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace servebench {

const char* const kQueryOps[6] = {"neighbor", "pairs",   "collisions",
                                  "hullwhen", "contain", "steady"};

namespace {

enum OpIndex { kNeighbor, kPairs, kCollisions, kHullwhen, kContain, kSteady };

// One cold_mix block: 30/20/15/15/10/10 percent of 20 requests.
constexpr int kColdBlock[20] = {
    kNeighbor,   kNeighbor,   kNeighbor,   kNeighbor, kNeighbor, kNeighbor,
    kCollisions, kCollisions, kCollisions, kCollisions,
    kHullwhen,   kHullwhen,   kHullwhen,
    kContain,    kContain,    kContain,
    kSteady,     kSteady,
    kPairs,      kPairs};

constexpr std::size_t kColdSizes[3] = {64, 128, 256};
constexpr std::uint64_t kWireSeedMask = (std::uint64_t{1} << 40) - 1;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kColdMix:
      return "cold_mix";
    case Workload::kHotRepeat:
      return "hot_repeat";
    case Workload::kFleetChurn:
      return "fleet_churn";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kColdMix, Workload::kHotRepeat, Workload::kFleetChurn}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::uint64_t substream(std::uint64_t seed, std::uint64_t a,
                        std::uint64_t b) {
  return mix64(mix64(mix64(seed) ^ a) ^ b);
}

std::string exact_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- cold_mix ----------------------------------------------------------------

ColdMixStream::ColdMixStream(std::uint64_t seed, std::size_t conn,
                             std::uint64_t lane)
    : seed_(seed), conn_(conn), lane_(lane), rng_(substream(seed, lane, conn)) {}

Item ColdMixStream::next() {
  if (block_.empty()) {
    block_.assign(std::begin(kColdBlock), std::end(kColdBlock));
    for (std::size_t i = block_.size(); i-- > 1;) {
      std::swap(block_[i], block_[static_cast<std::size_t>(
                               rng_.uniform_int(0, static_cast<int>(i)))]);
    }
  }
  const int op = block_.back();
  block_.pop_back();
  const std::uint64_t i = index_++;
  // Each op walks its six (size, machine) combinations in turn, and every
  // 8th request of an op carries a fault, so the work mix is fixed.
  const std::size_t nth = per_op_[op]++ + conn_;
  const std::size_t n = op == kPairs ? 64 : kColdSizes[nth % 3];
  const std::uint64_t scenario_seed =
      substream(seed_, 16 + lane_ * 64 + conn_, i) & kWireSeedMask;

  std::string line = "{\"op\":\"";
  line += kQueryOps[op];
  line += "\",\"scenario\":{\"seed\":" + std::to_string(scenario_seed) +
          ",\"n\":" + std::to_string(n);
  if (op != kSteady) line += ",\"d\":2";  // steady builds its own motion
  line += ",\"k\":2},\"machine\":\"";
  line += (nth / 3) % 2 == 0 ? "mesh" : "hypercube";
  line += '"';
  if (op != kPairs && op != kContain) {
    line += ",\"query\":" +
            std::to_string(rng_.uniform_int(0, static_cast<int>(n) - 1));
  }
  if (op == kContain && nth % 2 == 1) {
    line += ",\"box\":[" + std::to_string(rng_.uniform_int(6, 12)) + "," +
            std::to_string(rng_.uniform_int(4, 10)) + "]";
  }
  if (nth % 8 == 7) {
    line += ",\"faults\":\"link:0-1@" +
            std::to_string(rng_.uniform_int(0, 63)) + "..\"";
  }
  line += '}';
  return Item{std::move(line), ItemKind::kQuery, true};
}

// --- hot_repeat --------------------------------------------------------------

HotShape hot_shape(std::size_t rank) {
  constexpr int kHotOps[5] = {kNeighbor, kCollisions, kHullwhen, kContain,
                              kPairs};
  HotShape s;
  s.op = kHotOps[rank % 5];
  s.n = s.op == kPairs ? 8 + (rank * 7) % 25 : 8 + (rank * 53) % 193;
  s.hypercube = (rank / 5) % 2 == 1;
  s.box = s.op == kContain && (rank / 10) % 2 == 0;
  return s;
}

std::string hot_line(const HotShape& shape, std::uint64_t coeff_seed) {
  dyncg::Rng rng(coeff_seed);
  std::string line = "{\"op\":\"";
  line += kQueryOps[shape.op];
  line += "\",\"scenario\":{\"points\":[";
  for (std::size_t p = 0; p < shape.n; ++p) {
    if (p > 0) line += ',';
    line += '[';
    for (int c = 0; c < 2; ++c) {
      if (c > 0) line += ',';
      line += '[';
      for (int j = 0; j < 3; ++j) {
        if (j > 0) line += ',';
        line += exact_num(rng.uniform(-2.0, 2.0));
      }
      line += ']';
    }
    line += ']';
  }
  line += "],\"d\":2},\"machine\":\"";
  line += shape.hypercube ? "hypercube" : "mesh";
  line += '"';
  if (shape.op != kPairs && shape.op != kContain) {
    line += ",\"query\":" + std::to_string(rng.uniform_int(
                                0, static_cast<int>(shape.n) - 1));
  }
  if (shape.box) {
    line += ",\"box\":[" + std::to_string(rng.uniform_int(6, 12)) + "," +
            std::to_string(rng.uniform_int(4, 10)) + "]";
  }
  line += '}';
  return line;
}

HotPool::HotPool(std::uint64_t seed) {
  lines_.reserve(kHotPoolSize);
  for (std::size_t r = 0; r < kHotPoolSize; ++r) {
    lines_.push_back(hot_line(hot_shape(r), substream(seed, 300, r)));
  }
}

HotStream::HotStream(std::uint64_t seed, std::size_t conn, const HotPool* pool,
                     std::uint64_t lane)
    : seed_(seed),
      conn_(conn),
      lane_(lane),
      pool_(pool),
      seen_(kHotPoolSize, false) {
  offset_ = static_cast<double>(substream(seed, 100 + lane, conn) >> 11) *
            0x1.0p-53;
  double h = 0.0;
  for (std::size_t r = 0; r < kHotPoolSize; ++r) {
    h += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(h);
  }
  for (double& c : cdf_) c /= h;
}

std::size_t HotStream::zipf_rank() {
  // Golden-ratio (Weyl) sequence from a seeded offset: the empirical rank
  // frequencies track Zipf(1.0) closely after a few hundred draws under
  // every seed, so the hit mix does not vary with the seed.
  const double u = std::fmod(offset_ + static_cast<double>(draws_++) *
                                           0.6180339887498949,
                             1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               kHotPoolSize - 1);
}

Item HotStream::next() {
  const std::uint64_t i = index_++;
  if (i % kHotFreshEvery == kHotFreshEvery - 1) {
    // Fresh scenarios walk all 256 shapes (97 is odd, so coprime to 256).
    const std::size_t shape_rank = static_cast<std::size_t>(
        (i / kHotFreshEvery * 97 + static_cast<std::uint64_t>(offset_ * 256)) %
        kHotPoolSize);
    const HotShape shape = hot_shape(shape_rank);
    return Item{hot_line(shape, substream(seed_, 200 + lane_ * 64 + conn_, i)),
                ItemKind::kQuery, true};
  }
  const std::size_t rank = zipf_rank();
  const bool first = !seen_[rank];
  seen_[rank] = true;
  return Item{pool_->line(rank), ItemKind::kQuery, first};
}

// --- fleet_churn -------------------------------------------------------------

FleetStream::FleetStream(std::uint64_t seed, std::size_t conn,
                         std::uint64_t lane)
    : rng_(substream(seed, 400 + lane, conn)) {}

std::string FleetStream::open_line() {
  return "{\"op\":\"fleet_open\",\"d\":2,\"k\":2}";
}

std::string FleetStream::random_point() {
  // a + b (t - t0) + c (t - t0)^2 with t0 the current session time, written
  // out in powers of t.
  const double t0 = static_cast<double>(ticks_) / kFleetTick;
  std::string p = "[";
  for (int i = 0; i < 2; ++i) {
    const double a = rng_.uniform(-64.0, 64.0);
    const double b = rng_.uniform(-8.0, 8.0);
    const double c = rng_.uniform(-2.0, 2.0);
    if (i > 0) p += ',';
    p += '[' + exact_num(a - b * t0 + c * t0 * t0) + ',' +
         exact_num(b - 2.0 * c * t0) + ',' + exact_num(c) + ']';
  }
  return p + "]";
}

std::string FleetStream::insert_json(std::uint64_t id,
                                     const std::string& point) {
  live_.push_back(id);
  point_of_[id] = point;
  return "{\"id\":" + std::to_string(id) + ",\"point\":" + point + "}";
}

std::vector<std::string> FleetStream::fill_lines() {
  std::vector<std::string> lines;
  while (live_.size() < kFleetFill) {
    std::string ins;
    for (std::size_t j = 0; j < kFleetFillBatch && live_.size() < kFleetFill;
         ++j) {
      if (!ins.empty()) ins += ',';
      ins += insert_json(next_id_++, random_point());
    }
    lines.push_back("{\"op\":\"fleet_update\",\"fleet\":\"" + fleet_ +
                    "\",\"insert\":[" + ins + "]}");
  }
  return lines;
}

Item FleetStream::next() {
  const std::uint64_t i = index_++;
  if (i % kFleetQueryEvery == kFleetQueryEvery - 1) {
    return Item{"{\"op\":\"fleet_query\",\"fleet\":\"" + fleet_ + "\"}",
                ItemKind::kFleetQuery, true};
  }
  std::string erase;
  for (std::size_t j = 0; j < kFleetChurn && !live_.empty(); ++j) {
    const std::size_t pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(live_.size()) - 1));
    const std::uint64_t id = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    point_of_.erase(id);
    if (!erase.empty()) erase += ',';
    erase += std::to_string(id);
  }
  std::string ins;
  for (std::size_t j = 0; j < kFleetChurn; ++j) {
    // Duplicates copy a member that survives this batch's erases.
    std::string point =
        rng_.uniform_int(0, 15) == 0 && !live_.empty()
            ? point_of_[live_[static_cast<std::size_t>(rng_.uniform_int(
                  0, static_cast<int>(live_.size()) - 1))]]
            : random_point();
    if (!ins.empty()) ins += ',';
    ins += insert_json(next_id_++, point);
  }
  ticks_ += static_cast<std::uint64_t>(rng_.uniform_int(1, 4));
  return Item{"{\"op\":\"fleet_update\",\"fleet\":\"" + fleet_ +
                  "\",\"erase\":[" + erase + "],\"insert\":[" + ins +
                  "],\"advance\":" +
                  exact_num(static_cast<double>(ticks_) / kFleetTick) + "}",
              ItemKind::kFleetUpdate, true};
}

}  // namespace servebench
