#include "machine/topology.hpp"

#include <bit>
#include <cmath>
#include <mutex>
#include <unordered_map>

#include "support/ackermann.hpp"
#include "support/assert.hpp"

namespace dyncg {

namespace {

struct PatternCosts {
  std::vector<unsigned> exchange;  // per rank bit
  unsigned shift = 1;
};

// Process-wide costs by Topology::name().  Pool threads build machines
// concurrently, so lookups and inserts take the lock.  Every geometry has a
// power-of-two size, so there are a few hundred names at most (the
// factories use a few dozen) and the table needs no bound.
struct PatternCostMemo {
  std::mutex mu;
  std::unordered_map<std::string, PatternCosts> by_name;
};

PatternCostMemo& pattern_cost_memo() {
  // Leaked: pool threads may still build machines during static teardown.
  static PatternCostMemo* m = new PatternCostMemo;
  return *m;
}

}  // namespace

void Topology::compute_pattern_costs() {
  PatternCostMemo& memo = pattern_cost_memo();
  std::string key = name();
  {
    std::lock_guard<std::mutex> lk(memo.mu);
    auto it = memo.by_name.find(key);
    if (it != memo.by_name.end()) {
      exchange_cost_ = it->second.exchange;
      shift_cost_ = it->second.shift;
      return;
    }
  }
  // A miss measures outside the lock; threads racing on one geometry
  // measure the same costs, and the first insert wins.  The loops read
  // every rank's node log2(n) + 1 times, so it is decoded once here.
  std::size_t n = size();
  std::vector<std::size_t> node(n);
  for (std::size_t r = 0; r < n; ++r) node[r] = node_of_rank(r);
  int bits = floor_log2(n);
  exchange_cost_.assign(static_cast<std::size_t>(bits), 0);
  for (int k = 0; k < bits; ++k) {
    std::size_t worst = 0;
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t partner = r ^ (std::size_t{1} << k);
      std::size_t d = shortest_path(node[r], node[partner]);
      worst = std::max(worst, d);
    }
    exchange_cost_[static_cast<std::size_t>(k)] =
        static_cast<unsigned>(worst);
  }
  std::size_t worst_shift = 0;
  for (std::size_t r = 0; r + 1 < n; ++r) {
    worst_shift = std::max(worst_shift, shortest_path(node[r], node[r + 1]));
  }
  shift_cost_ = static_cast<unsigned>(std::max<std::size_t>(1, worst_shift));
  std::lock_guard<std::mutex> lk(memo.mu);
  memo.by_name.emplace(std::move(key),
                       PatternCosts{exchange_cost_, shift_cost_});
}

unsigned Topology::exchange_rounds(unsigned k) const {
  DYNCG_ASSERT(k < exchange_cost_.size(), "exchange offset out of range");
  return exchange_cost_[k];
}

unsigned Topology::shift_rounds() const { return shift_cost_; }

// --- Mesh ------------------------------------------------------------------

MeshTopology::MeshTopology(std::uint32_t side, MeshOrder order)
    : side_(side), order_(order) {
  DYNCG_ASSERT(side >= 1 && (side & (side - 1)) == 0,
               "mesh side must be a power of two");
  compute_pattern_costs();
}

std::size_t MeshTopology::size() const {
  return static_cast<std::size_t>(side_) * side_;
}

std::string MeshTopology::name() const {
  return std::string("mesh-") + std::to_string(side_) + "x" +
         std::to_string(side_) + "/" + to_string(order_);
}

bool MeshTopology::adjacent(std::size_t a, std::size_t b) const {
  return shortest_path(a, b) == 1;
}

std::vector<std::size_t> MeshTopology::neighbors(std::size_t v) const {
  std::size_t row = v / side_, col = v % side_;
  std::vector<std::size_t> out;
  if (row > 0) out.push_back(v - side_);
  if (row + 1 < side_) out.push_back(v + side_);
  if (col > 0) out.push_back(v - 1);
  if (col + 1 < side_) out.push_back(v + 1);
  return out;
}

std::size_t MeshTopology::shortest_path(std::size_t a, std::size_t b) const {
  long ar = static_cast<long>(a / side_), ac = static_cast<long>(a % side_);
  long br = static_cast<long>(b / side_), bc = static_cast<long>(b % side_);
  return static_cast<std::size_t>(std::labs(ar - br) + std::labs(ac - bc));
}

std::size_t MeshTopology::diameter() const {
  return 2 * (static_cast<std::size_t>(side_) - 1);
}

std::size_t MeshTopology::node_of_rank(std::size_t r) const {
  RowCol rc = mesh_rank_to_rc(order_, side_, r);
  return static_cast<std::size_t>(rc.row) * side_ + rc.col;
}

std::size_t MeshTopology::rank_of_node(std::size_t v) const {
  return static_cast<std::size_t>(mesh_rc_to_rank(
      order_, side_,
      RowCol{static_cast<std::uint32_t>(v / side_),
             static_cast<std::uint32_t>(v % side_)}));
}

// --- Hypercube ---------------------------------------------------------------

HypercubeTopology::HypercubeTopology(std::uint32_t dims, CubeOrder order)
    : dims_(dims), order_(order) {
  DYNCG_ASSERT(dims <= 24, "hypercube too large to simulate");
  compute_pattern_costs();
}

std::size_t HypercubeTopology::size() const {
  return std::size_t{1} << dims_;
}

std::string HypercubeTopology::name() const {
  return std::string("hypercube-2^") + std::to_string(dims_) + "/" +
         to_string(order_);
}

bool HypercubeTopology::adjacent(std::size_t a, std::size_t b) const {
  return std::popcount(a ^ b) == 1;
}

std::vector<std::size_t> HypercubeTopology::neighbors(std::size_t v) const {
  std::vector<std::size_t> out;
  out.reserve(dims_);
  for (std::uint32_t k = 0; k < dims_; ++k) out.push_back(v ^ (std::size_t{1} << k));
  return out;
}

std::size_t HypercubeTopology::shortest_path(std::size_t a,
                                             std::size_t b) const {
  return static_cast<std::size_t>(std::popcount(a ^ b));
}

std::size_t HypercubeTopology::diameter() const { return dims_; }

std::size_t HypercubeTopology::node_of_rank(std::size_t r) const {
  return order_ == CubeOrder::kGray ? gray_encode(r) : r;
}

std::size_t HypercubeTopology::rank_of_node(std::size_t v) const {
  return order_ == CubeOrder::kGray ? gray_decode(v) : v;
}

// --- Factories ----------------------------------------------------------------

std::shared_ptr<const Topology> make_mesh_for(std::size_t n, MeshOrder order) {
  std::uint64_t p4 = ceil_pow4(std::max<std::size_t>(n, 1));
  auto side = static_cast<std::uint32_t>(std::uint64_t{1}
                                         << (floor_log2(p4) / 2));
  return std::make_shared<MeshTopology>(side, order);
}

std::shared_ptr<const Topology> make_hypercube_for(std::size_t n,
                                                   CubeOrder order) {
  std::uint64_t p2 = ceil_pow2(std::max<std::size_t>(n, 1));
  return std::make_shared<HypercubeTopology>(
      static_cast<std::uint32_t>(floor_log2(p2)), order);
}

}  // namespace dyncg
