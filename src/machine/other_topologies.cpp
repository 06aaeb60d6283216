#include "machine/other_topologies.hpp"

#include <deque>

#include "support/ackermann.hpp"
#include "support/assert.hpp"

namespace dyncg {
namespace {

// All-pairs BFS on an explicit adjacency structure.
void all_pairs_bfs(std::size_t n,
                   const std::vector<std::vector<std::size_t>>& adj,
                   std::vector<std::uint16_t>& dist, std::size_t& diameter) {
  dist.assign(n * n, std::uint16_t(0xffff));
  diameter = 0;
  std::deque<std::size_t> queue;
  for (std::size_t s = 0; s < n; ++s) {
    std::uint16_t* row = &dist[s * n];
    row[s] = 0;
    queue.clear();
    queue.push_back(s);
    while (!queue.empty()) {
      std::size_t v = queue.front();
      queue.pop_front();
      for (std::size_t w : adj[v]) {
        if (row[w] == 0xffff) {
          row[w] = static_cast<std::uint16_t>(row[v] + 1);
          diameter = std::max<std::size_t>(diameter, row[w]);
          queue.push_back(w);
        }
      }
    }
  }
}

}  // namespace

// --- Cube-connected cycles ---------------------------------------------------

CubeConnectedCycles::CubeConnectedCycles(std::uint32_t dims) : dims_(dims) {
  DYNCG_ASSERT(dims >= 2 && (dims & (dims - 1)) == 0,
               "CCC dimension must be a power of two (>= 2) so the PE count "
               "d * 2^d is a power of two");
  DYNCG_ASSERT(dims <= 8, "CCC too large to simulate (all-pairs BFS)");
  build_order();
  build_distances();
  compute_pattern_costs();
}

std::size_t CubeConnectedCycles::size() const {
  return static_cast<std::size_t>(dims_) << dims_;
}

std::string CubeConnectedCycles::name() const {
  return std::string("ccc-") + std::to_string(dims_);
}

bool CubeConnectedCycles::adjacent(std::size_t a, std::size_t b) const {
  return shortest_path(a, b) == 1;
}

std::vector<std::size_t> CubeConnectedCycles::neighbors(std::size_t v) const {
  std::uint32_t p = cycle_pos(v);
  std::size_t w = cube_word(v);
  std::size_t base = std::size_t{1} << dims_;
  std::vector<std::size_t> out;
  out.push_back(static_cast<std::size_t>((p + 1) % dims_) * base + w);
  out.push_back(static_cast<std::size_t>((p + dims_ - 1) % dims_) * base + w);
  out.push_back(static_cast<std::size_t>(p) * base + (w ^ (std::size_t{1} << p)));
  if (dims_ == 2) out.erase(out.begin() + 1);  // 2-cycles coincide
  return out;
}

std::size_t CubeConnectedCycles::shortest_path(std::size_t a,
                                               std::size_t b) const {
  return dist_[a * size() + b];
}

std::size_t CubeConnectedCycles::diameter() const { return diameter_; }

void CubeConnectedCycles::build_order() {
  std::size_t n = size();
  std::size_t words = std::size_t{1} << dims_;
  rank_to_node_.resize(n);
  node_to_rank_.resize(n);
  std::size_t r = 0;
  for (std::size_t g = 0; g < words; ++g) {
    std::size_t w = gray_encode(g);
    for (std::uint32_t i = 0; i < dims_; ++i) {
      std::uint32_t p = (g % 2 == 0) ? i : (dims_ - 1 - i);  // snake
      std::size_t node = (static_cast<std::size_t>(p) << dims_) + w;
      rank_to_node_[r] = node;
      node_to_rank_[node] = r;
      ++r;
    }
  }
}

void CubeConnectedCycles::build_distances() {
  std::size_t n = size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t v = 0; v < n; ++v) adj[v] = neighbors(v);
  all_pairs_bfs(n, adj, dist_, diameter_);
}

std::size_t CubeConnectedCycles::node_of_rank(std::size_t r) const {
  return rank_to_node_[r];
}

std::size_t CubeConnectedCycles::rank_of_node(std::size_t v) const {
  return node_to_rank_[v];
}

// --- Shuffle-exchange ----------------------------------------------------------

ShuffleExchange::ShuffleExchange(std::uint32_t dims) : dims_(dims) {
  DYNCG_ASSERT(dims >= 1 && (std::size_t{1} << dims) <= kMaxShuffleExchangePes,
               "shuffle-exchange too large to simulate (all-pairs BFS)");
  build_distances();
  compute_pattern_costs();
}

std::size_t ShuffleExchange::size() const { return std::size_t{1} << dims_; }

std::string ShuffleExchange::name() const {
  return std::string("shuffle-exchange-2^") + std::to_string(dims_);
}

std::size_t ShuffleExchange::rotl(std::size_t v) const {
  std::size_t mask = size() - 1;
  return ((v << 1) | (v >> (dims_ - 1))) & mask;
}

std::size_t ShuffleExchange::rotr(std::size_t v) const {
  std::size_t mask = size() - 1;
  return ((v >> 1) | (v << (dims_ - 1))) & mask;
}

bool ShuffleExchange::adjacent(std::size_t a, std::size_t b) const {
  return shortest_path(a, b) == 1;
}

std::vector<std::size_t> ShuffleExchange::neighbors(std::size_t v) const {
  std::vector<std::size_t> out;
  out.push_back(v ^ 1);
  std::size_t l = rotl(v), r = rotr(v);
  if (l != v && l != out[0]) out.push_back(l);
  if (r != v && r != l && r != out[0]) out.push_back(r);
  return out;
}

std::size_t ShuffleExchange::shortest_path(std::size_t a,
                                           std::size_t b) const {
  return dist_[a * size() + b];
}

std::size_t ShuffleExchange::diameter() const { return diameter_; }

void ShuffleExchange::build_distances() {
  std::size_t n = size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t v = 0; v < n; ++v) adj[v] = neighbors(v);
  all_pairs_bfs(n, adj, dist_, diameter_);
}

std::size_t ShuffleExchange::node_of_rank(std::size_t r) const { return r; }

std::size_t ShuffleExchange::rank_of_node(std::size_t v) const { return v; }

// --- factories -------------------------------------------------------------------

std::shared_ptr<const Topology> make_ccc_for(std::size_t n) {
  DYNCG_ASSERT(n <= kMaxCccPes,
               "no simulable CCC of the requested size (max 2048)");
  std::uint32_t d = 2;
  while ((static_cast<std::size_t>(d) << d) < n) d *= 2;
  return std::make_shared<CubeConnectedCycles>(d);
}

std::shared_ptr<const Topology> make_shuffle_exchange_for(std::size_t n) {
  std::uint64_t p2 = ceil_pow2(std::max<std::size_t>(n, 2));
  return std::make_shared<ShuffleExchange>(
      static_cast<std::uint32_t>(floor_log2(p2)));
}

}  // namespace dyncg
