#pragma once

#include <memory>

#include "machine/topology.hpp"

// The other architectures of the paper's closing remark (Section 1 /
// Section 6): "It is possible that these algorithms can be implemented on
// other architectures, such as the cube-connected cycles or shuffle-
// exchange network, to give efficient algorithms for these architectures."
//
// Because every algorithm in this library communicates through the
// topology-priced patterns (offset exchanges, unit shifts, ladders), adding
// an architecture is exactly what the remark hopes for: define the graph
// and a linear PE order, measure the pattern costs, and the whole stack —
// Table 1 ops, Theorem 3.2 envelopes, Sections 4 and 5 — runs unchanged.
// bench_further_remarks measures what the bounds become.
//
// Shortest paths on these graphs have no convenient closed form, so both
// topologies precompute an all-pairs BFS table at construction; sizes are
// capped accordingly.
namespace dyncg {

// Cube-connected cycles CCC(d): each hypercube node is replaced by a
// d-cycle; node (p, w) with cycle position p < d and cube word w < 2^d.
// Links: cycle edges (p +- 1 mod d, w) and one cube edge (p, w ^ 2^p).
// Degree 3, diameter Theta(d).  For a power-of-two PE count we require d
// itself to be a power of two: n = d * 2^d.
//
// Linear order: cube words in Gray-code order; within a word the cycle is
// traversed snake-wise (alternating direction), arranged so that the cycle
// position at a word boundary is adjacent to the position that owns the
// changing Gray bit.
class CubeConnectedCycles final : public Topology {
 public:
  explicit CubeConnectedCycles(std::uint32_t dims);

  std::size_t size() const override;
  std::string name() const override;
  bool adjacent(std::size_t a, std::size_t b) const override;
  std::vector<std::size_t> neighbors(std::size_t v) const override;
  std::size_t shortest_path(std::size_t a, std::size_t b) const override;
  std::size_t diameter() const override;
  std::size_t node_of_rank(std::size_t r) const override;
  std::size_t rank_of_node(std::size_t v) const override;

  std::uint32_t dims() const { return dims_; }

  // Node encoding: v = p * 2^d + w.
  std::uint32_t cycle_pos(std::size_t v) const {
    return static_cast<std::uint32_t>(v >> dims_);
  }
  std::size_t cube_word(std::size_t v) const {
    return v & ((std::size_t{1} << dims_) - 1);
  }

 private:
  void build_order();
  void build_distances();

  std::uint32_t dims_;
  std::vector<std::size_t> rank_to_node_;
  std::vector<std::size_t> node_to_rank_;
  std::vector<std::uint16_t> dist_;  // all-pairs BFS table
  std::size_t diameter_ = 0;
};

// Shuffle-exchange network SE(d): 2^d nodes; exchange edges i <-> i ^ 1 and
// (bidirectional) shuffle edges i <-> rotl(i).  Degree 3, diameter
// Theta(log n).  Linear order: natural index order (exchange partners of
// even ranks are adjacent; other offsets route through shuffles).
class ShuffleExchange final : public Topology {
 public:
  explicit ShuffleExchange(std::uint32_t dims);

  std::size_t size() const override;
  std::string name() const override;
  bool adjacent(std::size_t a, std::size_t b) const override;
  std::vector<std::size_t> neighbors(std::size_t v) const override;
  std::size_t shortest_path(std::size_t a, std::size_t b) const override;
  std::size_t diameter() const override;
  std::size_t node_of_rank(std::size_t r) const override;
  std::size_t rank_of_node(std::size_t v) const override;

  std::uint32_t dims() const { return dims_; }
  std::size_t rotl(std::size_t v) const;
  std::size_t rotr(std::size_t v) const;

 private:
  void build_distances();

  std::uint32_t dims_;
  std::vector<std::uint16_t> dist_;
  std::size_t diameter_ = 0;
};

// Factories mirroring make_mesh_for / make_hypercube_for.  Each builds the
// smallest machine with at least n PEs, up to the simulable limits below
// (the all-pairs BFS tables grow with the square of the PE count); a
// larger n is a caller bug and aborts.
inline constexpr std::size_t kMaxCccPes = 2048;  // CCC(8): 8 * 2^8
inline constexpr std::size_t kMaxShuffleExchangePes = std::size_t{1} << 12;
std::shared_ptr<const Topology> make_ccc_for(std::size_t n);
std::shared_ptr<const Topology> make_shuffle_exchange_for(std::size_t n);

}  // namespace dyncg
