#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "machine/indexing.hpp"

// Interconnection topologies (Sections 2.2 and 2.3).
//
// A topology fixes the PE lattice/graph, a linear ("string") order of the
// PEs, and — crucially for the cost model — the number of synchronous rounds
// each communication pattern costs.  The ops layer expresses every algorithm
// in "hypercube normal form": full-machine exchanges between linear-order
// partners whose ranks differ in bit k (`exchange_rounds(k)`), unit shifts
// between consecutive ranks (`shift_rounds()`), and row/column sweeps.  Each
// topology charges its true price for those patterns:
//
//   hypercube, natural order  : exchange(k) = 1 hop (dimension-k link)
//   hypercube, Gray order     : exchange(k) = Hamming distance <= 2
//   mesh, shuffled row-major  : exchange(k) = 2^(k/2) hops (a uniform row or
//                               column shift, fully pipelined, one word per
//                               link per round)
//   mesh, proximity (Hilbert) : exchange(k) = max Manhattan distance of the
//                               partner pairs, Theta(2^(k/2)) by Hilbert
//                               locality
//
// The costs are not formulas but *measured*: the maximum shortest-path
// distance over all partner pairs of the pattern.  That keeps the ledger
// honest for every ordering, including deliberately bad ones used by the
// ablation benches (e.g. row-major rank shifts that cross a row boundary).
// They depend only on the graph, its size and its PE order, which name()
// encodes, so they are measured once per process per geometry: the first
// construction measures, later ones copy the result (topology.cpp).  A
// subclass's name() must therefore tell its geometries apart.
namespace dyncg {

class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::size_t size() const = 0;
  virtual std::string name() const = 0;

  // Physical graph, on node ids in [0, size).
  virtual bool adjacent(std::size_t a, std::size_t b) const = 0;
  virtual std::vector<std::size_t> neighbors(std::size_t v) const = 0;
  virtual std::size_t shortest_path(std::size_t a, std::size_t b) const = 0;
  virtual std::size_t diameter() const = 0;

  // Linear order of the PEs ("strings" of Sections 2.2/2.3).
  virtual std::size_t node_of_rank(std::size_t r) const = 0;
  virtual std::size_t rank_of_node(std::size_t v) const = 0;

  // Rounds for a full-machine exchange between ranks r and r ^ 2^k.
  unsigned exchange_rounds(unsigned k) const;
  // Rounds for a unit shift between consecutive ranks.
  unsigned shift_rounds() const;

 protected:
  // Called by subclasses after geometry is fixed; measures on the first
  // construction of name() in the process, copies afterwards.
  void compute_pattern_costs();

 private:
  std::vector<unsigned> exchange_cost_;  // per rank bit
  unsigned shift_cost_ = 1;
};

// Two-dimensional mesh of size side*side (side a power of two), Figure 1.
// Node ids are row-major lattice positions.  Ranks are decoded per call
// (mesh_rank_to_rc / mesh_rc_to_rank, O(log side)) and no per-PE table is
// kept: a fault-free query reads no rank, and the readers that do
// (shearsort, PE-down remapping, the reference ops) decode each rank once.
class MeshTopology final : public Topology {
 public:
  MeshTopology(std::uint32_t side, MeshOrder order = MeshOrder::kProximity);

  std::size_t size() const override;
  std::string name() const override;
  bool adjacent(std::size_t a, std::size_t b) const override;
  std::vector<std::size_t> neighbors(std::size_t v) const override;
  std::size_t shortest_path(std::size_t a, std::size_t b) const override;
  std::size_t diameter() const override;
  std::size_t node_of_rank(std::size_t r) const override;
  std::size_t rank_of_node(std::size_t v) const override;

  std::uint32_t side() const { return side_; }
  MeshOrder order() const { return order_; }

 private:
  std::uint32_t side_;
  MeshOrder order_;
};

// Hypercube with 2^dims PEs, Figure 3.
class HypercubeTopology final : public Topology {
 public:
  explicit HypercubeTopology(std::uint32_t dims,
                             CubeOrder order = CubeOrder::kGray);

  std::size_t size() const override;
  std::string name() const override;
  bool adjacent(std::size_t a, std::size_t b) const override;
  std::vector<std::size_t> neighbors(std::size_t v) const override;
  std::size_t shortest_path(std::size_t a, std::size_t b) const override;
  std::size_t diameter() const override;
  std::size_t node_of_rank(std::size_t r) const override;
  std::size_t rank_of_node(std::size_t v) const override;

  std::uint32_t dims() const { return dims_; }
  CubeOrder order() const { return order_; }

 private:
  std::uint32_t dims_;
  CubeOrder order_;
};

// Factories for the sizes the paper uses: a mesh of size 4^ceil(log4 n) and
// a hypercube of size 2^ceil(log2 n) (Section 3).
std::shared_ptr<const Topology> make_mesh_for(std::size_t n,
                                              MeshOrder order = MeshOrder::kProximity);
std::shared_ptr<const Topology> make_hypercube_for(std::size_t n,
                                                   CubeOrder order = CubeOrder::kGray);

}  // namespace dyncg
