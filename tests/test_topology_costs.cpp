#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "counting_allocator.hpp"
#include "machine/indexing.hpp"
#include "machine/other_topologies.hpp"
#include "machine/topology.hpp"
#include "support/ackermann.hpp"

// Pattern costs are measured once per process per geometry and copied on
// every later construction (machine/topology.hpp).  These tests check the
// copies against costs measured here from the public graph, on the first
// construction and a second one, from racing threads, and for every
// geometry the four factories can build.  Registered in the
// DYNCG_THREADS={1,4} matrix and the tsan preset.
//
// The first test must stay first in this file: when the whole binary runs
// in one process, it is the one that meets every geometry unmeasured.
namespace dyncg {
namespace {

struct Geometry {
  std::string graph;  // the PE graph, shared by its orders
  std::function<std::shared_ptr<const Topology>()> build;
};

// Every geometry the factories build for n up to 65,536: meshes of side
// 1-256 in four orders, hypercubes of dimension 0-16 in two, CCC(2, 4, 8)
// and shuffle-exchange SE(1-12).  Orders of one graph are adjacent.
std::vector<Geometry> factory_geometries() {
  std::vector<Geometry> out;
  for (std::size_t side = 1; side <= 256; side *= 2) {
    for (MeshOrder order : {MeshOrder::kProximity, MeshOrder::kRowMajor,
                            MeshOrder::kShuffledRowMajor, MeshOrder::kSnake}) {
      out.push_back({"mesh-" + std::to_string(side), [side, order] {
                       return make_mesh_for(side * side, order);
                     }});
    }
  }
  for (std::size_t dims = 0; dims <= 16; ++dims) {
    for (CubeOrder order : {CubeOrder::kGray, CubeOrder::kNatural}) {
      out.push_back({"hypercube-" + std::to_string(dims), [dims, order] {
                       return make_hypercube_for(std::size_t{1} << dims, order);
                     }});
    }
  }
  for (std::size_t dims : {2, 4, 8}) {
    out.push_back({"ccc-" + std::to_string(dims),
                   [dims] { return make_ccc_for(dims << dims); }});
  }
  for (std::size_t dims = 1; dims <= 12; ++dims) {
    out.push_back({"shuffle-" + std::to_string(dims), [dims] {
                     return make_shuffle_exchange_for(std::size_t{1} << dims);
                   }});
  }
  return out;
}

struct Costs {
  std::vector<unsigned> exchange;  // per rank bit
  unsigned shift = 0;
  bool operator==(const Costs&) const = default;
};

// What the topology charges.
Costs charged(const Topology& t) {
  Costs c;
  for (int k = 0; k < floor_log2(t.size()); ++k) {
    c.exchange.push_back(t.exchange_rounds(static_cast<unsigned>(k)));
  }
  c.shift = t.shift_rounds();
  return c;
}

// The pattern prices by definition: the longest shortest path between
// partner ranks (at least one round for a shift).
Costs measured(const Topology& t) {
  const std::size_t n = t.size();
  Costs c;
  for (std::size_t bit = 1; bit < n; bit <<= 1) {
    std::size_t worst = 0;
    for (std::size_t r = 0; r < n; ++r) {
      worst = std::max(worst, t.shortest_path(t.node_of_rank(r),
                                              t.node_of_rank(r ^ bit)));
    }
    c.exchange.push_back(static_cast<unsigned>(worst));
  }
  std::size_t worst = 1;
  for (std::size_t r = 0; r + 1 < n; ++r) {
    worst = std::max(worst, t.shortest_path(t.node_of_rank(r),
                                            t.node_of_rank(r + 1)));
  }
  c.shift = static_cast<unsigned>(worst);
  return c;
}

TEST(TopologyCosts, FirstAndSecondConstructionMatchMeasuredCosts) {
  for (const Geometry& g : factory_geometries()) {
    std::shared_ptr<const Topology> first = g.build();
    SCOPED_TRACE(first->name());
    const Costs want = measured(*first);
    EXPECT_EQ(charged(*first), want);
    first.reset();
    std::shared_ptr<const Topology> second = g.build();
    EXPECT_EQ(charged(*second), want);
  }
}

TEST(TopologyCosts, ConcurrentBuildsAgree) {
  // Small enough that four threads hold their machines at once: the
  // all-pairs tables of SE(11, 12) are 8 and 32 MiB each.
  std::vector<Geometry> geoms;
  for (Geometry& g : factory_geometries()) {
    if (g.graph != "shuffle-11" && g.graph != "shuffle-12") {
      geoms.push_back(std::move(g));
    }
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Costs>> got(kThreads,
                                      std::vector<Costs>(geoms.size()));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Threads 0 and 1 walk the list in the same order, so they race on
      // each geometry; threads 2 and 3 start elsewhere and build different
      // ones at the same moment.
      const std::size_t offset = t < 2 ? 0 : t * geoms.size() / kThreads;
      for (std::size_t i = 0; i < geoms.size(); ++i) {
        const std::size_t j = (i + offset) % geoms.size();
        got[t][j] = charged(*geoms[j].build());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t j = 0; j < geoms.size(); ++j) {
    std::shared_ptr<const Topology> topo = geoms[j].build();
    SCOPED_TRACE(topo->name());
    const Costs want = measured(*topo);
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t][j], want) << "thread " << t;
    }
  }
}

// Every factory geometry is connected and prices each pattern within its
// diameter.  Paths are checked between all pairs up to 4,096 PEs (every CCC
// and shuffle-exchange, whose paths come from BFS tables) and from four
// sources on the larger closed-form meshes and hypercubes.
TEST(TopologyCosts, PatternsFitTheDiameterOfAConnectedGraph) {
  std::string last_graph;
  for (const Geometry& g : factory_geometries()) {
    std::shared_ptr<const Topology> topo = g.build();
    const Topology& t = *topo;
    SCOPED_TRACE(t.name());
    const std::size_t n = t.size();
    for (int k = 0; k < floor_log2(n); ++k) {
      EXPECT_LE(t.exchange_rounds(static_cast<unsigned>(k)), t.diameter())
          << "bit " << k;
    }
    if (n > 1) {
      EXPECT_LE(t.shift_rounds(), t.diameter());
    }
    if (g.graph == last_graph) continue;  // another order of the same graph
    last_graph = g.graph;
    EXPECT_LT(t.diameter(), n);
    std::vector<std::size_t> sources;
    if (n <= 4096) {
      for (std::size_t a = 0; a < n; ++a) sources.push_back(a);
    } else {
      sources = {0, 1, n / 2, n - 1};
    }
    std::size_t far = 0;
    for (std::size_t a : sources) {
      for (std::size_t b = 0; b < n; ++b) {
        far = std::max({far, t.shortest_path(a, b), t.shortest_path(b, a)});
      }
    }
    EXPECT_LE(far, t.diameter());
  }
}

// A mesh decodes its PE order per call.  For every order and side, rank
// and node are inverse bijections, and a rank's node is its lattice
// position from mesh_rank_to_rc in row-major node ids.
TEST(TopologyCosts, MeshRanksDecodeToTheirLatticePositions) {
  for (std::uint32_t side = 1; side <= 256; side *= 2) {
    for (MeshOrder order : {MeshOrder::kProximity, MeshOrder::kRowMajor,
                            MeshOrder::kShuffledRowMajor, MeshOrder::kSnake}) {
      const MeshTopology mesh(side, order);
      SCOPED_TRACE(mesh.name());
      const std::size_t n = mesh.size();
      std::vector<char> seen(n, 0);
      std::size_t wrong = 0;
      for (std::size_t r = 0; r < n; ++r) {
        const RowCol rc = mesh_rank_to_rc(order, side, r);
        const std::size_t node = mesh.node_of_rank(r);
        if (node != static_cast<std::size_t>(rc.row) * side + rc.col ||
            node >= n || seen[node] || mesh.rank_of_node(node) != r) {
          ++wrong;
          continue;
        }
        seen[node] = 1;
      }
      EXPECT_EQ(wrong, 0u);
    }
  }
}

// Once a geometry's costs are in the table, a mesh build allocates its
// object, its name and its per-bit costs, whatever its size: no per-PE
// table (two 8-byte rank maps were 1 MiB at 256 x 256).
TEST(TopologyCosts, LaterMeshBuildAllocatesNoPerPeTable) {
  make_mesh_for(65536);  // measures the geometry unless already measured
  const std::uint64_t before = test::allocated_bytes();
  std::shared_ptr<const Topology> mesh = make_mesh_for(65536);
  const std::uint64_t bytes = test::allocated_bytes() - before;
  EXPECT_EQ(mesh->size(), 65536u);
  EXPECT_LT(bytes, 1024u);
}

// The 8-PE CCC is an 8-cycle, not four disconnected 2-cycles: each node
// keeps its cycle partner and its cube edge.
TEST(TopologyCosts, SmallestCccKeepsItsCubeEdges) {
  CubeConnectedCycles ccc(2);
  for (std::size_t v = 0; v < ccc.size(); ++v) {
    const std::vector<std::size_t> nb = ccc.neighbors(v);
    ASSERT_EQ(nb.size(), 2u) << v;
    EXPECT_EQ(ccc.cycle_pos(nb[0]), 1 - ccc.cycle_pos(v)) << v;
    EXPECT_EQ(ccc.cube_word(nb[0]), ccc.cube_word(v)) << v;
    EXPECT_EQ(ccc.cycle_pos(nb[1]), ccc.cycle_pos(v)) << v;
    EXPECT_EQ(ccc.cube_word(nb[1]),
              ccc.cube_word(v) ^ (std::size_t{1} << ccc.cycle_pos(v)))
        << v;
  }
  EXPECT_EQ(ccc.diameter(), 4u);
  EXPECT_EQ(ccc.shift_rounds(), 3u);
}

}  // namespace
}  // namespace dyncg
