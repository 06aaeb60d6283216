// Perf-path equivalence suite (docs/PERFORMANCE.md).
//
// The flat-memory rewrites — the arena-backed fabric, the pooled combine
// scratch, the root-finding scratch, and the memoized fault routing — are
// pure representation changes: every one must produce byte-identical
// results to the allocating forms it replaced, under every thread count
// (this suite is in the DYNCG_THREADS ctest matrix) and under recoverable
// fault plans.  The counting global allocator (counting_allocator.hpp) pins
// the "steady state allocates nothing" claims directly: fabric delivery, and
// the serving hit path's JSON parse and cache lookup.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "counting_allocator.hpp"
#include "dyncg/motion.hpp"
#include "machine/fabric.hpp"
#include "machine/faults.hpp"
#include "machine/topology.hpp"
#include "pieces/piecewise.hpp"
#include "poly/roots.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "steady/machine_geometry.hpp"
#include "support/status.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

// --- Arena fabric: byte identity ------------------------------------------

// The reference patterns run hop by hop through the arena fabric; a faulted
// run must deliver byte-identical values to the fault-free run (at a higher
// round count) — the reroute/retry machinery may delay words, never reorder
// or lose them.
TEST(PerfPathsFabric, FaultedExchangeMatchesFaultFree) {
  MeshTopology mesh(4);
  FaultPlan plan = FaultPlan::parse("link:0-1@0..,drop:2-3@1").value();
  for (unsigned k = 0; k < 4; ++k) {
    std::vector<long> clean(mesh.size()), faulted(mesh.size());
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      clean[i] = faulted[i] = static_cast<long>(100 * k + i);
    }
    std::uint64_t clean_rounds =
        fabric_reference::exchange_offset(mesh, k, clean);
    std::uint64_t fault_rounds =
        fabric_reference::exchange_offset(mesh, k, faulted, &plan);
    EXPECT_EQ(clean, faulted) << "offset 2^" << k;
    EXPECT_GE(fault_rounds, clean_rounds);
  }
}

TEST(PerfPathsFabric, FaultedShiftMatchesFaultFree) {
  HypercubeTopology cube(4);
  FaultPlan plan = FaultPlan::single_link_down(0, 1);
  std::vector<long> clean(cube.size()), faulted(cube.size());
  for (std::size_t i = 0; i < cube.size(); ++i) {
    clean[i] = faulted[i] = static_cast<long>(7 * i + 1);
  }
  fabric_reference::shift_up(cube, clean, -5);
  fabric_reference::shift_up(cube, faulted, -5, &plan);
  EXPECT_EQ(clean, faulted);
}

// Inbox contract the arena layout must preserve from the per-PE-vector
// layout it replaced: messages arrive grouped by source in ascending source
// id, FIFO within a source, and the view's iterator/front/operator[] agree.
TEST(PerfPathsFabric, InboxOrderSourceAscendingFifo) {
  MeshTopology mesh(4);  // 4x4; node 5 has neighbors 1, 4, 6, 9
  Fabric<long> fab(mesh);
  // Stage in deliberately descending source order; delivery must not care.
  fab.send(9, 5, 90);
  fab.send(6, 5, 60);
  fab.send(4, 5, 40);
  fab.send(1, 5, 10);
  fab.deliver();
  InboxView<long> box = fab.inbox(5);
  ASSERT_EQ(box.size(), 4u);
  std::vector<long> got(box.begin(), box.end());
  EXPECT_EQ(got, (std::vector<long>{10, 40, 60, 90}));
  EXPECT_EQ(box.front(), 10);
  for (std::size_t i = 0; i < box.size(); ++i) EXPECT_EQ(box[i], got[i]);
  // Next round: stale chains must not resurface.
  fab.send(4, 5, 41);
  fab.deliver();
  ASSERT_EQ(fab.inbox(5).size(), 1u);
  EXPECT_EQ(fab.inbox(5).front(), 41);
  EXPECT_TRUE(fab.inbox(1).empty());
  EXPECT_TRUE(fab.idle());
}

// The headline claim of the arena rewrite: once warmed up, a round of
// steady traffic — send, deliver, inbox reads, including the cached-detour
// path for a permanently downed link — performs zero heap allocations.
TEST(PerfPathsFabric, SteadyStateDeliverAllocatesNothing) {
  MeshTopology mesh(16);
  FaultPlan plan = FaultPlan::single_link_down(0, 1);
  Fabric<long> fab(mesh);
  fab.set_fault_plan(&plan);
  auto one_round = [&](long r) {
    fab.send(0, 1, r);          // downed link: cached detour + pooled path
    // Healthy sparse traffic on rows 2..8 — clear of the 0->16->17->1
    // detour, so relay packets never contend with it.
    for (std::size_t w = 2; w < 9; ++w) {
      std::size_t v = w * 16;
      fab.send(v, v + 1, r + static_cast<long>(w));
    }
    fab.deliver();
    for (std::size_t w = 2; w < 9; ++w) {
      if (fab.inbox(w * 16 + 1).empty()) std::abort();
    }
  };
  for (long r = 0; r < 8; ++r) one_round(r);  // warm up arenas and pools
  std::uint64_t before = test::allocations();
  for (long r = 8; r < 64; ++r) one_round(r);
  std::uint64_t after = test::allocations();
  EXPECT_EQ(after, before) << "steady-state rounds allocated";
  while (!fab.idle()) fab.deliver();
}

// --- Route cache: pure memoization ----------------------------------------

TEST(PerfPathsRouteCache, MatchesRouteAvoidingAcrossEpochs) {
  MeshTopology mesh(4);
  // Two disjoint windows around the 0-1 link plus an unrelated drop (drops
  // must not affect routing epochs).
  FaultPlan plan =
      FaultPlan::parse("link:0-1@0..9,link:1-2@20..29,drop:5-6@4").value();
  RouteCache cache(&plan);
  for (std::uint64_t round : {0ull, 5ull, 9ull, 10ull, 15ull, 20ull, 25ull,
                              30ull, 100ull}) {
    for (auto [from, to] : {std::pair<std::size_t, std::size_t>{0, 1},
                            {1, 2}, {2, 3}, {0, 3}}) {
      EXPECT_EQ(cache.route(mesh, from, to, round),
                route_avoiding(mesh, plan, from, to, round))
          << "round " << round << " " << from << "->" << to;
    }
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  // Rounds inside one window share an epoch; crossing a boundary changes it.
  EXPECT_EQ(cache.epoch_of(0), cache.epoch_of(9));
  EXPECT_NE(cache.epoch_of(9), cache.epoch_of(10));
  EXPECT_EQ(cache.epoch_of(10), cache.epoch_of(19));
  // The drop event contributes no boundary: 4 and 5 share the 0..9 epoch.
  EXPECT_EQ(cache.epoch_of(4), cache.epoch_of(5));
}

TEST(PerfPathsRouteCache, RepeatLookupIsAHit) {
  MeshTopology mesh(4);
  FaultPlan plan = FaultPlan::single_link_down(0, 1);
  RouteCache cache(&plan);
  std::vector<std::size_t> first = cache.route(mesh, 0, 1, 3);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.route(mesh, 0, 1, 7), first);  // same epoch: hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// --- Pooled combine: a recycled pool matches a fresh one --------------------

// One pool reused across every trial must refine exactly as a fresh pool.
TEST(PerfPathsCombine, OverlayIntoMatchesOverlay) {
  Rng rng(11);
  PiecePool warm;
  for (int trial = 0; trial < 20; ++trial) {
    PiecewiseFn f, g;
    double t = 0;
    for (int i = 0; i < 5; ++i) {
      double hi = t + rng.uniform(0.1, 2.0);
      f.pieces.push_back(Piece{Interval{t, hi}, i});
      t = hi + (trial % 2 == 0 ? 0.0 : rng.uniform(0.0, 0.5));
    }
    t = rng.uniform(0.0, 1.0);
    for (int i = 0; i < 4; ++i) {
      double hi = t + rng.uniform(0.1, 2.5);
      g.pieces.push_back(Piece{Interval{t, hi}, 10 + i});
      t = hi;
    }
    PiecePool fresh;
    overlay_into(f, g, fresh);
    overlay_into(f, g, warm);
    const std::vector<Cell>& want = fresh.cells;
    ASSERT_EQ(warm.cells.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(warm.cells[i].iv.lo, want[i].iv.lo);
      EXPECT_EQ(warm.cells[i].iv.hi, want[i].iv.hi);
      EXPECT_EQ(warm.cells[i].a, want[i].a);
      EXPECT_EQ(warm.cells[i].b, want[i].b);
    }
  }
}

// A warmed, recycled pool must combine bit-identically to a fresh pool on
// every pair of a random family (the parallel envelope reuses one pool per
// worker across all levels).
TEST(PerfPathsCombine, WarmPoolMatchesFreshPool) {
  Rng rng(23);
  std::vector<Polynomial> members;
  for (int i = 0; i < 12; ++i) {
    int deg = rng.uniform_int(1, 2);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-2.0, 2.0);
    members.push_back(Polynomial(c));
  }
  PolyFamily fam(std::move(members));
  PiecePool warm;
  for (int a = 0; a + 1 < static_cast<int>(fam.size()); a += 2) {
    PiecewiseFn f, g;
    singleton_into(fam, a, f);
    singleton_into(fam, a + 1, g);
    for (bool take_min : {true, false}) {
      PiecePool fresh;
      PiecewiseFn from_fresh, from_warm;
      combine_extremum_into(fam, f, g, take_min, fresh, from_fresh);
      combine_extremum_into(fam, f, g, take_min, warm, from_warm);
      ASSERT_EQ(from_warm.piece_count(), from_fresh.piece_count());
      for (std::size_t i = 0; i < from_fresh.pieces.size(); ++i) {
        EXPECT_EQ(from_warm.pieces[i].id, from_fresh.pieces[i].id);
        EXPECT_EQ(from_warm.pieces[i].iv.lo, from_fresh.pieces[i].iv.lo);
        EXPECT_EQ(from_warm.pieces[i].iv.hi, from_fresh.pieces[i].iv.hi);
      }
    }
  }
}

// --- Root scratch: a reused scratch is bit-identical to a fresh one ---------

TEST(PerfPathsRoots, IntoVariantsMatchLegacy) {
  Rng rng(37);
  RootScratch scratch;
  RootFindResult got;
  for (int trial = 0; trial < 50; ++trial) {
    int deg = rng.uniform_int(1, 5);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-3.0, 3.0);
    Polynomial p(c);
    RootScratch fresh;
    RootFindResult want;
    real_roots_from_into(p, 0.0, fresh, want);
    real_roots_from_into(p, 0.0, scratch, got);  // scratch reused throughout
    EXPECT_EQ(got.identically_zero, want.identically_zero);
    ASSERT_EQ(got.roots.size(), want.roots.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.roots.size(); ++i) {
      EXPECT_EQ(got.roots[i], want.roots[i]) << "trial " << trial;
    }
  }
}

TEST(PerfPathsRoots, CrossingTimesIntoMatchesLegacy) {
  Rng rng(41);
  RootScratch scratch;
  RootFindResult got;
  for (int trial = 0; trial < 50; ++trial) {
    auto rand_poly = [&] {
      int deg = rng.uniform_int(1, 3);
      std::vector<double> c(static_cast<std::size_t>(deg) + 1);
      for (double& x : c) x = rng.uniform(-2.0, 2.0);
      return Polynomial(c);
    };
    Polynomial f = rand_poly(), g = rand_poly();
    RootScratch fresh;
    RootFindResult want;
    crossing_times_into(f, g, 0.0, fresh, want);
    crossing_times_into(f, g, 0.0, scratch, got);
    EXPECT_EQ(got.identically_zero, want.identically_zero);
    ASSERT_EQ(got.roots.size(), want.roots.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.roots.size(); ++i) {
      EXPECT_EQ(got.roots[i], want.roots[i]) << "trial " << trial;
    }
  }
}

// --- Serving hit path: allocation counts ------------------------------------

// An inline-scenario request line of 64 points in 2-D with cubic
// coordinates.  With `rng` every number is a 17-significant-digit literal
// ("%.16e", 22+ characters); without it every number is 0.
std::string inline_scenario_line(Rng* rng) {
  auto number = [&] {
    if (rng == nullptr) return std::string("0");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.16e", rng->uniform(-100.0, 100.0));
    return std::string(buf);
  };
  std::string line = "{\"op\":\"neighbor\",\"scenario\":{\"points\":[";
  for (int p = 0; p < 64; ++p) {
    line += p == 0 ? "[" : ",[";
    for (int c = 0; c < 2; ++c) {
      line += c == 0 ? "[" : ",[";
      for (int i = 0; i < 4; ++i) {
        if (i != 0) line += ',';
        line += number();
      }
      line += ']';
    }
    line += ']';
  }
  line += "],\"d\":" + number() + "}}";
  return line;
}

std::uint64_t allocations_to_parse(const std::string& line) {
  json::Value v;
  const std::uint64_t before = test::allocations();
  const bool ok = json::parse(line, &v);
  const std::uint64_t after = test::allocations();
  if (!ok) std::abort();
  return after - before;
}

// Numbers convert straight from the line's bytes: the only allocations are
// the DOM's own nodes, so long literals cost no more than "0".
TEST(PerfPathsServe, JsonNumbersAllocateNothing) {
  Rng rng(5);
  const std::string digits = inline_scenario_line(&rng);
  const std::string zeros = inline_scenario_line(nullptr);
  EXPECT_EQ(allocations_to_parse(digits), allocations_to_parse(zeros));
  EXPECT_GT(allocations_to_parse(zeros), 0u);  // arrays do allocate
}

// A request line shaped like servebench's hot_repeat pool: `points` 2-D
// points with quadratic coordinates, every coefficient a
// 17-significant-digit literal, on the hypercube with a query index.
std::string inline_request_line(std::size_t points, Rng* rng) {
  std::string line = "{\"op\":\"neighbor\",\"scenario\":{\"points\":[";
  char buf[40];
  for (std::size_t p = 0; p < points; ++p) {
    line += p == 0 ? "[" : ",[";
    for (int c = 0; c < 2; ++c) {
      line += c == 0 ? "[" : ",[";
      for (int i = 0; i < 3; ++i) {
        std::snprintf(buf, sizeof buf, "%s%.16e", i == 0 ? "" : ",",
                      rng->uniform(-2.0, 2.0));
        line += buf;
      }
      line += ']';
    }
    line += ']';
  }
  line += "],\"d\":2},\"machine\":\"hypercube\",\"query\":3}";
  return line;
}

std::uint64_t allocations_to_read(const std::string& line) {
  const std::uint64_t before = test::allocations();
  const StatusOr<serve::Request> r = serve::read_request(line);
  const std::uint64_t after = test::allocations();
  if (!r.is_ok()) std::abort();
  return after - before;
}

// What a cache hit costs to read: its points go straight from the line
// into the key, with no DOM node or Trajectory per point, so a read
// allocates the same for 8 points as for 200 (the key, once).
TEST(PerfPathsServe, ReadRequestAllocatesTheSameAtAnySize) {
  Rng rng(11);
  const std::string small = inline_request_line(8, &rng);
  const std::string large = inline_request_line(200, &rng);
  // Warm up: the thread's buffer for inline points grows to the large
  // line's size once.
  if (!serve::read_request(large).is_ok()) std::abort();
  const std::uint64_t reads_small = allocations_to_read(small);
  const std::uint64_t reads_large = allocations_to_read(large);
  EXPECT_EQ(reads_small, reads_large);
  EXPECT_LE(reads_large, 2u);
}

// A hit's response appends every field into one buffer, reserved once for
// the result's size: the key's hex digits, the cost object and the escaped
// strings are written in place, and the line is moved out, not copied.
TEST(PerfPathsServe, RenderResultAllocatesAtMostTwice) {
  Rng rng(13);
  for (std::size_t points : {8, 40, 120}) {
    const StatusOr<serve::Request> req =
        serve::parse_request(inline_request_line(points, &rng));
    ASSERT_TRUE(req.is_ok());
    const StatusOr<serve::CachedResult> r = serve::run_query(req.value());
    ASSERT_TRUE(r.is_ok());
    const serve::Request& q = req.value();
    const std::string first =
        serve::render_result("7", q.op, r.value(), true, q.fingerprint);
    const std::uint64_t before = test::allocations();
    const std::string line =
        serve::render_result("7", q.op, r.value(), true, q.fingerprint);
    const std::uint64_t allocs = test::allocations() - before;
    EXPECT_EQ(line, first);
    EXPECT_LE(allocs, 2u) << points << " points, " << line.size() << " bytes";
  }
}

// A lookup, hit or miss, hashes and compares the key in place.
TEST(PerfPathsServe, CacheFindAllocatesNothing) {
  serve::ResultCache cache(4);
  const std::string hit_key(8192, 'h');
  const std::string miss_key(8192, 'm');
  cache.insert(hit_key, serve::CachedResult{"answer", {}, "mesh", 16});
  // Warm up: the first lookups register the cache's metrics.
  if (cache.find(hit_key) == nullptr || cache.find(miss_key) != nullptr) {
    std::abort();
  }
  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 16; ++i) {
    if (cache.find(hit_key) == nullptr || cache.find(miss_key) != nullptr) {
      std::abort();
    }
  }
  const std::uint64_t after = test::allocations();
  EXPECT_EQ(after, before) << "cache lookups allocated";
}

// An entry holds its key once: inserting a 64 KiB key allocates the key's
// bytes for the map node's copy and nothing of that size again for the
// eviction order, with and without an eviction.
TEST(PerfPathsServe, CacheInsertStoresTheKeyOnce) {
  serve::ResultCache cache(4);
  // Warm up: metrics registration, the bucket array, the FIFO's first block.
  for (char c : {'a', 'b', 'c'}) cache.insert(std::string(64, c), {});
  for (const char* fill : {"x", "y"}) {  // fills the cache, then evicts
    const std::string key = fill + std::string(64 * 1024, 'k');
    serve::CachedResult value{"answer", {}, "mesh", 16};
    const std::uint64_t before = test::allocated_bytes();
    cache.insert(key, std::move(value));
    const std::uint64_t bytes = test::allocated_bytes() - before;
    EXPECT_GE(bytes, key.size()) << fill;
    EXPECT_LT(bytes, key.size() + 4096) << fill << ": key stored twice";
  }
  EXPECT_EQ(cache.counters().evictions, 1u);
}

// --- Steady hull: germ work ------------------------------------------------

// The steady hull and farthest pair of one served n = 256 system (the
// protocol's generator, seed 408597231799, k = 2, mesh): the combines
// decide cells by the side of the crossing, germ comparisons take their
// sign on the stack, and the antipodal grouping copies no key.  Measured
// at 36,120 allocations (the midpoint-evaluation version made 238,221);
// the bound allows 25% for library drift.
TEST(PerfPathsSteady, HullAndFarthestPairAllocationBound) {
  constexpr std::uint64_t kMeasured = 36120;
  Rng rng(408597231799ULL);
  const MotionSystem sys = diverging_motion_system(rng, 256, 2);
  Machine m = Machine::mesh_for(sys.size());
  const std::uint64_t before = test::allocations();
  const std::vector<Point2<RationalGerm>> hull = machine_steady_hull(m, sys);
  const ClosestPairResult<AsymptoticPoly> far =
      machine_steady_farthest_pair(m, sys, hull);
  const std::uint64_t allocs = test::allocations() - before;
  std::printf("steady hull + farthest pair, n = 256: %llu allocations\n",
              static_cast<unsigned long long>(allocs));
  EXPECT_LE(allocs, kMeasured + kMeasured / 4);
  EXPECT_NE(far.a, far.b);
}

}  // namespace
}  // namespace dyncg
