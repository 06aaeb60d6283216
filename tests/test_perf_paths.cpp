// Perf-path equivalence suite (docs/PERFORMANCE.md).
//
// The flat-memory rewrites — the arena-backed fabric, the pooled combine
// scratch, the root-finding scratch, and the memoized fault routing — are
// pure representation changes: every one must produce byte-identical
// results to the allocating forms it replaced, under every thread count
// (this suite is in the DYNCG_THREADS ctest matrix) and under recoverable
// fault plans.  A counting global operator new pins the "steady state
// allocates nothing" claims directly: fabric delivery, and the serving hit
// path's JSON parse and cache lookup.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "machine/fabric.hpp"
#include "machine/faults.hpp"
#include "machine/topology.hpp"
#include "pieces/piecewise.hpp"
#include "poly/roots.hpp"
#include "serve/cache.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

// --- Counting global allocator -------------------------------------------
//
// Replaces the test binary's global new/delete with malloc/free plus an
// allocation counter, so SteadyStateDeliver can assert a warmed-up fabric
// round performs zero heap allocations (and the serving tests below count
// the allocations of a parse or a lookup).  Counting is process-wide; the
// assertions only compare counts across a code region with no other
// allocation sources (no gtest expectations inside the measured window).
static std::atomic<std::uint64_t> g_allocations{0};

// GCC pairs std::free against the *default* operator new and warns; the
// replacement below allocates with std::malloc, so the pairing is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t sz) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (long r = 8; r < 64; ++r) one_round(r);
  std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
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

// --- Pooled combine: equality with the allocating forms --------------------

TEST(PerfPathsCombine, OverlayIntoMatchesOverlay) {
  Rng rng(11);
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
    std::vector<Cell> plain = overlay(f, g);
    PiecePool pool;
    overlay_into(f, g, pool);
    ASSERT_EQ(pool.cells.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(pool.cells[i].iv.lo, plain[i].iv.lo);
      EXPECT_EQ(pool.cells[i].iv.hi, plain[i].iv.hi);
      EXPECT_EQ(pool.cells[i].a, plain[i].a);
      EXPECT_EQ(pool.cells[i].b, plain[i].b);
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
    PiecewiseFn f = singleton_fn(fam, a);
    PiecewiseFn g = singleton_fn(fam, a + 1);
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

// --- Root scratch: bit-identical to the legacy allocating calls ------------

TEST(PerfPathsRoots, IntoVariantsMatchLegacy) {
  Rng rng(37);
  RootScratch scratch;
  RootFindResult got;
  for (int trial = 0; trial < 50; ++trial) {
    int deg = rng.uniform_int(1, 5);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-3.0, 3.0);
    Polynomial p(c);
    RootFindResult want = real_roots_from(p, 0.0);
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
    RootFindResult want = crossing_times(f, g, 0.0);
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
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const bool ok = json::parse(line, &v);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
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
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 16; ++i) {
    if (cache.find(hit_key) == nullptr || cache.find(miss_key) != nullptr) {
      std::abort();
    }
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "cache lookups allocated";
}

}  // namespace
}  // namespace dyncg
