// Determinism contract of the host-parallelism layer (docs/PARALLELISM.md):
// every algorithm must produce bit-identical results — outputs, run stats,
// and every CostLedger figure — for 1, 2, and max host threads.  The loops
// under test are the per-string combines of parallel_envelope (both adaptive
// modes), the all-pairs kernels, and the ops-layer register loops they drive.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "dyncg/allpairs.hpp"
#include "envelope/parallel_envelope.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dyncg {
namespace {

unsigned max_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return std::max(4u, hw);
}

std::vector<unsigned> thread_counts() { return {1u, 2u, max_threads()}; }

PolyFamily random_family(std::uint64_t seed, std::size_t n, int max_deg) {
  Rng rng(seed);
  std::vector<Polynomial> fns;
  fns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    int deg = rng.uniform_int(1, max_deg);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-2.0, 2.0);
    fns.push_back(Polynomial(c));
  }
  return PolyFamily(std::move(fns));
}

void expect_same_cost(const CostSnapshot& a, const CostSnapshot& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.local_ops, b.local_ops);
}

void expect_same_pieces(const PiecewiseFn& a, const PiecewiseFn& b) {
  ASSERT_EQ(a.piece_count(), b.piece_count());
  for (std::size_t i = 0; i < a.pieces.size(); ++i) {
    EXPECT_EQ(a.pieces[i].id, b.pieces[i].id);
    // Exact (not approximate) equality: identical arithmetic must run
    // regardless of how iterations were partitioned across threads.
    EXPECT_EQ(a.pieces[i].iv.lo, b.pieces[i].iv.lo);
    EXPECT_EQ(a.pieces[i].iv.hi, b.pieces[i].iv.hi);
  }
}

struct EnvelopeRun {
  CostSnapshot cost;
  EnvelopeRunStats stats;
  PiecewiseFn env;
};

EnvelopeRun run_envelope(unsigned threads, bool mesh, bool adaptive,
                         bool take_min) {
  set_host_threads(threads);
  PolyFamily fam = random_family(97, 64, 2);
  Machine m = mesh ? envelope_machine_mesh(fam.size(), 2)
                   : envelope_machine_hypercube(fam.size(), 2);
  EnvelopeRun out;
  out.env = parallel_envelope(m, fam, 2, take_min, &out.stats, adaptive);
  out.cost = m.ledger().snapshot();
  return out;
}

TEST(ParallelDeterminism, EnvelopeBitIdenticalAcrossThreadCounts) {
  for (bool mesh : {true, false}) {
    for (bool adaptive : {false, true}) {
      for (bool take_min : {true, false}) {
        EnvelopeRun base = run_envelope(1, mesh, adaptive, take_min);
        for (unsigned t : thread_counts()) {
          SCOPED_TRACE(::testing::Message()
                       << (mesh ? "mesh" : "hypercube") << " adaptive="
                       << adaptive << " min=" << take_min << " threads=" << t);
          EnvelopeRun run = run_envelope(t, mesh, adaptive, take_min);
          expect_same_cost(base.cost, run.cost);
          EXPECT_EQ(base.stats.levels, run.stats.levels);
          EXPECT_EQ(base.stats.max_pieces, run.stats.max_pieces);
          expect_same_pieces(base.env, run.env);
        }
      }
    }
  }
  set_host_threads(1);
}

struct PairsRun {
  CostSnapshot cost;
  EnvelopeRunStats stats;
  PairSequence seq;
};

PairsRun run_pairs(unsigned threads, bool farthest) {
  set_host_threads(threads);
  Rng rng(11);
  MotionSystem sys = random_motion_system(rng, 8, 2, 2);
  Machine m = allpairs_machine_mesh(sys);
  PairsRun out;
  out.seq = closest_pair_sequence(m, sys, farthest, &out.stats);
  out.cost = m.ledger().snapshot();
  return out;
}

TEST(ParallelDeterminism, AllPairsKernelIdenticalAcrossThreadCounts) {
  for (bool farthest : {false, true}) {
    PairsRun base = run_pairs(1, farthest);
    for (unsigned t : thread_counts()) {
      SCOPED_TRACE(::testing::Message()
                   << "farthest=" << farthest << " threads=" << t);
      PairsRun run = run_pairs(t, farthest);
      expect_same_cost(base.cost, run.cost);
      EXPECT_EQ(base.stats.max_pieces, run.stats.max_pieces);
      ASSERT_EQ(base.seq.epochs.size(), run.seq.epochs.size());
      for (std::size_t i = 0; i < base.seq.epochs.size(); ++i) {
        EXPECT_EQ(base.seq.epochs[i].a, run.seq.epochs[i].a);
        EXPECT_EQ(base.seq.epochs[i].b, run.seq.epochs[i].b);
        EXPECT_EQ(base.seq.epochs[i].iv.lo, run.seq.epochs[i].iv.lo);
        EXPECT_EQ(base.seq.epochs[i].iv.hi, run.seq.epochs[i].iv.hi);
      }
    }
  }
  set_host_threads(1);
}

TEST(ParallelDeterminism, AllCollisionTimesIdenticalAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    set_host_threads(threads);
    Rng rng(23);
    MotionSystem sys = random_motion_system(rng, 8, 2, 2);
    Machine m = Machine::mesh_for(sys.size() * (sys.size() - 1) / 2);
    auto events = all_collision_times(m, sys);
    return std::make_pair(m.ledger().snapshot(), events);
  };
  auto [base_cost, base_events] = run(1);
  for (unsigned t : thread_counts()) {
    SCOPED_TRACE(::testing::Message() << "threads=" << t);
    auto [cost, events] = run(t);
    expect_same_cost(base_cost, cost);
    ASSERT_EQ(base_events.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(base_events[i].time, events[i].time);
      EXPECT_EQ(base_events[i].a, events[i].a);
      EXPECT_EQ(base_events[i].b, events[i].b);
    }
  }
  set_host_threads(1);
}

// The pool machinery itself: static chunking covers [0, n) exactly once and
// ordered reduction equals the serial fold.
TEST(ParallelDeterminism, ParallelForCoversEveryIndexOnce) {
  for (unsigned t : {1u, 2u, 3u, 8u}) {
    set_host_threads(t);
    const std::size_t n = 10007;  // prime, so chunks are uneven
    std::vector<int> hits(n, 0);
    parallel_for(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
  }
  set_host_threads(1);
}

// One iteration stays on the calling thread (the server's lone cache miss
// must not wait on a worker's wake-up), keeps its owner's index and still
// counts as a parallel region, so loops nested in it run serially as they
// would on a worker.
TEST(ParallelDeterminism, SingleIterationRunsOnTheCaller) {
  ThreadPool pool(3);
  std::thread::id ran_on;
  unsigned owner = 0;
  bool nested = false;
  pool.run(1, [&](std::size_t lo, std::size_t hi, unsigned w) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
    ran_on = std::this_thread::get_id();
    owner = w;
    nested = detail::in_parallel_region();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(owner, 2u);
  EXPECT_EQ(chunk_range(1, 3, owner),
            (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_TRUE(nested);
  EXPECT_FALSE(detail::in_parallel_region());
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

// Workers start at the first run that hands out two or more chunks, so a
// pool that only runs single iterations (a server answering its misses)
// adds no thread.
TEST(ParallelDeterminism, WorkersStartAtTheFirstSplitRun) {
  const std::size_t before = live_threads();
  ThreadPool pool(4);
  EXPECT_EQ(live_threads(), before);
  pool.run(1, [](std::size_t, std::size_t, unsigned) {});
  EXPECT_EQ(live_threads(), before);
  std::vector<int> hits(8, 0);
  pool.run(8, [&hits](std::size_t lo, std::size_t hi, unsigned) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(live_threads(), before + 3);
  for (int h : hits) EXPECT_EQ(h, 1);
  pool.run(8, [&hits](std::size_t lo, std::size_t hi, unsigned) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(live_threads(), before + 3);
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(ParallelDeterminism, ParallelReduceMatchesSerialFold) {
  const std::size_t n = 4099;
  auto body = [](std::uint64_t& acc, std::size_t i) {
    acc = std::max<std::uint64_t>(acc, (i * 2654435761u) % 100000);
  };
  set_host_threads(1);
  std::uint64_t serial = parallel_reduce<std::uint64_t>(
      n, 0, body, [](std::uint64_t& a, std::uint64_t b) { a = std::max(a, b); });
  for (unsigned t : {2u, 4u, 7u}) {
    set_host_threads(t);
    std::uint64_t par = parallel_reduce<std::uint64_t>(
        n, 0, body,
        [](std::uint64_t& a, std::uint64_t b) { a = std::max(a, b); });
    EXPECT_EQ(serial, par) << "threads=" << t;
  }
  set_host_threads(1);
}

}  // namespace
}  // namespace dyncg
