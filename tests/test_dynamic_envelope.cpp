// Incremental envelope maintenance suite (docs/PERFORMANCE.md
// #incremental-envelope-maintenance).
//
// The correctness contract of DynamicEnvelope is byte-identity: after ANY
// stream of insert/erase/advance operations, the maintained envelope must
// equal the from-scratch oracle (canonical_rebuild over the live members at
// the current time) byte for byte — same snapshot bytes, same rendered
// result, same fingerprint.  The randomized-stream tests drive that
// contract across seeds, fleet sizes, and op mixes; the suite runs in the
// DYNCG_THREADS=1/4 ctest matrix (the structure is single-threaded but its
// pooled combine scratch is per-thread, so thread count must not matter).
//
// Also here: the PiecePool high-watermark guard (10k update iterations must
// not grow the pool), the crossing-memo tests (recycled slots, degree-8
// scores, a bounded memo, and the hit-rate guard that fails if the memo
// stops saving root isolations), and the amortized-ledger bound the bench
// gate pins (single-member update >= 10x cheaper in messages than a
// Theorem 3.2 rebuild at fleet size 256).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "envelope/dynamic_envelope.hpp"
#include "envelope/parallel_envelope.hpp"
#include "pieces/envelope_serial.hpp"
#include "pieces/piecewise.hpp"
#include "poly/polynomial.hpp"
#include "poly/roots.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

// Random score polynomial of degree <= 4 with small integer coefficients —
// small range on purpose, so streams exercise the score-identity aliasing
// path with realistic frequency.
Polynomial random_score(Rng& rng) {
  const int deg = static_cast<int>(rng.uniform_int(0, 4));
  std::vector<double> c(static_cast<std::size_t>(deg) + 1);
  for (double& x : c) x = static_cast<double>(rng.uniform_int(-6, 6));
  if (c.back() == 0.0) c.back() = 1.0;
  return Polynomial(std::move(c));
}

// Mirror of the live member set, the oracle's input.
using Members = std::map<std::uint64_t, Polynomial>;

std::vector<std::pair<std::uint64_t, Polynomial>> to_vector(
    const Members& m) {
  return {m.begin(), m.end()};
}

void expect_matches_oracle(DynamicEnvelope& env, const Members& live,
                           const char* where) {
  DynamicEnvelope oracle = canonical_rebuild(to_vector(live), env.now());
  EXPECT_EQ(env.snapshot(), oracle.snapshot()) << where;
  EXPECT_EQ(env.result_string(), oracle.result_string()) << where;
  EXPECT_EQ(env.state_fingerprint(), oracle.state_fingerprint()) << where;
}

// The envelope's winner at each piece midpoint must actually attain the
// minimum over the live members (semantic check, independent of the
// byte-level oracle, which shares code with the structure under test).
void expect_pointwise_minimal(DynamicEnvelope& env, const Members& live) {
  const PiecewiseFn& e = env.envelope();
  for (const Piece& pc : e.pieces) {
    const double hi = std::isinf(pc.iv.hi) ? pc.iv.lo + 1.0 : pc.iv.hi;
    const double t = 0.5 * (pc.iv.lo + hi);
    const double winner = live.at(env.external_id(pc.id))(t);
    for (const auto& [id, poly] : live) {
      EXPECT_LE(winner, poly(t) + 1e-9)
          << "member " << id << " beats the envelope at t=" << t;
    }
  }
}

// --- Randomized update streams vs the from-scratch oracle ------------------

TEST(DynamicEnvelopeStream, ByteIdenticalToOracleAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(0x5eed0000 + seed);
    DynamicEnvelope env;
    Members live;
    std::uint64_t next_id = 0;
    for (int step = 0; step < 300; ++step) {
      const std::uint64_t dice = rng.uniform_int(0, 99);
      if (dice < 50 || live.empty()) {
        Polynomial p = random_score(rng);
        const std::uint64_t id = next_id++;
        const DynamicEnvelope::InsertOutcome out = env.insert(id, p);
        ASSERT_NE(out, DynamicEnvelope::InsertOutcome::kDuplicateId);
        live.emplace(id, std::move(p));
      } else if (dice < 75) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.uniform_int(
                             0, static_cast<std::uint64_t>(live.size()) - 1)));
        ASSERT_TRUE(env.erase(it->first));
        live.erase(it);
      } else {
        ASSERT_TRUE(env.advance(env.now() + rng.uniform(0.01, 0.5)));
      }
      if (step % 10 == 9 || step == 299) {
        expect_matches_oracle(env, live,
                              ("seed " + std::to_string(seed) + " step " +
                               std::to_string(step))
                                  .c_str());
      }
    }
    expect_pointwise_minimal(env, live);
  }
}

// Long sessions: fleet-style members, each coordinate a + b(t - t0) +
// c(t - t0)^2 from its insertion time t0, scored by squared distance to the
// origin.  The scores' coefficients grow with session time (~1e7 by
// t = 40), which is where a zero test scaled by the largest coefficient
// takes |p(t)| up to ~1e-3 for a root.  Each seed runs past t = 60.
TEST(DynamicEnvelopeStream, LongSessionsMatchOracle) {
  constexpr int kUpdates = 10000;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    DynamicEnvelope env(true, 4);
    Members live;
    std::uint64_t next_id = 0;
    for (int step = 1; step <= kUpdates; ++step) {
      const double dice = rng.uniform(0, 1);
      if (dice < 0.4 || live.empty()) {
        const Polynomial dt({-env.now(), 1.0});  // t - t0
        Polynomial score;
        for (int axis = 0; axis < 2; ++axis) {
          const double a = rng.uniform(-8, 8), b = rng.uniform(-4, 4),
                       c = rng.uniform(-2, 2);
          const Polynomial x = Polynomial::constant(a) + dt * b + dt * dt * c;
          score = score + x * x;
        }
        ASSERT_NE(env.insert(next_id, score),
                  DynamicEnvelope::InsertOutcome::kDuplicateId);
        live.emplace(next_id++, std::move(score));
      } else if (dice < 0.8) {
        auto it = live.begin();
        std::advance(it, rng.uniform_int(0, static_cast<int>(live.size()) - 1));
        ASSERT_TRUE(env.erase(it->first));
        live.erase(it);
      } else {
        ASSERT_TRUE(env.advance(env.now() + rng.uniform_int(1, 4) / 64.0));
      }
      if (step % 16 != 0) continue;
      const std::string want =
          canonical_rebuild(to_vector(live), env.now()).result_string();
      ASSERT_EQ(env.result_string(), want)
          << "seed " << seed << ", update " << step << ", t = " << env.now();
    }
    EXPECT_GT(env.now(), 60.0) << "seed " << seed;
  }
}

TEST(DynamicEnvelopeStream, InsertOnlyGrowthMatchesOracleEveryStep) {
  Rng rng(1234);
  DynamicEnvelope env;
  Members live;
  for (std::uint64_t id = 0; id < 64; ++id) {
    Polynomial p = random_score(rng);
    env.insert(id, p);
    live.emplace(id, std::move(p));
    // Every step crosses several grow() boundaries (1, 2, 4, ... leaves).
    expect_matches_oracle(env, live, "insert-only growth");
  }
  expect_pointwise_minimal(env, live);
}

TEST(DynamicEnvelopeStream, DrainToEmptyAndRefill) {
  Rng rng(77);
  DynamicEnvelope env;
  Members live;
  for (std::uint64_t id = 0; id < 16; ++id) {
    Polynomial p = random_score(rng);
    env.insert(id, p);
    live.emplace(id, std::move(p));
  }
  env.advance(1.25);
  for (std::uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(env.erase(id));
    live.erase(id);
    expect_matches_oracle(env, live, "drain");
  }
  EXPECT_TRUE(env.envelope().empty());
  EXPECT_EQ(env.next_event(), kInfinity);
  for (std::uint64_t id = 100; id < 116; ++id) {
    Polynomial p = random_score(rng);
    env.insert(id, p);
    live.emplace(id, std::move(p));
  }
  expect_matches_oracle(env, live, "refill");
}

TEST(DynamicEnvelopeStream, AdvanceThroughEveryCertificateFailure) {
  Rng rng(4242);
  DynamicEnvelope env;
  Members live;
  for (std::uint64_t id = 0; id < 24; ++id) {
    Polynomial p = random_score(rng);
    env.insert(id, p);
    live.emplace(id, std::move(p));
  }
  // Walk time breakpoint by breakpoint: advancing exactly to next_event()
  // expires the leading piece (certificate failure) each round.
  for (int hop = 0; hop < 50; ++hop) {
    const double ev = env.next_event();
    if (std::isinf(ev)) break;
    ASSERT_TRUE(env.advance(ev));
    expect_matches_oracle(env, live, "certificate hop");
  }
}

// --- Update semantics ------------------------------------------------------

TEST(DynamicEnvelopeUpdates, DuplicateIdRejectedWithoutStateChange) {
  DynamicEnvelope env;
  EXPECT_EQ(env.insert(7, Polynomial({1.0, 2.0})),
            DynamicEnvelope::InsertOutcome::kInserted);
  const std::uint64_t before = env.state_fingerprint();
  const DynamicEnvelopeStats stats_before = env.stats();
  EXPECT_EQ(env.insert(7, Polynomial({3.0})),
            DynamicEnvelope::InsertOutcome::kDuplicateId);
  EXPECT_EQ(env.state_fingerprint(), before);
  EXPECT_EQ(env.stats().inserts, stats_before.inserts);
  EXPECT_EQ(env.member_count(), 1u);
}

TEST(DynamicEnvelopeUpdates, IdenticalScoresAliasToOneLeaf) {
  DynamicEnvelope env;
  EXPECT_EQ(env.insert(3, Polynomial({1.0, -1.0})),
            DynamicEnvelope::InsertOutcome::kInserted);
  const DynamicEnvelopeStats after_first = env.stats();
  EXPECT_EQ(env.insert(9, Polynomial({1.0, -1.0})),
            DynamicEnvelope::InsertOutcome::kAliased);
  // Aliasing does no tree work at all.
  EXPECT_EQ(env.stats().recombines, after_first.recombines);
  EXPECT_EQ(env.member_count(), 2u);
  // The smallest aliased id is the canonical rendered name.
  EXPECT_NE(env.result_string().find("E3"), std::string::npos);
  // Erasing the canonical alias hands the name to the survivor; the
  // envelope geometry is unchanged.
  EXPECT_TRUE(env.erase(3));
  EXPECT_EQ(env.member_count(), 1u);
  EXPECT_NE(env.result_string().find("E9"), std::string::npos);
  Members live;
  live.emplace(9, Polynomial({1.0, -1.0}));
  expect_matches_oracle(env, live, "alias survivor");
}

TEST(DynamicEnvelopeUpdates, EraseUnknownAndBackwardAdvanceRejected) {
  DynamicEnvelope env;
  env.insert(1, Polynomial({2.0}));
  EXPECT_FALSE(env.erase(99));
  ASSERT_TRUE(env.advance(2.0));
  EXPECT_FALSE(env.advance(1.0));
  EXPECT_FALSE(env.advance(std::nan("")));
  EXPECT_EQ(env.now(), 2.0);
  EXPECT_TRUE(env.advance(2.0));  // no-op advance to the same time is fine
}

TEST(DynamicEnvelopeUpdates, StatsCountEveryMutation) {
  DynamicEnvelope env;
  env.insert(1, Polynomial({0.0, 1.0}));
  env.insert(2, Polynomial({4.0, -1.0}));
  env.erase(1);
  EXPECT_EQ(env.stats().inserts, 2u);
  EXPECT_EQ(env.stats().erases, 1u);
  EXPECT_GE(env.stats().recombines, 1u);
  EXPECT_GE(env.stats().nodes_touched, env.stats().recombines);
}

// --- PiecePool high-watermark under sustained churn ------------------------

TEST(DynamicEnvelopePool, HighWatermarkBoundedOver10kUpdates) {
  Rng rng(9001);
  DynamicEnvelope env;
  Members live;
  std::uint64_t next_id = 0;
  for (std::uint64_t id = 0; id < 32; ++id) {
    Polynomial p = random_score(rng);
    env.insert(next_id, p);
    live.emplace(next_id, std::move(p));
    ++next_id;
  }
  auto churn = [&](int iterations) {
    for (int i = 0; i < iterations; ++i) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.uniform_int(
                           0, static_cast<std::uint64_t>(live.size()) - 1)));
      env.erase(it->first);
      live.erase(it);
      Polynomial p = random_score(rng);
      env.insert(next_id, p);
      live.emplace(next_id, std::move(p));
      ++next_id;
    }
  };
  // Warm up to the steady-state footprint, record the pool's free-list
  // high-watermark, then run an order of magnitude more updates: every
  // combine/trim acquires and releases in balance, so the pool must not
  // keep growing.
  churn(1000);
  const std::size_t warm = thread_piece_pool().free_pieces.size();
  churn(9000);
  const std::size_t after = thread_piece_pool().free_pieces.size();
  EXPECT_LE(after, warm + 4) << "piece pool grew under steady churn";
  expect_matches_oracle(env, live, "post-churn");
}

// --- Crossing memo ----------------------------------------------------------

TEST(DynamicEnvelopeMemo, RecycledSlotGetsFreshCrossings) {
  // t and 2 - t cross at 1, and their first combine memoizes the pair.
  // Erasing 2 - t frees slot 1; 4 - t takes it (slots are reused
  // lowest-first) and crosses t at 2.  A memo that kept the old pair would
  // split the cell at 1 and disagree with the oracle.
  DynamicEnvelope env;
  Members live;
  auto put = [&](std::uint64_t id, const Polynomial& p) {
    ASSERT_EQ(env.insert(id, p), DynamicEnvelope::InsertOutcome::kInserted);
    live.emplace(id, p);
  };
  put(10, Polynomial({0.0, 1.0}));
  put(11, Polynomial({2.0, -1.0}));
  EXPECT_EQ(env.memoized_pairs(), 1u);
  ASSERT_TRUE(env.erase(11));
  live.erase(11);
  EXPECT_EQ(env.memoized_pairs(), 0u);
  const std::uint64_t isolations = env.stats().root_isolations;
  put(12, Polynomial({4.0, -1.0}));
  EXPECT_EQ(env.external_id(1), 12u) << "the new member did not reuse slot 1";
  EXPECT_EQ(env.stats().root_isolations, isolations + 1);
  expect_matches_oracle(env, live, "recycled slot");
  EXPECT_EQ(env.result_string(),
            "min envelope of 2 at t=0: E10 on [0, 2]; E12 on [2, inf); \n");
}

// P(t) = (t - 1)(t - 2)...(t - 8): |P| exceeds 43 on every lobe between
// its roots.
const Polynomial& eight_root_poly() {
  static const Polynomial p =
      Polynomial::from_roots({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  return p;
}

// A degree-8 member c * P(t) + e: two with different c cross 8 times in
// (0.5, 8.5), since |e_a - e_b| <= 40 stays inside every lobe.
Polynomial eight_crossing_score(Rng& rng) {
  const double c = static_cast<double>(rng.uniform_int(1, 6));
  const double e = static_cast<double>(rng.uniform_int(-20, 20));
  return eight_root_poly() * c + Polynomial::constant(e);
}

// The envelope attains the live minimum on a grid over [now, hi] — denser
// than expect_pointwise_minimal, so a dropped crossing anywhere shows.
void expect_minimal_on_grid(DynamicEnvelope& env, const Members& live,
                            double hi) {
  const PiecewiseFn& e = env.envelope();
  for (double t = env.now(); t <= hi; t += 1.0 / 32.0) {
    const int slot = e.id_at(t);
    ASSERT_GE(slot, 0) << "gap at t=" << t;
    const double winner = live.at(env.external_id(slot))(t);
    for (const auto& [id, poly] : live) {
      EXPECT_LE(winner, poly(t) + 1e-9 * (1.0 + std::fabs(winner)))
          << "member " << id << " beats the envelope at t=" << t;
    }
  }
}

TEST(DynamicEnvelopeMemo, DegreeEightScoresKeepEveryCrossing) {
  const int s = 8;  // motion degree k = 4: scores of degree 2k
  // The generator's closest scales with its farthest offsets still cross
  // 8 times.
  const Polynomial& p8 = eight_root_poly();
  RootScratch scratch;
  RootFindResult rr;
  crossing_times_into(p8 + Polynomial::constant(20.0),
                      p8 * 2.0 - Polynomial::constant(20.0), 0.0, scratch, rr);
  ASSERT_EQ(rr.roots.size(), 8u);
  Rng rng(8888);
  DynamicEnvelope env(/*take_min=*/true, s);
  Members live;
  std::uint64_t next_id = 0;
  for (int step = 0; step < 240; ++step) {
    const std::uint64_t dice = rng.uniform_int(0, 99);
    if (dice < 50 || live.size() < 2) {
      Polynomial p = eight_crossing_score(rng);
      ASSERT_NE(env.insert(next_id, p),
                DynamicEnvelope::InsertOutcome::kDuplicateId);
      live.emplace(next_id++, std::move(p));
    } else if (dice < 75) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.uniform_int(
                           0, static_cast<std::uint64_t>(live.size()) - 1)));
      ASSERT_TRUE(env.erase(it->first));
      live.erase(it);
    } else {
      ASSERT_TRUE(env.advance(env.now() + rng.uniform(0.01, 0.12)));
    }
    if (step % 12 == 11) {
      const std::string where = "degree-8 step " + std::to_string(step);
      DynamicEnvelope oracle = canonical_rebuild(
          to_vector(live), env.now(), /*take_min=*/true, s);
      EXPECT_EQ(env.snapshot(), oracle.snapshot()) << where;
      expect_minimal_on_grid(env, live, 9.0);
    }
  }
}

TEST(DynamicEnvelopeMemo, BoundedUnderChurnAndEmptyWhenDrained) {
  Rng rng(4711);
  DynamicEnvelope env;
  Members live;
  std::uint64_t next_id = 0;
  for (int i = 0; i < 128; ++i) {
    Polynomial p = random_score(rng);
    env.insert(next_id, p);
    live.emplace(next_id++, std::move(p));
  }
  auto churn = [&](int iterations) {
    for (int i = 0; i < iterations; ++i) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.uniform_int(
                           0, static_cast<std::uint64_t>(live.size()) - 1)));
      env.erase(it->first);
      live.erase(it);
      Polynomial p = random_score(rng);
      env.insert(next_id, p);
      live.emplace(next_id++, std::move(p));
    }
  };
  // Pairs leave the memo with either member, so under steady churn the
  // count hovers around its warm level instead of growing with history.
  churn(1000);
  const std::size_t warm = env.memoized_pairs();
  ASSERT_GT(warm, 0u);
  churn(9000);
  EXPECT_LE(env.memoized_pairs(), warm + warm / 4)
      << "crossing memo grew under steady churn (warm " << warm << ")";
  expect_matches_oracle(env, live, "post-churn");
  for (auto it = live.begin(); it != live.end(); it = live.erase(it)) {
    ASSERT_TRUE(env.erase(it->first));
  }
  EXPECT_EQ(env.memoized_pairs(), 0u);
}

// A fleet_churn-shaped score: the squared distance to the origin of a
// degree-2 planar motion centred on its insertion time t0.
Polynomial churn_score(Rng& rng, double t0) {
  Polynomial score;
  for (int axis = 0; axis < 2; ++axis) {
    const double a = rng.uniform(-64.0, 64.0);
    const double b = rng.uniform(-8.0, 8.0);
    const double c = rng.uniform(-2.0, 2.0);
    const Polynomial x({a - b * t0 + c * t0 * t0, b - 2.0 * c * t0, c});
    score += x * x;
  }
  return score;
}

TEST(DynamicEnvelopeMemo, ChurnIsolatesRootsForAQuarterOfLookupsAtMost) {
  // The mechanism guard: a 768-member session under 500 erase-4/insert-4
  // updates asks for ~4x more crossings than it isolates.  Without the memo
  // every lookup is an isolation; the counts are exact, so a change that
  // silently defeats the memo fails here.
  Rng rng(1);
  DynamicEnvelope env(/*take_min=*/true, /*s_bound=*/4);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 0;
  for (; next_id < 768; ++next_id) {
    env.insert(next_id, churn_score(rng, 0.0));
    live.push_back(next_id);
  }
  const DynamicEnvelopeStats filled = env.stats();
  std::uint64_t ticks = 0;
  for (int update = 0; update < 500; ++update) {
    for (int j = 0; j < 4; ++j) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(live.size()) - 1));
      ASSERT_TRUE(env.erase(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    }
    const double t0 = static_cast<double>(ticks) / 65536.0;
    for (int j = 0; j < 4; ++j) {
      env.insert(next_id, churn_score(rng, t0));
      live.push_back(next_id++);
    }
    ticks += rng.uniform_int(1, 4);
    ASSERT_TRUE(env.advance(static_cast<double>(ticks) / 65536.0));
  }
  const DynamicEnvelopeStats done = env.stats();
  const std::uint64_t lookups = done.crossing_lookups - filled.crossing_lookups;
  const std::uint64_t isolations =
      done.root_isolations - filled.root_isolations;
  ASSERT_GT(lookups, 0u);
  EXPECT_LE(4 * isolations, lookups)
      << isolations << " root isolations for " << lookups << " lookups";
}

// --- Amortized ledger cost vs from-scratch rebuild -------------------------

TEST(DynamicEnvelopeLedger, UpdateTenTimesCheaperThanRebuildAt256) {
  const std::size_t n = 256;
  const int s = 4;
  Rng rng(31337);
  std::vector<Polynomial> scores;
  scores.reserve(n);
  for (std::size_t i = 0; i < n; ++i) scores.push_back(random_score(rng));

  // Rebuild comparator: Theorem 3.2 on its canonical mesh.
  Machine rebuild_m = envelope_machine_mesh(n, s);
  PolyFamily fam(scores);
  parallel_envelope(rebuild_m, fam, s);
  const CostSnapshot rebuild = rebuild_m.ledger().snapshot();

  // Incremental structure carrying the same fleet on its own machine.
  Machine update_m = envelope_machine_mesh(n, s);
  DynamicEnvelope env(true, s, &update_m);
  for (std::size_t i = 0; i < n; ++i) env.insert(i, scores[i]);
  const CostSnapshot built = update_m.ledger().snapshot();
  const int kUpdates = 64;
  for (int i = 0; i < kUpdates; ++i) {
    env.erase(static_cast<std::uint64_t>(i));
    env.insert(n + static_cast<std::uint64_t>(i), random_score(rng));
  }
  const CostSnapshot updates = update_m.ledger().snapshot() - built;
  const double per_update =
      static_cast<double>(updates.messages) / (2.0 * kUpdates);
  EXPECT_GE(static_cast<double>(rebuild.messages), 10.0 * per_update)
      << "amortized update messages " << per_update << " vs rebuild "
      << rebuild.messages;
}

}  // namespace
}  // namespace dyncg
