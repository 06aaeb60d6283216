#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "counting_allocator.hpp"
#include "machine/telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

// Tests for the live metrics registry (support/metrics.hpp): handle
// semantics, bucket edges, zero overhead when disabled, shard-merge
// determinism under the DYNCG_THREADS matrix, export formats, and the
// never-perturbs-ledgers contract — plus the FabricTelemetry JSON edge
// cases the registry's histograms mirror.

namespace dyncg {
namespace {

// Each test owns the process-wide registry state for its duration.
struct MetricsSession {
  MetricsSession() {
    metrics::reset();
    metrics::enable();
  }
  ~MetricsSession() {
    metrics::reset();
    metrics::disable();
  }
};

const metrics::HistogramSnapshot* find_histogram(
    const metrics::RegistrySnapshot& snap, const std::string& name) {
  for (const metrics::HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(Metrics, CounterAddAndIdempotentRegistration) {
  MetricsSession session;
  metrics::Counter& c = metrics::counter("test.counter.basic", "a counter",
                                         metrics::Stability::kDeterministic);
  metrics::Counter& again = metrics::counter(
      "test.counter.basic", "a counter", metrics::Stability::kDeterministic);
  EXPECT_EQ(&c, &again);
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeSetLastWins) {
  MetricsSession session;
  metrics::Gauge& g = metrics::gauge("test.gauge.basic", "a gauge",
                                     metrics::Stability::kHostNoisy);
  g.set(7);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsSession session;
  metrics::Histogram& h =
      metrics::histogram("test.hist.edges", "bucket edges",
                         metrics::Stability::kDeterministic, {1, 2, 4});
  h.observe(0);  // <= 1            -> bucket 0
  h.observe(1);  // == bound 1      -> bucket 0 (inclusive)
  h.observe(2);  // == bound 2      -> bucket 1
  h.observe(3);  // <= 4            -> bucket 2
  h.observe(4);  // == bound 4      -> bucket 2
  h.observe(5);  // past last bound -> overflow bucket 3
  metrics::RegistrySnapshot snap = metrics::snapshot();
  const metrics::HistogramSnapshot* hs = find_histogram(snap, "test.hist.edges");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->buckets.size(), 4u);
  EXPECT_EQ(hs->buckets[0], 2u);
  EXPECT_EQ(hs->buckets[1], 1u);
  EXPECT_EQ(hs->buckets[2], 2u);
  EXPECT_EQ(hs->buckets[3], 1u);
  EXPECT_EQ(hs->count, 6u);
  EXPECT_EQ(hs->sum, 0u + 1 + 2 + 3 + 4 + 5);
}

TEST(Metrics, Pow2Bounds) {
  std::vector<std::uint64_t> b = metrics::pow2_bounds(4);
  EXPECT_EQ(b, (std::vector<std::uint64_t>{1, 2, 4, 8}));
}

TEST(Metrics, DisabledRecordPathIsFreeAndAllocationless) {
  metrics::Counter& c = metrics::counter("test.counter.disabled", "off",
                                         metrics::Stability::kDeterministic);
  metrics::Histogram& h =
      metrics::histogram("test.hist.disabled", "off",
                         metrics::Stability::kDeterministic, {1, 2});
  metrics::reset();
  metrics::disable();
  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 1000; ++i) {
    c.add(3);
    h.observe(static_cast<std::uint64_t>(i));
  }
  const std::uint64_t after = test::allocations();
  EXPECT_EQ(before, after);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, ShardMergeIsExactAtAnyThreadCount) {
  MetricsSession session;
  metrics::Counter& c = metrics::counter("test.counter.merge", "merged",
                                         metrics::Stability::kDeterministic);
  metrics::Histogram& h =
      metrics::histogram("test.hist.merge", "merged",
                         metrics::Stability::kDeterministic,
                         metrics::pow2_bounds(8));
  constexpr std::size_t kItems = 4096;
  // Pool workers record into their own shards with no synchronization;
  // collection after parallel_for returns must see exact totals no matter
  // how DYNCG_THREADS split the index space.
  parallel_for(kItems, [&](std::size_t i) {
    c.add();
    h.observe(static_cast<std::uint64_t>(i % 300));
  }, 1);
  EXPECT_EQ(c.value(), kItems);
  metrics::RegistrySnapshot snap = metrics::snapshot();
  const metrics::HistogramSnapshot* hs = find_histogram(snap, "test.hist.merge");
  ASSERT_NE(hs, nullptr);
  // Serial recompute of the expected buckets.
  std::vector<std::uint64_t> want(hs->bounds.size() + 1, 0);
  std::uint64_t want_sum = 0;
  for (std::size_t i = 0; i < kItems; ++i) {
    std::uint64_t v = i % 300;
    std::size_t b = 0;
    while (b < hs->bounds.size() && v > hs->bounds[b]) ++b;
    ++want[b];
    want_sum += v;
  }
  EXPECT_EQ(hs->buckets, want);
  EXPECT_EQ(hs->count, kItems);
  EXPECT_EQ(hs->sum, want_sum);
}

TEST(Metrics, ResetZeroesEverythingButKeepsRegistrations) {
  MetricsSession session;
  metrics::Counter& c = metrics::counter("test.counter.reset", "reset",
                                         metrics::Stability::kDeterministic);
  metrics::Gauge& g = metrics::gauge("test.gauge.reset", "reset",
                                     metrics::Stability::kHostNoisy);
  c.add(5);
  g.set(9);
  metrics::reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
}

// The registry JSON's schema (docs/OBSERVABILITY.md#metrics), checked here
// where it is written: every entry of every kind names a known stability,
// names ascend strictly per kind, and each histogram's buckets are its
// bounds plus the overflow bucket and add up to its count.
TEST(Metrics, ToJsonIsSchemaValidAndSorted) {
  MetricsSession session;
  metrics::counter("test.json.b", "second", metrics::Stability::kHostNoisy)
      .add(2);
  metrics::counter("test.json.a", "first",
                   metrics::Stability::kDeterministic)
      .add(1);
  metrics::gauge("test.json.gauge", "a gauge", metrics::Stability::kHostNoisy)
      .set(-4);
  metrics::Histogram& h =
      metrics::histogram("test.json.hist", "a histogram",
                         metrics::Stability::kDeterministic, {1, 8});
  h.observe(1);
  h.observe(9);  // the overflow bucket
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(metrics::to_json(), &v, &err)) << err;
  EXPECT_EQ(v.find("schema_version")->number, 1);
  EXPECT_EQ(v.find("kind")->string, "dyncg-metrics");
  std::map<std::string, const json::Value*> seen;
  for (const char* kind : {"counters", "gauges", "histograms"}) {
    const json::Value* entries = v.find(kind);
    ASSERT_NE(entries, nullptr) << kind;
    ASSERT_TRUE(entries->is_array()) << kind;
    std::string prev;
    for (const json::Value& e : entries->array) {
      const json::Value* name = e.find("name");
      ASSERT_NE(name, nullptr) << kind;
      ASSERT_TRUE(name->is_string()) << kind;
      const std::string where = std::string(kind) + " " + name->string;
      EXPECT_LT(prev, name->string) << where;  // strictly ascending
      prev = name->string;
      seen[name->string] = &e;
      ASSERT_NE(e.find("help"), nullptr) << where;
      EXPECT_TRUE(e.find("help")->is_string()) << where;
      const json::Value* stability = e.find("stability");
      ASSERT_NE(stability, nullptr) << where;
      EXPECT_TRUE(stability->string == "deterministic" ||
                  stability->string == "host-noisy")
          << where;
      if (std::string(kind) != "histograms") {
        ASSERT_NE(e.find("value"), nullptr) << where;
        EXPECT_TRUE(e.find("value")->is_number()) << where;
        continue;
      }
      const json::Value* bounds = e.find("bounds");
      const json::Value* buckets = e.find("buckets");
      const json::Value* count = e.find("count");
      ASSERT_NE(bounds, nullptr) << where;
      ASSERT_NE(buckets, nullptr) << where;
      ASSERT_NE(count, nullptr) << where;
      ASSERT_NE(e.find("sum"), nullptr) << where;
      EXPECT_TRUE(e.find("sum")->is_number()) << where;
      EXPECT_FALSE(bounds->array.empty()) << where;
      for (std::size_t i = 0; i < bounds->array.size(); ++i) {
        EXPECT_TRUE(bounds->array[i].is_number()) << where;
        if (i > 0) {
          EXPECT_LT(bounds->array[i - 1].number, bounds->array[i].number)
              << where;
        }
      }
      EXPECT_EQ(buckets->array.size(), bounds->array.size() + 1) << where;
      double total = 0;
      for (const json::Value& b : buckets->array) {
        EXPECT_TRUE(b.is_number()) << where;
        total += b.number;
      }
      EXPECT_EQ(count->number, total) << where;
    }
  }
  ASSERT_EQ(seen.count("test.json.a"), 1u);
  EXPECT_EQ(seen["test.json.a"]->find("value")->number, 1);
  EXPECT_EQ(seen["test.json.a"]->find("stability")->string, "deterministic");
  ASSERT_EQ(seen.count("test.json.gauge"), 1u);
  EXPECT_EQ(seen["test.json.gauge"]->find("value")->number, -4);
  ASSERT_EQ(seen.count("test.json.hist"), 1u);
  EXPECT_EQ(seen["test.json.hist"]->find("count")->number, 2);
}

TEST(Metrics, PrometheusExpositionCumulatesBuckets) {
  MetricsSession session;
  metrics::Histogram& h =
      metrics::histogram("test.prom.hist", "a histogram",
                         metrics::Stability::kDeterministic, {1, 2});
  h.observe(1);
  h.observe(2);
  h.observe(9);
  std::string text = metrics::to_prometheus();
  EXPECT_NE(text.find("# TYPE dyncg_test_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP dyncg_test_prom_hist a histogram "
                      "[deterministic]"),
            std::string::npos);
  EXPECT_NE(text.find("dyncg_test_prom_hist_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dyncg_test_prom_hist_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dyncg_test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("dyncg_test_prom_hist_sum 12"), std::string::npos);
  EXPECT_NE(text.find("dyncg_test_prom_hist_count 3"), std::string::npos);
}

// The contract that lets metrics stay on in production: enabling them can
// never change a simulated figure or a response byte.
TEST(Metrics, NeverPerturbsSimulatedLedgers) {
  const std::string line =
      "{\"op\":\"neighbor\",\"scenario\":{\"seed\":1,\"n\":8,\"k\":1},"
      "\"query\":0}";
  StatusOr<serve::Request> req = serve::parse_request(line);
  ASSERT_TRUE(req.is_ok());

  metrics::reset();
  metrics::disable();
  StatusOr<serve::CachedResult> off = serve::run_query(req.value());
  ASSERT_TRUE(off.is_ok());

  metrics::enable();
  StatusOr<serve::CachedResult> on = serve::run_query(req.value());
  metrics::RegistrySnapshot snap = metrics::snapshot();
  metrics::reset();
  metrics::disable();
  ASSERT_TRUE(on.is_ok());

  EXPECT_EQ(off.value().text, on.value().text);
  EXPECT_EQ(off.value().cost.rounds, on.value().cost.rounds);
  EXPECT_EQ(off.value().cost.messages, on.value().cost.messages);
  EXPECT_EQ(off.value().cost.local_ops, on.value().cost.local_ops);

  // And the enabled run actually recorded the engine's histograms.
  const metrics::HistogramSnapshot* rounds =
      find_histogram(snap, "serve.query.rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->count, 1u);
  EXPECT_EQ(rounds->sum, on.value().cost.rounds);
}

// --- telemetry JSON edge cases (machine/telemetry.hpp) ----------------------

TEST(Telemetry, EmptyFabricTelemetryJsonParses) {
  FabricTelemetry t;
  t.reset(0);
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(t.to_json(), &v, &err)) << err;
  EXPECT_EQ(v.find("rounds")->number, 0);
  EXPECT_EQ(v.find("messages")->number, 0);
}

TEST(Telemetry, RecordRoundZeroLandsInBucketZero) {
  FabricTelemetry t;
  t.reset(0);
  t.record_round(0);
  ASSERT_GE(t.round_histogram.size(), 1u);
  EXPECT_EQ(t.round_histogram[0], 1u);
  EXPECT_EQ(t.rounds, 1u);
  EXPECT_EQ(t.messages, 0u);
}

TEST(Telemetry, RecordRoundOneLandsInBucketOne) {
  FabricTelemetry t;
  t.reset(0);
  t.record_round(1);
  ASSERT_GE(t.round_histogram.size(), 2u);
  EXPECT_EQ(t.round_histogram[0], 0u);
  EXPECT_EQ(t.round_histogram[1], 1u);
  EXPECT_EQ(t.max_in_flight, 1u);
}

}  // namespace
}  // namespace dyncg
