#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "envelope/scenario_key.hpp"
#include "pieces/interval.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "support/status.hpp"

// Protocol tests for the serving layer (docs/SERVING.md): parse/validate
// round-trips, canonical cache keys, FIFO cache counter semantics, and
// engine determinism.  Registered in the DYNCG_THREADS={1,4} matrix — the
// determinism assertions must hold at every thread count.
namespace dyncg {
namespace serve {
namespace {

StatusOr<Request> parse(const std::string& line) { return parse_request(line); }

// --- parse round-trips -------------------------------------------------------

TEST(ServeParse, GeneratorScenarioWithDefaults) {
  StatusOr<Request> r = parse("{\"op\":\"neighbor\",\"scenario\":{}}");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  // Defaults mirror dyncg_cli: seed=1 n=8 d=2 k=2.
  EXPECT_EQ(r.value().system->size(), 8u);
  EXPECT_EQ(r.value().system->dimension(), 2u);
  EXPECT_EQ(r.value().machine, "mesh");
  EXPECT_EQ(r.value().query, 0u);
  EXPECT_FALSE(r.value().key.empty());
}

TEST(ServeParse, GeneratorMatchesCliDefaults) {
  // The empty generator and the spelled-out CLI defaults key identically.
  Request a = parse("{\"op\":\"neighbor\",\"scenario\":{}}").value();
  Request b =
      parse("{\"op\":\"neighbor\",\"scenario\":"
            "{\"seed\":1,\"n\":8,\"d\":2,\"k\":2}}")
          .value();
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(ServeParse, InlineScenario) {
  // Each point is an array of coordinate polynomials (constant term first).
  StatusOr<Request> r = parse(
      "{\"op\":\"collisions\",\"scenario\":{\"points\":"
      "[[[1,0],[2,1]],[[0,1],[1,0]]],\"d\":2},\"query\":1}");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().system->size(), 2u);
  EXPECT_EQ(r.value().query, 1u);
}

TEST(ServeParse, InlineAndGeneratorKeyOnBits) {
  // A generator scenario and an inline scenario with the same coefficients
  // produce the same canonical key: keys come from the materialized system,
  // never from the surface form.
  Request gen =
      parse("{\"op\":\"neighbor\",\"scenario\":{\"seed\":3,\"n\":4,\"k\":1}}")
          .value();
  std::string inline_req = "{\"op\":\"neighbor\",\"scenario\":{\"points\":[";
  const MotionSystem& sys = *gen.system;
  for (std::size_t p = 0; p < sys.size(); ++p) {
    if (p > 0) inline_req += ',';
    inline_req += '[';
    for (std::size_t c = 0; c < sys.dimension(); ++c) {
      if (c > 0) inline_req += ',';
      inline_req += '[';
      const Polynomial& poly = sys.point(p).coordinate(c);
      // Emit exactly the stored coefficients ([0] for the zero polynomial):
      // Polynomial trims trailing zeros, so padding would round-trip anyway.
      for (int i = 0; i <= std::max(poly.degree(), 0); ++i) {
        if (i > 0) inline_req += ',';
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", poly.coefficient(i));
        inline_req += buf;
      }
      inline_req += ']';
    }
    inline_req += ']';
  }
  inline_req += "],\"d\":2}}";
  StatusOr<Request> inl = parse(inline_req);
  ASSERT_TRUE(inl.is_ok()) << inl.status().to_string();
  EXPECT_EQ(inl.value().key, gen.key);
  EXPECT_EQ(inl.value().fingerprint, gen.fingerprint);
}

TEST(ServeParse, IdEchoForms) {
  EXPECT_EQ(parse("{\"op\":\"ping\",\"id\":\"a\\\"b\"}").value().id_json,
            "\"a\\\"b\"");
  EXPECT_EQ(parse("{\"op\":\"ping\",\"id\":7}").value().id_json, "7");
  EXPECT_EQ(parse("{\"op\":\"ping\"}").value().id_json, "");
  // Numeric ids echo exactly: integers within +-2^53 digit for digit (a
  // millisecond timestamp has 13 digits), other numbers at %.17g, which
  // round-trips the parsed double.
  auto id_echo = [](const std::string& id) {
    return parse("{\"op\":\"ping\",\"id\":" + id + "}").value().id_json;
  };
  EXPECT_EQ(id_echo("1234567890123"), "1234567890123");
  EXPECT_EQ(id_echo("9007199254740992"), "9007199254740992");
  EXPECT_EQ(id_echo("-5"), "-5");
  EXPECT_EQ(id_echo("0.1"), "0.10000000000000001");
  EXPECT_EQ(id_echo("1e300"), "1.0000000000000001e+300");
}

TEST(ServeParse, FaultsCanonicalizeIntoKey) {
  Request plain =
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":1}}").value();
  Request faulted =
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":1},"
            "\"faults\":\"link:0-1@0..\"}")
          .value();
  EXPECT_TRUE(faulted.has_faults);
  EXPECT_EQ(faulted.faults_spec, "link:0-1@0..");
  EXPECT_NE(plain.key, faulted.key);
  EXPECT_NE(plain.key.find("|s"), std::string::npos);
  EXPECT_NE(faulted.key.find("|xlink:0-1@0..|"), std::string::npos);
}

// --- rejections --------------------------------------------------------------

TEST(ServeParse, RejectsMalformedAndUnknown) {
  EXPECT_EQ(parse("not json").status().code(), StatusCode::kParseError);
  EXPECT_EQ(parse("{\"op\":\"frobnicate\"}").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("{\"op\":\"ping\",\"bogus\":1}").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parse("{\"scenario\":{}}").status().code(),
            StatusCode::kInvalidArgument);  // op is mandatory
  EXPECT_EQ(
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"zz\":1}}")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(ServeParse, RejectsOutOfRangeScenarios) {
  // Admission caps (docs/SERVING.md#limits).
  EXPECT_FALSE(
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":99999}}").is_ok());
  EXPECT_FALSE(
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"d\":99}}").is_ok());
  EXPECT_FALSE(
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":99}}").is_ok());
  // Non-integer indexes are type errors, not truncations.
  EXPECT_FALSE(parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4.5}}").is_ok());
  EXPECT_FALSE(
      parse("{\"op\":\"neighbor\",\"scenario\":{},\"query\":\"zero\"}")
          .is_ok());
  // query must address a point of the materialized system.
  EXPECT_FALSE(
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4},\"query\":4}")
          .is_ok());
}

TEST(ServeParse, RejectsMixedAndMisappliedFields) {
  // Generator and inline forms cannot be mixed.
  EXPECT_FALSE(
      parse("{\"op\":\"neighbor\",\"scenario\":"
            "{\"seed\":1,\"points\":[[1,0]],\"d\":1}}")
          .is_ok());
  // box is containment-only; query is meaningless for pairs/contain.
  EXPECT_FALSE(
      parse("{\"op\":\"neighbor\",\"scenario\":{},\"box\":[1,1]}").is_ok());
  EXPECT_FALSE(
      parse("{\"op\":\"pairs\",\"scenario\":{},\"query\":0}").is_ok());
  // pairs/hullwhen/contain run on mesh or hypercube only — the server
  // rejects explicitly where the CLI silently remaps.
  EXPECT_FALSE(parse("{\"op\":\"pairs\",\"scenario\":{},\"machine\":\"ccc\"}")
                   .is_ok());
  // steady is generator-only.
  EXPECT_FALSE(
      parse("{\"op\":\"steady\",\"scenario\":{\"points\":[[1,0]],\"d\":1}}")
          .is_ok());
  // Malformed fault specs surface FaultPlan::parse's kParseError.
  EXPECT_EQ(parse("{\"op\":\"neighbor\",\"scenario\":{},"
                  "\"faults\":\"bogus:1@2\"}")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(ServeParse, RejectsHostileEncodings) {
  // Protocol hardening (docs/ROBUSTNESS.md#serving-resilience): duplicate
  // members, non-finite numbers, and out-of-range integers are rejected at
  // parse time with the pinned codes — never silently last-wins or clamped.
  struct RejectCase {
    const char* name;
    const char* line;
    StatusCode code;
  };
  const RejectCase kCases[] = {
      {"duplicate op",
       "{\"op\":\"ping\",\"op\":\"stats\"}",
       StatusCode::kInvalidArgument},
      {"duplicate scenario",
       "{\"op\":\"neighbor\",\"scenario\":{},\"scenario\":{\"n\":4}}",
       StatusCode::kInvalidArgument},
      {"duplicate id",
       "{\"op\":\"ping\",\"id\":1,\"id\":2}",
       StatusCode::kInvalidArgument},
      {"duplicate scenario member",
       "{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"n\":8}}",
       StatusCode::kInvalidArgument},
      {"duplicate deadline_ms",
       "{\"op\":\"ping\",\"deadline_ms\":5,\"deadline_ms\":6}",
       StatusCode::kInvalidArgument},
      // strtod parses "1e999" as infinity without a JSON-level error; the
      // protocol refuses to materialize a system from it.
      {"infinite coefficient",
       "{\"op\":\"neighbor\",\"scenario\":{\"points\":[[[1e999],[0]]],"
       "\"d\":2}}",
       StatusCode::kInvalidArgument},
      {"negative-infinite coefficient",
       "{\"op\":\"neighbor\",\"scenario\":{\"points\":[[[-1e999],[0]]],"
       "\"d\":2}}",
       StatusCode::kInvalidArgument},
      {"infinite box entry",
       "{\"op\":\"contain\",\"scenario\":{},\"box\":[1e999,1]}",
       StatusCode::kInvalidArgument},
      {"deadline_ms zero",
       "{\"op\":\"ping\",\"deadline_ms\":0}",
       StatusCode::kInvalidArgument},
      {"deadline_ms above one hour",
       "{\"op\":\"ping\",\"deadline_ms\":3600001}",
       StatusCode::kInvalidArgument},
      {"deadline_ms fractional",
       "{\"op\":\"ping\",\"deadline_ms\":1.5}",
       StatusCode::kInvalidArgument},
      {"deadline_ms wrong type",
       "{\"op\":\"ping\",\"deadline_ms\":\"fast\"}",
       StatusCode::kInvalidArgument},
      {"deadline_ms negative",
       "{\"op\":\"ping\",\"deadline_ms\":-1}",
       StatusCode::kInvalidArgument},
      {"seed overflows its 2^40 cap",
       "{\"op\":\"neighbor\",\"scenario\":{\"seed\":1e300}}",
       StatusCode::kInvalidArgument},
  };
  for (const RejectCase& c : kCases) {
    StatusOr<Request> r = parse(c.line);
    ASSERT_FALSE(r.is_ok()) << c.name << ": accepted " << c.line;
    EXPECT_EQ(r.status().code(), c.code)
        << c.name << ": " << r.status().to_string();
  }
}

TEST(ServeParse, DeadlineBudgetAcceptedAndExcludedFromKey) {
  // The full documented range is accepted...
  EXPECT_EQ(parse("{\"op\":\"ping\",\"deadline_ms\":1}").value().deadline_ms,
            1u);
  EXPECT_EQ(
      parse("{\"op\":\"ping\",\"deadline_ms\":3600000}").value().deadline_ms,
      3600000u);
  // ...and like "id", the budget shapes scheduling, not the answer: two
  // requests differing only in deadline_ms share one cache entry.
  Request plain = parse("{\"op\":\"neighbor\",\"scenario\":{}}").value();
  Request budgeted =
      parse("{\"op\":\"neighbor\",\"scenario\":{},\"deadline_ms\":250}")
          .value();
  EXPECT_EQ(budgeted.deadline_ms, 250u);
  EXPECT_EQ(plain.key, budgeted.key);
  EXPECT_EQ(plain.fingerprint, budgeted.fingerprint);
}

// --- fleet sessions ----------------------------------------------------------

TEST(ServeParse, FleetOpenDefaultsAndForms) {
  // Fleet ops are stateful session traffic: they parse to a request with no
  // scenario and no cache key (the server routes them by name, not key).
  Request open = parse("{\"op\":\"fleet_open\"}").value();
  EXPECT_EQ(open.op, Op::kFleetOpen);
  EXPECT_TRUE(is_fleet_op(open.op));
  EXPECT_TRUE(open.key.empty());
  EXPECT_EQ(open.fleet_d, 2u);  // defaults mirror scenario defaults
  EXPECT_EQ(open.fleet_k, 2);
  EXPECT_EQ(open.machine, "mesh");
  EXPECT_FALSE(open.fleet_ref.has_value());
  Request full =
      parse("{\"op\":\"fleet_open\",\"d\":3,\"k\":1,"
            "\"machine\":\"hypercube\",\"ref\":[[1,2],[0],[5]]}")
          .value();
  EXPECT_EQ(full.fleet_d, 3u);
  EXPECT_EQ(full.fleet_k, 1);
  EXPECT_EQ(full.machine, "hypercube");
  ASSERT_TRUE(full.fleet_ref.has_value());
  EXPECT_EQ(full.fleet_ref->dimension(), 3u);
  EXPECT_EQ(full.fleet_ref->coordinate(0).coefficient(1), 2.0);
}

TEST(ServeParse, FleetUpdateForms) {
  Request r =
      parse("{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\","
            "\"insert\":[{\"id\":7,\"point\":[[0,1],[2]]}],"
            "\"erase\":[3,4],\"advance\":2.5}")
          .value();
  EXPECT_EQ(r.op, Op::kFleetUpdate);
  EXPECT_EQ(r.fleet, "fleet-1");
  ASSERT_EQ(r.fleet_insert.size(), 1u);
  EXPECT_EQ(r.fleet_insert[0].first, 7u);
  EXPECT_EQ(r.fleet_insert[0].second.dimension(), 2u);
  EXPECT_EQ(r.fleet_erase, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_TRUE(r.fleet_has_advance);
  EXPECT_EQ(r.fleet_advance, 2.5);
  // Each of the three mutation fields stands alone.
  EXPECT_TRUE(parse("{\"op\":\"fleet_update\",\"fleet\":\"f\",\"erase\":[1]}")
                  .is_ok());
  EXPECT_TRUE(parse("{\"op\":\"fleet_update\",\"fleet\":\"f\",\"advance\":0}")
                  .is_ok());
  Request q = parse("{\"op\":\"fleet_query\",\"fleet\":\"f\"}").value();
  EXPECT_TRUE(q.key.empty());
  EXPECT_EQ(q.fleet, "f");
}

TEST(ServeParse, FleetRejections) {
  struct RejectCase {
    const char* name;
    const char* line;
  };
  const RejectCase kCases[] = {
      {"fleet field on a non-fleet op",
       "{\"op\":\"ping\",\"fleet\":\"f\"}"},
      {"scenario on a fleet op",
       "{\"op\":\"fleet_query\",\"fleet\":\"f\",\"scenario\":{}}"},
      {"open names its own session",
       "{\"op\":\"fleet_open\",\"fleet\":\"f\"}"},
      {"open on a non-envelope machine",
       "{\"op\":\"fleet_open\",\"machine\":\"ccc\"}"},
      {"ref arity disagrees with d",
       "{\"op\":\"fleet_open\",\"d\":3,\"ref\":[[1],[2]]}"},
      {"ref motion degree above k",
       "{\"op\":\"fleet_open\",\"d\":1,\"k\":1,\"ref\":[[1,1,1]]}"},
      {"update without a session name",
       "{\"op\":\"fleet_update\",\"erase\":[1]}"},
      {"update with nothing to do",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\"}"},
      {"query carrying update fields",
       "{\"op\":\"fleet_query\",\"fleet\":\"f\",\"erase\":[1]}"},
      {"open carrying update fields",
       "{\"op\":\"fleet_open\",\"advance\":1}"},
      {"d/k/ref outside open",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\",\"erase\":[1],\"d\":2}"},
      {"empty insert array",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\",\"insert\":[]}"},
      {"insert entry missing its point",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\",\"insert\":[{\"id\":1}]}"},
      {"insert entry with a stray member",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\","
       "\"insert\":[{\"id\":1,\"point\":[[1]],\"zz\":1}]}"},
      {"fractional member id",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\","
       "\"insert\":[{\"id\":1.5,\"point\":[[1]]}]}"},
      {"non-finite insert coefficient",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\","
       "\"insert\":[{\"id\":1,\"point\":[[1e999]]}]}"},
      {"negative advance",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\",\"advance\":-1}"},
      {"string advance",
       "{\"op\":\"fleet_update\",\"fleet\":\"f\",\"advance\":\"3\"}"},
      {"empty session name",
       "{\"op\":\"fleet_query\",\"fleet\":\"\"}"},
  };
  for (const RejectCase& c : kCases) {
    StatusOr<Request> r = parse(c.line);
    ASSERT_FALSE(r.is_ok()) << c.name << ": accepted " << c.line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.name;
  }
}

TEST(ServeRender, FleetResponsesExactForm) {
  FleetOpenInfo open;
  open.fleet = "fleet-1";
  open.d = 3;
  open.k = 1;
  open.max_members = 64;
  EXPECT_EQ(render_fleet_open("", open),
            "{\"status\":\"OK\",\"op\":\"fleet_open\",\"fleet\":\"fleet-1\","
            "\"d\":3,\"k\":1,\"max_members\":64,\"result\":\"opened\"}");
  // t / next_event are %.17g strings: exact round-trip, and "inf" (a
  // drained envelope that never changes again) stays valid JSON.
  FleetUpdateInfo up;
  up.fleet = "fleet-1";
  up.inserted = 2;
  up.deduped = 1;
  up.erased = 0;
  up.members = 3;
  up.t = 0.1;  // not representable: %.12g would round it to "0.1"
  up.next_event = kInfinity;
  std::string line = render_fleet_update("\"u\"", up);
  EXPECT_NE(line.find("\"id\":\"u\""), std::string::npos);
  EXPECT_NE(line.find("\"t\":\"0.10000000000000001\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"next_event\":\"inf\""), std::string::npos);
  EXPECT_NE(line.find("\"inserted\":2,\"deduped\":1,\"erased\":0"),
            std::string::npos);
  FleetQueryInfo q;
  q.fleet = "fleet-1";
  q.fingerprint = kFingerprintSeed;
  q.members = 3;
  q.t = 1.0;
  q.next_event = 2.0;
  q.result = "min envelope of 3 at t=1: E1 on [1, inf); \n";
  std::string qline = render_fleet_query("", q);
  EXPECT_NE(qline.find("\"key\":\"cbf29ce484222325\""), std::string::npos);
  // The embedded result newline must be escaped — responses are one line.
  EXPECT_EQ(qline.find('\n'), std::string::npos);
  EXPECT_EQ(render_fleet_close("7", "fleet-1", 3),
            "{\"id\":7,\"status\":\"OK\",\"op\":\"fleet_close\","
            "\"fleet\":\"fleet-1\",\"members\":3,\"result\":\"closed\"}");
}

// --- response rendering ------------------------------------------------------

TEST(ServeRender, StatsV4PinnedFieldOrder) {
  // Schema v3 inserted "shed" and "deadline_exceeded" between "rejected"
  // and "batches"; v4 appended "fleets" after "entries".  The order is
  // part of the contract (docs/SERVING.md#the-stats-op).
  ServeStats s;
  s.rejected = 2;
  s.shed = 3;
  s.deadline_exceeded = 4;
  s.batches = 5;
  s.entries = 6;
  s.fleets = 7;
  std::string line = render_stats("", s);
  EXPECT_NE(line.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(line.find("\"rejected\":2,\"shed\":3,"
                      "\"deadline_exceeded\":4,\"batches\":5"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"entries\":6,\"fleets\":7"), std::string::npos)
      << line;
}

TEST(ServeRender, ErrorDrainingFlagForm) {
  Status st = Status::unavailable("draining");
  EXPECT_EQ(render_error("7", st, true),
            "{\"id\":7,\"status\":\"UNAVAILABLE\",\"draining\":true,"
            "\"error\":\"draining\"}");
  // Without the flag the member is absent, not false.
  EXPECT_EQ(render_error("7", st).find("draining\":"), std::string::npos);
}

// --- canonical keys ----------------------------------------------------------

TEST(ScenarioKey, BitExactAndStructural) {
  std::uint64_t base = fingerprint_mix(kFingerprintSeed, 1.0);
  EXPECT_NE(base, fingerprint_mix(kFingerprintSeed, 1.0 + 1e-15));
  // -0.0 and +0.0 compare equal as doubles but key differently (bit pattern
  // contract).
  EXPECT_NE(fingerprint_mix(kFingerprintSeed, 0.0),
            fingerprint_mix(kFingerprintSeed, -0.0));
  // Degree changes change the key, even when leading coefficients agree.
  Polynomial one = Polynomial::constant(1.0);
  Polynomial affine({1.0, 1.0});
  EXPECT_NE(fingerprint(one), fingerprint(affine));
  std::string a, b;
  append_canonical(a, one);
  append_canonical(b, affine);
  EXPECT_NE(a, b);
  // The zero polynomial (degree -1) keys safely and distinctly.
  std::string z;
  append_canonical(z, Polynomial());
  EXPECT_NE(z, a);
  EXPECT_NE(fingerprint(Polynomial()), fingerprint(one));
}

TEST(ScenarioKey, FingerprintHexShape) {
  std::string hex = fingerprint_hex(kFingerprintSeed);
  ASSERT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex, "cbf29ce484222325");
}

TEST(ScenarioKey, KeyDependsOnEveryOpParameter) {
  const char* base = "{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":1}}";
  Request r0 = parse(base).value();
  Request q1 =
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":1},\"query\":1}")
          .value();
  Request far =
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":1},"
            "\"farthest\":true}")
          .value();
  Request cube =
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":1},"
            "\"machine\":\"hypercube\"}")
          .value();
  Request coll =
      parse("{\"op\":\"collisions\",\"scenario\":{\"n\":4,\"k\":1}}").value();
  EXPECT_NE(r0.key, q1.key);
  EXPECT_NE(r0.key, far.key);
  EXPECT_NE(r0.key, cube.key);
  EXPECT_NE(r0.key, coll.key);
  // id is an echo, never part of the key.
  Request with_id =
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":1},\"id\":9}")
          .value();
  EXPECT_EQ(r0.key, with_id.key);
  EXPECT_EQ(r0.fingerprint, with_id.fingerprint);
}

// --- cache semantics ---------------------------------------------------------

CachedResult result_named(const std::string& text) {
  CachedResult r;
  r.text = text;
  r.topology = "mesh";
  r.pes = 4;
  return r;
}

TEST(ResultCacheTest, FifoEvictionAndExactCounters) {
  ResultCache cache(2);
  EXPECT_EQ(cache.find("a"), nullptr);  // miss 1
  cache.insert("a", result_named("A"));
  cache.insert("b", result_named("B"));
  ASSERT_NE(cache.find("a"), nullptr);  // hit 1 — does NOT refresh FIFO order
  cache.insert("c", result_named("C"));  // evicts "a" (oldest), not "b"
  EXPECT_EQ(cache.find("a"), nullptr);   // miss 2
  ASSERT_NE(cache.find("b"), nullptr);   // hit 2
  ASSERT_NE(cache.find("c"), nullptr);   // hit 3
  EXPECT_EQ(cache.counters().hits, 3u);
  EXPECT_EQ(cache.counters().misses, 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  // contains() peeks without counting.
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_EQ(cache.counters().hits, 3u);
}

TEST(ResultCacheTest, DuplicateInsertIsNoOp) {
  ResultCache cache(2);
  cache.insert("k", result_named("first"));
  cache.insert("k", result_named("second"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find("k")->text, "first");
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert("k", result_named("v"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find("k"), nullptr);
  EXPECT_EQ(cache.counters().misses, 1u);
}

// --- engine determinism ------------------------------------------------------

TEST(ServeEngine, RepeatComputesAreByteIdentical) {
  // The cache serves stored bytes, so a recompute of the same key must be
  // byte-identical — at every DYNCG_THREADS (this suite runs in the thread
  // matrix).
  const char* reqs[] = {
      "{\"op\":\"neighbor\",\"scenario\":{\"n\":6,\"k\":1},\"query\":0}",
      "{\"op\":\"collisions\",\"scenario\":{\"n\":6,\"k\":1},\"query\":1}",
      "{\"op\":\"contain\",\"scenario\":{\"n\":6,\"k\":1},\"box\":[8,6]}",
      "{\"op\":\"steady\",\"scenario\":{\"n\":6,\"k\":1}}",
  };
  for (const char* line : reqs) {
    Request r = parse(line).value();
    StatusOr<CachedResult> first = run_query(r);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    StatusOr<CachedResult> second = run_query(r);
    ASSERT_TRUE(second.is_ok());
    EXPECT_EQ(first.value().text, second.value().text) << line;
    EXPECT_EQ(first.value().cost.rounds, second.value().cost.rounds) << line;
    EXPECT_FALSE(first.value().text.empty());
    EXPECT_GT(first.value().pes, 0u);
  }
}

TEST(ServeEngine, RenderHitMissDifferOnlyInCacheField) {
  Request r =
      parse("{\"op\":\"neighbor\",\"scenario\":{\"n\":4,\"k\":1}}").value();
  CachedResult res = run_query(r).value();
  std::string hit = render_result(r.id_json, r.op, res, true, r.fingerprint);
  std::string miss = render_result(r.id_json, r.op, res, false, r.fingerprint);
  EXPECT_NE(hit.find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(miss.find("\"cache\":\"miss\""), std::string::npos);
  std::string hit_stripped = hit;
  hit_stripped.replace(hit.find("\"cache\":\"hit\""),
                       std::string("\"cache\":\"hit\"").size(),
                       "\"cache\":\"miss\"");
  EXPECT_EQ(hit_stripped, miss);
  // Responses are single lines.
  EXPECT_EQ(hit.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace dyncg
