#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "envelope/scenario_key.hpp"
#include "pieces/interval.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "steady/machine_geometry.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

// Protocol tests for the serving layer (docs/SERVING.md): parse/validate
// round-trips, canonical cache keys, FIFO cache counter semantics, and
// engine determinism.  Registered in the DYNCG_THREADS={1,4} matrix — the
// determinism assertions must hold at every thread count.
namespace dyncg {
namespace serve {
namespace {

StatusOr<Request> parse(const std::string& line) { return parse_request(line); }

// --- the golden table --------------------------------------------------------

std::string hex_bytes(const std::string& s) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : s) {
    out += digits[c >> 4];
    out += digits[c & 15];
  }
  return out;
}

// One parse outcome as one line of text: the status code and message of a
// rejection, or the fields an accepted request carries (the exact cache key
// as hex, its fingerprint, and the fleet fields).
std::string parse_outcome(const StatusOr<Request>& parsed) {
  if (!parsed.is_ok()) {
    return std::string(status_code_name(parsed.status().code())) + " " +
           parsed.status().message();
  }
  const Request& r = parsed.value();
  std::string s = std::string("OK op=") + op_name(r.op) + " id=" + r.id_json +
                  " deadline=" + std::to_string(r.deadline_ms);
  if (!r.key.empty()) {
    s += " key=" + hex_bytes(r.key) + " fp=" + fingerprint_hex(r.fingerprint);
  }
  if (is_fleet_op(r.op)) {
    s += " machine=" + r.machine + " fleet=" + r.fleet +
         " d=" + std::to_string(r.fleet_d) + " k=" + std::to_string(r.fleet_k) +
         " ref=" + (r.fleet_ref ? trajectory_key(*r.fleet_ref) : "-") +
         " insert=";
    for (const auto& [id, point] : r.fleet_insert) {
      s += std::to_string(id) + ":" + trajectory_key(point) + ";";
    }
    s += " erase=";
    for (std::uint64_t id : r.fleet_erase) s += std::to_string(id) + ";";
    s += " advance=" +
         (r.fleet_has_advance ? exact_double(r.fleet_advance) : "-");
  }
  return s;
}

// tests/data/parse_request_golden.jsonl holds 468 request lines, each with
// the outcome (parse_outcome) that the parser built on a JSON DOM gave it:
// syntax errors at every structural position and the depth limit,
// duplicate members mixed with field errors before and after them, every
// field's wrong types and out-of-range values, mixed and misapplied
// scenario forms, fleet forms, id echoes, deadlines and fault specs, and
// accepted lines of every op.  The single-pass reader must reproduce every
// row byte for byte, through parse_request and through read_request
// followed by finish_request.
TEST(ServeParse, GoldenTableOutcomesAreByteIdentical) {
  std::ifstream in(DYNCG_TEST_DATA_DIR "/parse_request_golden.jsonl");
  ASSERT_TRUE(in.good());
  std::string row;
  std::size_t rows = 0;
  while (std::getline(in, row)) {
    json::Value v;
    ASSERT_TRUE(json::parse(row, &v)) << row;
    const json::Value* line = v.find("line");
    const json::Value* want = v.find("outcome");
    ASSERT_TRUE(line != nullptr && want != nullptr) << row;
    EXPECT_EQ(parse_outcome(parse_request(line->string)), want->string)
        << "row " << rows << ": " << line->string;
    StatusOr<Request> read = read_request(line->string);
    if (read.is_ok()) finish_request(&read.value());
    EXPECT_EQ(parse_outcome(read), want->string)
        << "row " << rows << ": " << line->string;
    ++rows;
  }
  EXPECT_EQ(rows, 468u);
}

// read_request does every check and builds the key; what it leaves to
// finish_request is an inline scenario's system and the fingerprint.
TEST(ServeParse, ReadLeavesInlineSystemAndFingerprintToFinish) {
  const std::string line =
      "{\"op\":\"neighbor\",\"scenario\":{\"points\":"
      "[[[1,0,0],[2,1]],[[0,1],[1,1e-13]],[[5],[-0.0]]]},\"query\":2}";
  StatusOr<Request> read = read_request(line);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  Request r = read.value();
  EXPECT_FALSE(r.system.has_value());
  EXPECT_EQ(r.fingerprint, 0u);
  const Request parsed = parse_request(line).value();
  EXPECT_EQ(r.key, parsed.key);
  finish_request(&r);
  ASSERT_TRUE(r.system.has_value());
  EXPECT_EQ(r.fingerprint, parsed.fingerprint);
  std::string a, b;
  append_scenario_key(a, *r.system);
  append_scenario_key(b, *parsed.system);
  EXPECT_EQ(a, b);
  // The trailing 0 and the 1e-13 are trimmed as Polynomial trims them.
  EXPECT_EQ(r.system->point(0).coordinate(0).degree(), 0);
  EXPECT_EQ(r.system->point(1).coordinate(1).degree(), 0);
  EXPECT_EQ(r.system->point(2).coordinate(1).degree(), -1);
  // Finishing twice changes nothing.
  finish_request(&r);
  EXPECT_EQ(r.fingerprint, parsed.fingerprint);
  // Generator scenarios are built by the read, since their key is the
  // system's bits.
  StatusOr<Request> gen = read_request("{\"op\":\"steady\",\"scenario\":{\"n\":5}}");
  ASSERT_TRUE(gen.is_ok());
  EXPECT_TRUE(gen.value().system.has_value());
  EXPECT_EQ(gen.value().fingerprint, 0u);
}

// The scenario key decodes back into the system it encodes, and its
// fingerprint is the one append_scenario_key's system always had.
TEST(ScenarioKey, DecodesBackIntoItsSystem) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t dim = 1 + seed % 4;
    const MotionSystem sys = random_motion_system(
        rng, 2 + seed % 9, dim, static_cast<int>(seed % 5));
    std::string key;
    append_scenario_key(key, sys);
    const MotionSystem back = scenario_from_key(key);
    std::string again;
    append_scenario_key(again, back);
    EXPECT_EQ(again, key) << seed;
    EXPECT_EQ(back.dimension(), sys.dimension());
    EXPECT_EQ(back.size(), sys.size());
    EXPECT_EQ(fingerprint_scenario_key(kFingerprintSeed, key),
              fingerprint_scenario_key(kFingerprintSeed, again));
  }
}

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

// The whole line of each OK form a query or admin op answers with.  Query
// answers are also byte-checked against an in-process run by the oracle
// (serve/client.hpp); these pin the form itself.
TEST(ServeRender, QueryAndAdminResponsesExactForm) {
  CachedResult r;
  r.text = "nearest: P1\n";
  r.cost = CostSnapshot{3, 8, 2};
  r.topology = "mesh 2x2";
  r.pes = 4;
  EXPECT_EQ(render_result("\"q\"", Op::kNeighbor, r, /*hit=*/true,
                          kFingerprintSeed),
            "{\"id\":\"q\",\"status\":\"OK\",\"op\":\"neighbor\","
            "\"cache\":\"hit\",\"key\":\"cbf29ce484222325\","
            "\"machine\":{\"topology\":\"mesh 2x2\",\"pes\":4},"
            "\"cost\":{\"rounds\":3,\"messages\":8,\"local_ops\":2,"
            "\"time\":5},\"result\":\"nearest: P1\\n\"}");
  EXPECT_EQ(render_pong(""),
            "{\"status\":\"OK\",\"op\":\"ping\",\"result\":\"pong\"}");
  EXPECT_EQ(render_flush_trace("2", 17, "/tmp/t.json"),
            "{\"id\":2,\"status\":\"OK\",\"op\":\"flush_trace\","
            "\"spans\":17,\"path\":\"/tmp/t.json\"}");
  // The registry is embedded verbatim.
  EXPECT_EQ(render_metrics("", "{\"kind\":\"dyncg-metrics\"}"),
            "{\"status\":\"OK\",\"op\":\"metrics\","
            "\"metrics\":{\"kind\":\"dyncg-metrics\"}}");
}

TEST(ServeRender, StatsV4PinnedFieldOrder) {
  // Schema v3 inserted "shed" and "deadline_exceeded" between "rejected"
  // and "batches"; v4 appended "fleets" after "entries".  The order is
  // part of the contract (docs/SERVING.md#the-stats-op).
  ServeStats s;
  s.git_rev = "abc1234";
  s.uptime_seconds = 1.5;
  s.connections = 1;
  s.requests = 2;
  s.errors = 3;
  s.rejected = 4;
  s.shed = 5;
  s.deadline_exceeded = 6;
  s.batches = 7;
  s.hits = 8;
  s.misses = 9;
  s.evictions = 10;
  s.entries = 11;
  s.fleets = 12;
  EXPECT_EQ(render_stats("\"s\"", s),
            "{\"id\":\"s\",\"status\":\"OK\",\"op\":\"stats\","
            "\"stats\":{\"schema_version\":4,\"git_rev\":\"abc1234\","
            "\"uptime_seconds\":1.5,\"connections\":1,\"requests\":2,"
            "\"errors\":3,\"rejected\":4,\"shed\":5,"
            "\"deadline_exceeded\":6,\"batches\":7,\"hits\":8,"
            "\"misses\":9,\"evictions\":10,\"entries\":11,"
            "\"fleets\":12}}");
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

// The hex scenario text the wire `key` fingerprints, built here from the
// request's fields as an independent reference: the request parameters,
// then 'd' and the dimension, and per point 'p' and the coordinates'
// coefficients as 16 hex digits each, joined by 'c'.
std::string hex_key(const Request& r) {
  auto hex = [](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return std::string(buf);
  };
  std::string key = std::string(op_name(r.op)) + '|' + r.machine + "|q" +
                    std::to_string(r.query) + (r.farthest ? "|f1" : "|f0");
  if (r.has_box) {
    key += "|b";
    for (double v : r.box) key += hex(v);
  }
  if (r.has_faults) key += "|x" + r.faults_spec;
  key += "|sd" + std::to_string(r.system->dimension());
  for (std::size_t i = 0; i < r.system->size(); ++i) {
    key += 'p';
    const Trajectory& t = r.system->point(i);
    for (std::size_t c = 0; c < t.dimension(); ++c) {
      if (c != 0) key += 'c';
      const Polynomial& p = t.coordinate(c);
      for (int j = 0; j <= p.degree(); ++j) key += hex(p.coefficient(j));
    }
  }
  return key;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

// {"op":...,"scenario":{"points":...,"d":D}} with every coefficient at
// %.17g, which round-trips the double (signed zero and subnormals too).
using Points = std::vector<std::vector<std::vector<double>>>;
std::string inline_line(const std::string& head, const Points& points,
                        std::size_t d, const std::string& tail = "") {
  std::string line = "{" + head + ",\"scenario\":{\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    line += i ? ",[" : "[";
    for (std::size_t c = 0; c < points[i].size(); ++c) {
      line += c ? ",[" : "[";
      for (std::size_t j = 0; j < points[i][c].size(); ++j) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.17g", j ? "," : "",
                      points[i][c][j]);
        line += buf;
      }
      line += ']';
    }
    line += ']';
  }
  return line + "],\"d\":" + std::to_string(d) + "}" + tail + "}";
}

// The compact key keeps the request text, and the fingerprint streamed
// while it is built is FNV-1a of the hex reference: the wire `key` did not
// move.
void expect_key_forms(const std::string& line) {
  StatusOr<Request> r = parse(line);
  ASSERT_TRUE(r.is_ok()) << line << ": " << r.status().to_string();
  const std::string hex = hex_key(r.value());
  const std::string text = hex.substr(0, hex.find("|sd") + 2);
  EXPECT_EQ(r.value().key.compare(0, text.size(), text), 0) << line;
  EXPECT_EQ(r.value().fingerprint, fnv1a(hex)) << line;
  // After the text: "d<dim>", then per point 'p', per coordinate a one-byte
  // count, and 8 bytes per coefficient.
  const MotionSystem& sys = *r.value().system;
  std::size_t size = text.size() + 1 + std::to_string(sys.dimension()).size();
  for (std::size_t i = 0; i < sys.size(); ++i) {
    size += 1 + sys.dimension();
    for (std::size_t c = 0; c < sys.dimension(); ++c) {
      size += 8 * static_cast<std::size_t>(
                      sys.point(i).coordinate(c).degree() + 1);
    }
  }
  EXPECT_EQ(r.value().key.size(), size) << line;
}

TEST(ScenarioKey, StreamedFingerprintMatchesHexReference) {
  const double sub = 4.9406564584124654e-324;  // smallest subnormal
  const char* neighbor = "\"op\":\"neighbor\"";
  expect_key_forms(inline_line(neighbor, {{{0.0}, {-0.0, 1}}, {{1}, {2}}}, 2));
  expect_key_forms(inline_line(
      neighbor, {{{sub, -sub}, {1e300}}, {{-1e-300}, {2.2250738585072014e-308}}},
      2));
  // Trailing zeros trim away (both signs): [1,0,-0] keys as [1].
  expect_key_forms(inline_line(neighbor, {{{1, 0, -0.0}, {0}}, {{1}, {2}}}, 2));
  // Dimension 16, degree 16 in every coordinate.
  std::vector<std::vector<double>> wide(16, std::vector<double>(17));
  for (std::size_t c = 0; c < 16; ++c) {
    for (std::size_t j = 0; j < 17; ++j) wide[c][j] = 1.0 + c * 17.0 + j;
  }
  expect_key_forms(inline_line(neighbor, {wide, wide}, 16));
  expect_key_forms(inline_line("\"op\":\"contain\"",
                               {{{0, 1}, {1}}, {{2}, {0, -1}}}, 2,
                               ",\"box\":[8.5,-0.0]"));
  expect_key_forms(inline_line("\"op\":\"collisions\",\"machine\":\"ccc\","
                               "\"query\":1,\"faults\":\"pe:3@2..9,drop:0-1@4\"",
                               {{{0, 1}, {1}}, {{2}, {0, -1}}}, 2));
  expect_key_forms(
      "{\"op\":\"neighbor\",\"farthest\":true,\"scenario\":{\"seed\":5,"
      "\"n\":9,\"d\":3,\"k\":2},\"faults\":\"link:0-1@0..\"}");
  expect_key_forms("{\"op\":\"steady\",\"scenario\":{\"n\":6,\"k\":2}}");

  // Generator and inline forms of one scenario: one key, one fingerprint.
  Request gen = parse("{\"op\":\"hullwhen\",\"scenario\":{\"seed\":3,\"n\":5,"
                      "\"d\":3,\"k\":2},\"query\":2}")
                    .value();
  Points pts;
  for (std::size_t i = 0; i < gen.system->size(); ++i) {
    pts.emplace_back();
    for (std::size_t c = 0; c < 3; ++c) {
      const Polynomial& p = gen.system->point(i).coordinate(c);
      pts.back().emplace_back();
      for (int j = 0; j <= p.degree(); ++j) {
        pts.back().back().push_back(p.coefficient(j));
      }
    }
  }
  Request inl =
      parse(inline_line("\"op\":\"hullwhen\"", pts, 3, ",\"query\":2")).value();
  EXPECT_EQ(inl.key, gen.key);
  EXPECT_EQ(inl.fingerprint, gen.fingerprint);
  EXPECT_EQ(gen.fingerprint, fnv1a(hex_key(gen)));
}

// Random scenario over a small value pool, so equal pairs are common:
// 1-3 points, d 1-3, up to 3 coefficients per coordinate.
Points random_points(std::mt19937_64& rng, std::size_t d) {
  static const double pool[] = {0.0, -0.0, 1.0, -1.0, 0.5,
                                4.9406564584124654e-324, 1e300};
  Points pts(1 + rng() % 3);
  for (auto& pt : pts) {
    pt.resize(d);
    for (auto& coord : pt) {
      coord.resize(1 + rng() % 3);
      for (double& v : coord) v = pool[rng() % 7];
    }
  }
  return pts;
}

// One small edit: a coefficient value, a coefficient moved to another
// coordinate, a degree change, or an extra point.
void mutate(std::mt19937_64& rng, Points* pts) {
  auto& pt = (*pts)[rng() % pts->size()];
  auto& coord = pt[rng() % pt.size()];
  switch (rng() % 4) {
    case 0:
      coord[rng() % coord.size()] = (rng() % 2) ? -0.0 : 1.0;
      break;
    case 1: {
      auto& other = pt[rng() % pt.size()];
      if (&other != &coord && coord.size() > 1) {
        other.push_back(coord.back());
        coord.pop_back();
      }
      break;
    }
    case 2:
      if (rng() % 2 && coord.size() > 1) {
        coord.pop_back();
      } else {
        coord.push_back(0.5);
      }
      break;
    default:
      pts->push_back(pts->front());
      break;
  }
}

TEST(ScenarioKey, CompactKeysDifferExactlyWhenHexKeysDiffer) {
  std::mt19937_64 rng(20);
  std::size_t equal = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t d = 1 + rng() % 3;
    Points a = random_points(rng, d);
    Points b = (rng() % 2) ? a : random_points(rng, d);
    for (int m = static_cast<int>(rng() % 3); m > 0; --m) mutate(rng, &b);
    Request ra = parse(inline_line("\"op\":\"neighbor\"", a, d)).value();
    Request rb = parse(inline_line("\"op\":\"neighbor\"", b, d)).value();
    ASSERT_EQ(ra.key == rb.key, hex_key(ra) == hex_key(rb))
        << inline_line("\"op\":\"neighbor\"", a, d) << " vs "
        << inline_line("\"op\":\"neighbor\"", b, d);
    ASSERT_EQ(ra.fingerprint, fnv1a(hex_key(ra)));
    equal += ra.key == rb.key;
  }
  // Both outcomes are well represented.
  EXPECT_GT(equal, 1000u);
  EXPECT_LT(equal, 9000u);

  // Targeted near-collisions, each a different scenario under both forms.
  auto key_of = [](const Points& p) {
    return parse(inline_line("\"op\":\"neighbor\"", p, 2)).value().key;
  };
  const Points base = {{{1, 2}, {3}}, {{4}, {5}}};
  const Points near[] = {
      {{{1}, {2, 3}}, {{4}, {5}}},          // coefficient moved over
      {{{1, 2, 0.5}, {3}}, {{4}, {5}}},     // degree raised
      {{{1}, {3}}, {{4}, {5}}},             // degree lowered
      {{{1, 2}, {3}}, {{4}, {5}}, {{4}, {5}}},  // extra point
      {{{1, 2}, {3}}, {{4}, {5, -0.5}}},    // another coordinate's degree
  };
  for (const Points& p : near) EXPECT_NE(key_of(p), key_of(base));
  EXPECT_NE(key_of({{{-0.0, 1}, {3}}, {{4}, {5}}}),
            key_of({{{0.0, 1}, {3}}, {{4}, {5}}}));
  EXPECT_EQ(key_of({{{1, 2, 0}, {3, -0.0}}, {{4}, {5}}}), key_of(base));
}

// The hex text is not self-delimiting, because the coordinate separator
// 'c' is also a hex digit: x = [A], y = [B, C] and x = [A, B'], y = [C]
// read alike when B's bits are 0x000000000000000c and B' = -2.0
// (0xc000000000000000).  The compact key, with its coefficient counts,
// tells them apart, so the cache never serves one for the other; only
// their 64-bit response names coincide.
TEST(ScenarioKey, CompactKeyTellsApartWhatHexTextConflates) {
  double b;
  const std::uint64_t bits = 0xc;
  std::memcpy(&b, &bits, sizeof b);
  const Points one = {{{1.5}, {b, 3}}, {{4}, {5}}};
  const Points two = {{{1.5, -2.0}, {3}}, {{4}, {5}}};
  Request r1 = parse(inline_line("\"op\":\"neighbor\"", one, 2)).value();
  Request r2 = parse(inline_line("\"op\":\"neighbor\"", two, 2)).value();
  EXPECT_EQ(hex_key(r1), hex_key(r2));
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  EXPECT_NE(r1.key, r2.key);
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

// The cache against the obvious model, a map plus a FIFO of key copies, on
// random insert/find streams over binary keys (embedded NULs, lengths
// 1-64).  Hits, misses, evictions and contents agree after every step, so
// keeping one copy of each key changed nothing observable.
TEST(ResultCacheTest, MatchesACopyingFifoModel) {
  struct Model {
    std::size_t capacity;
    std::map<std::string, std::string> map;
    std::deque<std::string> fifo;
    CacheCounters counters;
    const std::string* find(const std::string& key) {
      auto it = map.find(key);
      if (it == map.end()) {
        ++counters.misses;
        return nullptr;
      }
      ++counters.hits;
      return &it->second;
    }
    void insert(const std::string& key, const std::string& text) {
      if (capacity == 0 || map.count(key) != 0) return;
      if (map.size() >= capacity) {
        map.erase(fifo.front());
        fifo.pop_front();
        ++counters.evictions;
      }
      fifo.push_back(key);
      map.emplace(key, text);
    }
  };
  for (std::size_t capacity : {0, 1, 7, 4096}) {
    std::mt19937_64 rng(capacity);
    const std::size_t universe = capacity + capacity / 2 + 3;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < universe; ++i) {
      std::string k(reinterpret_cast<const char*>(&i), sizeof i);
      k.resize(1 + rng() % 64, '\0');
      if (keys.size() > 0 && rng() % 4 == 0) k = keys.back() + '\0';
      keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    ResultCache cache(capacity);
    Model model{capacity, {}, {}, {}};
    // One counting lookup on each side; true when both agree.
    auto find_agrees = [&](const std::string& key) {
      const CachedResult* got = cache.find(key);
      const std::string* want = model.find(key);
      return got == nullptr ? want == nullptr
                            : want != nullptr && got->text == *want;
    };
    const std::size_t steps = 8 * universe + 64;
    for (std::size_t step = 0; step < steps; ++step) {
      const std::string& key = keys[rng() % keys.size()];
      if (rng() % 3 == 0) {
        const std::string text = "v" + std::to_string(step);
        cache.insert(key, result_named(text));
        model.insert(key, text);
      } else {
        ASSERT_TRUE(find_agrees(key)) << capacity << "@" << step;
      }
      ASSERT_EQ(cache.counters().hits, model.counters.hits);
      ASSERT_EQ(cache.counters().misses, model.counters.misses);
      ASSERT_EQ(cache.counters().evictions, model.counters.evictions);
      ASSERT_EQ(cache.size(), model.map.size());
    }
    for (const std::string& key : keys) {
      ASSERT_TRUE(find_agrees(key)) << capacity;
    }
    ASSERT_EQ(cache.counters().hits, model.counters.hits);
    ASSERT_EQ(cache.counters().misses, model.counters.misses);
    if (capacity >= 7) {
      EXPECT_GT(model.counters.evictions, 0u) << capacity;
    }
  }
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

// A result line longer than appendf's stack buffer is formatted whole: a
// cube edge of ~1e250 prints 300 bytes, as the CLI's printf does.
TEST(ServeEngine, LongResultLinesAreNotCut) {
  Request r = parse("{\"op\":\"contain\",\"scenario\":{\"points\":"
                    "[[[1e250],[0]],[[0],[0]]],\"d\":2}}")
                  .value();
  StatusOr<CachedResult> res = run_query(r);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const std::string& text = res.value().text;
  EXPECT_EQ(text.size(), 300u) << text;
  const std::string tail = " at t = 0.0000\n";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
}

// steady builds the germ hull once and reads the farthest pair off it, so
// its cost is the single-hull sequence and strictly below the two-hull one
// of the two-argument wrappers (which build a hull each).
TEST(ServeEngine, SteadyChargesOneHull) {
  const char* lines[] = {
      R"({"op":"steady","scenario":{"n":16,"k":2}})",
      R"({"op":"steady","machine":"hypercube","scenario":{"n":16,"k":2}})",
      R"({"op":"steady","scenario":{"seed":4,"n":9,"k":1},"query":3})",
      R"({"op":"steady","machine":"ccc","scenario":{"seed":2,"n":30}})",
  };
  for (const char* line : lines) {
    SCOPED_TRACE(line);
    Request r = parse(line).value();
    const MotionSystem& sys = *r.system;
    StatusOr<CachedResult> served = run_query(r);
    ASSERT_TRUE(served.is_ok()) << served.status().to_string();

    Machine one = query_machine(r).value();
    machine_steady_neighbor(one, sys, r.query);
    const std::vector<Point2<RationalGerm>> hull =
        machine_steady_hull(one, sys);
    machine_steady_farthest_pair(one, sys, hull);
    const CostSnapshot single = one.ledger().snapshot();
    EXPECT_EQ(served.value().cost.rounds, single.rounds);
    EXPECT_EQ(served.value().cost.messages, single.messages);
    EXPECT_EQ(served.value().cost.local_ops, single.local_ops);

    Machine two = query_machine(r).value();
    machine_steady_neighbor(two, sys, r.query);
    machine_steady_hull_ids(two, sys);
    machine_steady_farthest_pair(two, sys);
    const CostSnapshot twice = two.ledger().snapshot();
    EXPECT_LT(single.rounds, twice.rounds);
    EXPECT_LT(single.messages, twice.messages);
    EXPECT_LT(single.local_ops, twice.local_ops);
  }
}

// The answers and ledgers are pinned.  The first five texts were recorded
// before the hull was shared; the last two are served lines whose hull the
// midpoint-evaluation combine got wrong (a repeated vertex, a missing one)
// at the same ledger.
TEST(ServeEngine, SteadyResultsPinned) {
  struct Case {
    const char* line;
    const char* text;
    std::uint64_t rounds, messages, local_ops;
  };
  const Case cases[] = {
      {R"({"op":"steady","scenario":{"seed":1,"n":16,"k":2}})",
       "steady NN of P0: P15\n"
       "steady hull: P8 P10 P12 P15 P1 P2 P4 P5 \n"
       "steady farthest pair: (P12, P2)\n",
       439, 3184, 177},
      {R"({"op":"steady","machine":"hypercube",)"
       R"("scenario":{"seed":2,"n":16,"k":2}})",
       "steady NN of P0: P1\n"
       "steady hull: P10 P11 P14 P0 P1 P2 P5 P8 \n"
       "steady farthest pair: (P14, P5)\n",
       317, 3184, 177},
      {R"({"op":"steady","scenario":{"seed":3,"n":16,"k":2},"query":5})",
       "steady NN of P5: P4\n"
       "steady hull: P8 P10 P11 P12 P15 P2 P5 P6 \n"
       "steady farthest pair: (P15, P6)\n",
       439, 3184, 177},
      {R"({"op":"steady","machine":"hypercube",)"
       R"("scenario":{"seed":4,"n":9,"k":1},"query":3})",
       "steady NN of P3: P4\n"
       "steady hull: P3 P5 P6 P7 P8 P0 P2 \n"
       "steady farthest pair: (P3, P8)\n",
       317, 3184, 176},
      {R"({"op":"steady","scenario":{"seed":5,"n":33,"k":3}})",
       "steady NN of P0: P32\n"
       "steady hull: P13 P17 P22 P24 P31 P2 P7 P10 \n"
       "steady farthest pair: (P13, P31)\n",
       1383, 25600, 321},
      // Was "... P58 P63 P31 P63 P2 ...": P63 twice, P31 not a vertex.
      {R"({"op":"steady","scenario":{"seed":837404275098,"n":64,"k":2},)"
       R"("machine":"mesh","query":17})",
       "steady NN of P17: P19\n"
       "steady hull: P33 P40 P44 P47 P50 P52 P58 P63 P2 P12 P15 P19 P26 \n"
       "steady farthest pair: (P47, P15)\n",
       1383, 25600, 320},
      // Was a hull repeating P67 and P122 without P25, so the farthest pair
      // read (P98, P28).
      {R"({"op":"steady","scenario":{"seed":406951108260,"n":128,"k":2},)"
       R"("machine":"mesh","query":112})",
       "steady NN of P112: P113\n"
       "steady hull: P67 P77 P81 P84 P85 P89 P98 P109 P117 P122 P4 P11 P25 "
       "P28 P37 P45 P50 \n"
       "steady farthest pair: (P85, P25)\n",
       3567, 167168, 493},
  };
  for (const Case& c : cases) {
    StatusOr<CachedResult> res = run_query(parse(c.line).value());
    ASSERT_TRUE(res.is_ok()) << c.line;
    EXPECT_EQ(res.value().text, c.text) << c.line;
    EXPECT_EQ(res.value().cost.rounds, c.rounds) << c.line;
    EXPECT_EQ(res.value().cost.messages, c.messages) << c.line;
    EXPECT_EQ(res.value().cost.local_ops, c.local_ops) << c.line;
  }
}

// --- oracles -----------------------------------------------------------------

// The response a correct server sends for `line`, as a miss.
std::string served(const std::string& line) {
  Request r = parse(line).value();
  return render_result(r.id_json, r.op, run_query(r).value(), false,
                       r.fingerprint);
}

// `response` with the first occurrence of `from` replaced by `to`.
std::string tampered(std::string response, const std::string& from,
                     const std::string& to) {
  std::size_t at = response.find(from);
  EXPECT_NE(at, std::string::npos) << from << " not in " << response;
  if (at != std::string::npos) response.replace(at, from.size(), to);
  return response;
}

const char kNeighbor[] =
    "{\"op\":\"neighbor\",\"id\":7,\"scenario\":{\"n\":6,\"k\":1}}";

TEST(ServeOracle, AcceptsAFreshAnswerAsHitAndMiss) {
  Request r = parse(kNeighbor).value();
  CachedResult res = run_query(r).value();
  for (bool hit : {false, true}) {
    EXPECT_EQ(oracle_mismatch(kNeighbor, render_result(r.id_json, r.op, res,
                                                       hit, r.fingerprint)),
              "");
  }
}

TEST(ServeOracle, FlagsEveryTamperedField) {
  Request r = parse(kNeighbor).value();
  CachedResult res = run_query(r).value();
  const std::string good = served(kNeighbor);
  const std::string rounds = "\"rounds\":" + std::to_string(res.cost.rounds);
  const std::string key = fingerprint_hex(r.fingerprint);
  std::string flipped = key;
  flipped.back() = static_cast<char>(flipped.back() ^ 1);  // low bit
  const std::string pes = "\"pes\":" + std::to_string(res.pes);
  const std::string bad[] = {
      tampered(good, rounds,
               "\"rounds\":" + std::to_string(res.cost.rounds + 1)),
      tampered(good, key, flipped),
      tampered(good, pes, "\"pes\":" + std::to_string(2 * res.pes)),
      tampered(good, "nearest of P0", "nearest of P1"),
  };
  for (const std::string& response : bad) {
    EXPECT_NE(response, good);
    EXPECT_NE(oracle_mismatch(kNeighbor, response), "") << response;
  }
}

TEST(ServeOracle, FlagsOkForRejectedLinesAndErrorsForAcceptedOnes) {
  const std::string ok = served(kNeighbor);
  // The parser rejects this line...
  EXPECT_NE(
      oracle_mismatch("{\"op\":\"neighbor\",\"scenario\":{\"n\":0}}", ok),
      "");
  // ...and the engine this one: a hull outside the plane is UNSUPPORTED.
  const std::string hull3d =
      "{\"op\":\"hullwhen\",\"scenario\":{\"n\":6,\"d\":3,\"k\":1}}";
  ASSERT_TRUE(parse(hull3d).is_ok());
  EXPECT_EQ(run_query(parse(hull3d).value()).status().code(),
            StatusCode::kUnsupported);
  EXPECT_NE(oracle_mismatch(hull3d, ok), "");
  EXPECT_EQ(oracle_mismatch(hull3d, render_error("", Status::unsupported("x"))),
            "");
  // A line both accept must be answered OK.
  EXPECT_NE(oracle_mismatch(kNeighbor,
                            render_error("7", Status::unavailable("busy"))),
            "");
}

TEST(ServeOracle, FleetOracleFlagsAChangedKeyDigit) {
  FleetRegistry fleets(FleetOptions{});
  const char* lines[] = {
      "{\"op\":\"fleet_open\",\"d\":2,\"k\":1}",
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":5,\"point\":[[4,-1],[0]]},"
      "{\"id\":2,\"point\":[[0,1],[3]]}],\"advance\":1.5}",
      "{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}",
  };
  std::string query;
  for (const char* line : lines) {
    StatusOr<std::string> response = fleets.handle(parse(line).value());
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    query = response.value();
  }
  const std::map<std::uint64_t, Trajectory> members = {
      {5, Trajectory({Polynomial({4.0, -1.0}), Polynomial({0.0})})},
      {2, Trajectory({Polynomial({0.0, 1.0}), Polynomial({3.0})})},
  };
  EXPECT_EQ(fleet_oracle_mismatch(query, members, 1.5, /*k=*/1), "") << query;

  const std::size_t digit = query.find("\"key\":\"") + 7;
  ASSERT_LT(digit, query.size());
  std::string changed = query;
  changed[digit] = changed[digit] == '0' ? '1' : '0';
  EXPECT_NE(fleet_oracle_mismatch(changed, members, 1.5, /*k=*/1), "");
}

}  // namespace
}  // namespace serve
}  // namespace dyncg
