#include <gtest/gtest.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "counting_allocator.hpp"
#include "envelope/parallel_envelope.hpp"
#include "machine/fabric.hpp"
#include "ops/basic.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

// Tests for the observability layer: RAII spans (nesting, cost attribution,
// zero overhead when disabled, determinism of the simulated figures), the
// per-label totals computed from spans, the fabric telemetry counters,
// CostSnapshot arithmetic, and the JSON writer/parser that back the export
// formats.

namespace dyncg {

// Readable cost figures in failure messages (found by argument lookup).
void PrintTo(const CostSnapshot& c, std::ostream* os) { *os << c.to_string(); }

namespace {

// Each test that records spans owns the global buffer for its duration.
struct TraceSession {
  TraceSession() {
    trace::clear();
    trace::enable();
  }
  ~TraceSession() {
    trace::disable();
    trace::clear();
  }
};

PolyFamily small_family(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Polynomial> fns;
  for (int i = 0; i < n; ++i) {
    std::vector<double> c{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    fns.push_back(Polynomial(c));
  }
  return PolyFamily(std::move(fns));
}

TEST(CostSnapshot, Arithmetic) {
  CostSnapshot a{10, 100, 5};
  CostSnapshot b{3, 7, 1};
  CostSnapshot sum = a + b;
  EXPECT_EQ(sum.rounds, 13u);
  EXPECT_EQ(sum.messages, 107u);
  EXPECT_EQ(sum.local_ops, 6u);
  a += b;
  EXPECT_EQ(a, sum);
  EXPECT_NE(a, b);
  EXPECT_EQ(sum - b, CostSnapshot({10, 100, 5}));
}

TEST(CostSnapshot, ToJson) {
  CostSnapshot s{10, 100, 5};
  EXPECT_EQ(s.to_json(),
            "{\"rounds\":10,\"messages\":100,\"local_ops\":5,\"time\":15}");
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(s.to_json(), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("rounds")->number, 10.0);
  EXPECT_EQ(v.find("time")->number, 15.0);
}

TEST(Json, WriterParserRoundtrip) {
  json::Writer w;
  w.begin_object();
  w.key("s");
  w.value("quote \" backslash \\ newline \n tab \t");
  w.key("n");
  w.value(-12.5);
  w.key("big");
  w.value(std::uint64_t{1} << 53);
  w.key("flag");
  w.value(true);
  w.key("nothing");
  w.value_null();
  w.key("arr");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.begin_object();
  w.end_object();
  w.end_array();
  w.end_object();

  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(w.str(), &v, &err)) << err << " in " << w.str();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("s")->string, "quote \" backslash \\ newline \n tab \t");
  EXPECT_EQ(v.find("n")->number, -12.5);
  EXPECT_EQ(v.find("big")->number, 9007199254740992.0);
  EXPECT_EQ(v.find("flag")->type, json::Value::Type::kBool);
  EXPECT_TRUE(v.find("flag")->boolean);
  EXPECT_EQ(v.find("nothing")->type, json::Value::Type::kNull);
  ASSERT_EQ(v.find("arr")->array.size(), 3u);
  EXPECT_EQ(v.find("arr")->array[1].number, 2.0);
}

TEST(Json, ParserRejectsMalformed) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse("{", &v, &err));
  EXPECT_FALSE(json::parse("[1,]", &v, &err));
  EXPECT_FALSE(json::parse("{\"a\":1} trailing", &v, &err));
  EXPECT_FALSE(json::parse("\"unterminated", &v, &err));
  EXPECT_FALSE(json::parse("01", &v, &err));
  EXPECT_TRUE(json::parse("  [1, 2.5e3, \"\\u0041\"] ", &v, &err)) << err;
  EXPECT_EQ(v.array[2].string, "A");
}

// json::parse converts numbers with std::from_chars and falls back to strtod
// only on overflow, underflow or a partial parse; the contract is that every
// number comes out bit-identical to strtod of the same token.  Tokens are
// checked in batches, one JSON array per parse, so the million-pattern
// sweep stays cheap.
class StrtodDifferential {
 public:
  void add(const char* token) {
    text_ += text_.empty() ? '[' : ',';
    starts_.push_back(text_.size());
    text_ += token;
    if (starts_.size() == 4096) flush();
  }

  void flush() {
    if (starts_.empty()) return;
    text_ += ']';
    json::Value v;
    std::string err;
    if (!json::parse(text_, &v, &err) || v.array.size() != starts_.size()) {
      ADD_FAILURE() << "batch did not parse: " << err;
    } else {
      for (std::size_t i = 0; i < starts_.size(); ++i) {
        // strtod stops at the ',' or ']' that ends the token.
        const char* token = text_.c_str() + starts_[i];
        const double want = std::strtod(token, nullptr);
        if (bits(v.array[i].number) != bits(want)) {
          ADD_FAILURE() << "token "
                        << std::string(token, std::strcspn(token, ",]"))
                        << ": parse " << v.array[i].number << " vs strtod "
                        << want;
        }
      }
    }
    checked_ += starts_.size();
    text_.clear();
    starts_.clear();
  }

  std::size_t checked() const { return checked_; }

 private:
  static std::uint64_t bits(double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
  }

  std::string text_;
  std::vector<std::size_t> starts_;
  std::size_t checked_ = 0;
};

TEST(Json, NumbersMatchStrtodBitForBit) {
  StrtodDifferential diff;
  // Random finite bit patterns (normals, subnormals, both signs) at the
  // precisions clients print: round-trip, short, and past 17 digits.
  // to_chars with a precision prints exactly what %.17g, %.15g and %.25e
  // print, several times faster than snprintf.
  const std::pair<std::chars_format, int> kFormats[] = {
      {std::chars_format::general, 17},
      {std::chars_format::general, 15},
      {std::chars_format::scientific, 25}};
  Rng rng(20240613);
  char buf[64];
  for (int i = 0; i < (1 << 20); ++i) {
    double d;
    const std::uint64_t b = rng.next_u64();
    std::memcpy(&d, &b, sizeof d);
    if (!std::isfinite(d)) continue;
    for (const auto& [format, precision] : kFormats) {
      *std::to_chars(buf, buf + sizeof buf - 1, d, format, precision).ptr = 0;
      diff.add(buf);
    }
  }
  // 1-40-digit mantissas across the whole exponent range, into overflow
  // and below the smallest subnormal.
  for (int digits = 1; digits <= 40; ++digits) {
    for (int exp = -420; exp <= 330; ++exp) {
      std::string token = rng.uniform_int(0, 1) != 0 ? "-" : "";
      token += static_cast<char>('0' + rng.uniform_int(1, 9));
      if (digits > 1 && rng.uniform_int(0, 1) != 0) token += '.';
      for (int k = 1; k < digits; ++k) {
        token += static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      token += 'e' + std::to_string(exp);
      diff.add(token.c_str());
    }
  }
  // Boundaries: smallest subnormal, half of it (ties to zero), largest
  // subnormal, largest finite, first overflow; infinities, underflow, -0.
  for (const char* token :
       {"4.9406564584124654e-324", "2.4703282292062327e-324",
        "2.2250738585072011e-308", "1.7976931348623158e308",
        "1.7976931348623159e308", "1e999", "-1e999", "1e-400", "-0"}) {
    diff.add(token);
  }
  diff.flush();
  EXPECT_GE(diff.checked(), 3000000u);
}

TEST(TraceSpan, NestingDepthAndOrder) {
  TraceSession session;
  {
    TRACE_SPAN("outer");
    {
      TRACE_SPAN("inner1");
    }
    {
      TRACE_SPAN("inner2");
      { TRACE_SPAN("leaf"); }
    }
  }
  std::vector<trace::Event> ev = trace::snapshot();
  ASSERT_EQ(ev.size(), 4u);
  // Sorted by start time: outer, inner1, inner2, leaf.
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[0].depth, 0u);
  EXPECT_EQ(ev[1].name, "inner1");
  EXPECT_EQ(ev[1].depth, 1u);
  EXPECT_EQ(ev[2].name, "inner2");
  EXPECT_EQ(ev[2].depth, 1u);
  EXPECT_EQ(ev[3].name, "leaf");
  EXPECT_EQ(ev[3].depth, 2u);
  // All on the recording (main) thread, intervals nested in the outer span.
  for (const trace::Event& e : ev) {
    EXPECT_EQ(e.tid, ev[0].tid);
    EXPECT_GE(e.start_ns, ev[0].start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns, ev[0].start_ns + ev[0].dur_ns);
  }
  EXPECT_EQ(trace::event_count(), 4u);
}

TEST(TraceSpan, LedgerDeltaMatchesHandCount) {
  TraceSession session;
  Machine m = Machine::hypercube_for(16);
  CostMeter meter(m.ledger());
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 0L);
  ops::reduce(m, v, std::plus<long>{});
  CostSnapshot measured = meter.elapsed();

  // Hand count: reduce on n=16 runs log2(16)=4 exchange levels, each
  // charging exchange_rounds(k) rounds, n messages, and one local op.
  CostSnapshot expected;
  for (unsigned k = 0; k < 4; ++k) {
    expected.rounds += m.topology().exchange_rounds(k);
    expected.messages += 16;
    expected.local_ops += 1;
  }
  EXPECT_EQ(measured, expected);

  // The span recorded by ops::reduce must carry exactly that delta.
  std::vector<trace::Event> ev = trace::snapshot();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].name, "ops.reduce");
  EXPECT_EQ(ev[0].cost, expected);
}

TEST(TraceSpan, DisabledModeAllocatesNothing) {
  ASSERT_FALSE(trace::enabled());
  CostLedger ledger;
  // Warm up any lazy thread-local state outside the measured region.
  { TRACE_SPAN("warmup"); }
  std::uint64_t before = test::allocations();
  for (int i = 0; i < 1000; ++i) {
    TRACE_SPAN("disabled");
    TRACE_SPAN_COST("disabled_cost", ledger);
  }
  std::uint64_t after = test::allocations();
  EXPECT_EQ(before, after);
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST(TraceSpan, LedgerIdenticalWithTracingOnAndOff) {
  for (unsigned threads : {1u, 4u}) {
    set_host_threads(threads);
    PolyFamily fam = small_family(99, 16);

    Machine off = envelope_machine_mesh(fam.size(), 1);
    ASSERT_FALSE(trace::enabled());
    PiecewiseFn env_off = parallel_envelope(off, fam, 1);
    CostSnapshot cost_off = off.ledger().snapshot();

    Machine on = envelope_machine_mesh(fam.size(), 1);
    PiecewiseFn env_on;
    {
      TraceSession session;
      env_on = parallel_envelope(on, fam, 1);
      EXPECT_GT(trace::event_count(), 0u);
    }
    CostSnapshot cost_on = on.ledger().snapshot();

    // Byte-identical figures and identical output, tracing on or off.
    EXPECT_EQ(cost_off, cost_on) << "threads=" << threads;
    ASSERT_EQ(env_off.pieces.size(), env_on.pieces.size());
    for (std::size_t i = 0; i < env_off.pieces.size(); ++i) {
      EXPECT_EQ(env_off.pieces[i].id, env_on.pieces[i].id);
      EXPECT_EQ(env_off.pieces[i].iv.lo, env_on.pieces[i].iv.lo);
      EXPECT_EQ(env_off.pieces[i].iv.hi, env_on.pieces[i].iv.hi);
    }
  }
  set_host_threads(0);  // back to the default resolution
}

// Each field `obj` must carry, with its type.
void expect_fields(
    const json::Value& obj,
    std::initializer_list<std::pair<const char*, json::Value::Type>> fields,
    const std::string& where) {
  ASSERT_TRUE(obj.is_object()) << where;
  for (const auto& [key, type] : fields) {
    const json::Value* v = obj.find(key);
    if (v == nullptr) {
      ADD_FAILURE() << where << ": no \"" << key << "\"";
    } else {
      EXPECT_EQ(v->type, type) << where << ": \"" << key << "\" mistyped";
    }
  }
}

constexpr json::Value::Type kNum = json::Value::Type::kNumber;
constexpr json::Value::Type kStr = json::Value::Type::kString;

// The trace writers' schema (docs/OBSERVABILITY.md): every Chrome event and
// every JSONL line carries each field with its type.  This is the one check
// of that schema; the --trace-out and DYNCG_TRACE fixtures only prove the
// file was written.
TEST(TraceExport, ChromeTraceAndJsonlWellFormed) {
  TraceSession session;
  Machine m = Machine::hypercube_for(8);
  std::vector<long> v(8, 1);
  ops::reduce(m, v, std::plus<long>{});
  const std::uint64_t reduce_rounds = m.ledger().snapshot().rounds;
  ops::broadcast(m, v, 0);

  // One file per process: ctest runs this binary several times at once
  // (the thread matrix beside the discovered tests).
  const std::string base = ::testing::TempDir() + "test_trace_out_" +
                           std::to_string(getpid());
  ASSERT_TRUE(trace::write(base + ".json"));
  ASSERT_TRUE(trace::write(base + ".jsonl"));

  std::ifstream in(base + ".json");
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(ss.str(), &doc, &err)) << err;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(trace::event_count(), 2u);
  ASSERT_EQ(events->array.size(), trace::event_count());
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const json::Value& e = events->array[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    expect_fields(e,
                  {{"name", kStr}, {"ph", kStr}, {"ts", kNum}, {"dur", kNum},
                   {"pid", kNum}, {"tid", kNum},
                   {"args", json::Value::Type::kObject}},
                  where);
    if (const json::Value* ph = e.find("ph")) {
      EXPECT_EQ(ph->string, "X") << where << ": not a complete event";
    }
    if (const json::Value* args = e.find("args")) {
      expect_fields(*args,
                    {{"rounds", kNum}, {"messages", kNum}, {"local_ops", kNum}},
                    where + ".args");
    }
  }
  const json::Value& e = events->array[0];
  EXPECT_EQ(e.find("name")->string, "ops.reduce");
  EXPECT_EQ(e.find("args")->find("rounds")->number,
            static_cast<double>(reduce_rounds));

  std::ifstream jl(base + ".jsonl");
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jl, line)) {
    if (line.empty()) continue;
    json::Value rec;
    ASSERT_TRUE(json::parse(line, &rec, &err)) << err;
    expect_fields(rec,
                  {{"name", kStr}, {"tid", kNum}, {"depth", kNum},
                   {"start_us", kNum}, {"dur_us", kNum}, {"rounds", kNum},
                   {"messages", kNum}, {"local_ops", kNum}},
                  "line " + std::to_string(lines + 1));
    ++lines;
  }
  EXPECT_EQ(lines, trace::event_count());

  EXPECT_FALSE(trace::write("/nonexistent-dir/trace.json"));
  std::remove((base + ".json").c_str());
  std::remove((base + ".jsonl").c_str());
}

TEST(FabricTelemetry, CountersMatchTraffic) {
  auto topo = make_mesh_for(4);  // 2x2 mesh: every node has 2 neighbors
  CostLedger ledger;
  Fabric<long> fab(*topo, &ledger);
  FabricTelemetry tel;
  fab.set_telemetry(&tel);
  ASSERT_EQ(tel.link_messages.size(), fab.directed_links());

  // Round 1: two words.  Round 2: one word.  Round 3: empty.
  std::size_t n0 = topo->neighbors(0)[0];
  std::size_t n1 = topo->neighbors(0)[1];
  fab.send(0, n0, 1L);
  fab.send(0, n1, 2L);
  fab.deliver();
  fab.send(n0, 0, 3L);
  fab.deliver();
  fab.deliver();

  EXPECT_EQ(tel.rounds, 3u);
  EXPECT_EQ(tel.messages, 3u);
  EXPECT_EQ(tel.max_in_flight, 2u);
  std::uint64_t link_total =
      std::accumulate(tel.link_messages.begin(), tel.link_messages.end(),
                      std::uint64_t{0});
  EXPECT_EQ(link_total, tel.messages);
  EXPECT_EQ(tel.max_link_messages(), 1u);
  std::uint64_t hist_total = std::accumulate(
      tel.round_histogram.begin(), tel.round_histogram.end(), std::uint64_t{0});
  EXPECT_EQ(hist_total, tel.rounds);
  // Bucket 0: the empty round; bucket 1: the 1-word round; bucket 2: the
  // 2-word round.
  ASSERT_EQ(tel.round_histogram.size(), 3u);
  EXPECT_EQ(tel.round_histogram[0], 1u);
  EXPECT_EQ(tel.round_histogram[1], 1u);
  EXPECT_EQ(tel.round_histogram[2], 1u);
  // The fabric's own ledger view agrees.
  EXPECT_EQ(ledger.snapshot().rounds, tel.rounds);
  EXPECT_EQ(ledger.snapshot().messages, tel.messages);

  EXPECT_FALSE(tel.report().empty());
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(tel.to_json(), &v, &err)) << err;
  EXPECT_EQ(v.find("messages")->number, 3.0);
}

// --- Per-label totals (trace::totals) -------------------------------------

trace::Event event(const char* name, std::uint32_t tid, std::uint32_t depth,
                   std::uint64_t start_ns, std::uint64_t dur_ns,
                   std::uint64_t rounds) {
  trace::Event e;
  e.name = name;
  e.tid = tid;
  e.depth = depth;
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.cost.rounds = rounds;
  return e;
}

const trace::Total* find_total(const std::vector<trace::Total>& totals,
                               const std::string& name) {
  for (const trace::Total& t : totals) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

TEST(TraceTotals, SameNameScopesAggregate) {
  TraceSession session;
  Machine m = Machine::hypercube_for(64);
  {
    TRACE_SPAN_COST("exchanges", m.ledger());
    m.charge_exchange(0);
    m.charge_exchange(1);
  }
  {
    TRACE_SPAN_COST("shifts", m.ledger());
    m.charge_shift(5);
  }
  {
    TRACE_SPAN_COST("exchanges", m.ledger());  // aggregates with the first
    m.charge_exchange(0);
  }
  std::vector<trace::Total> t = trace::totals(trace::snapshot());
  ASSERT_EQ(t.size(), 2u);
  const Topology& topo = m.topology();
  EXPECT_EQ(t[0].name, "exchanges");
  EXPECT_EQ(t[0].calls, 2u);
  EXPECT_EQ(t[0].self_cost.rounds,
            2 * topo.exchange_rounds(0) + topo.exchange_rounds(1));
  EXPECT_EQ(t[1].name, "shifts");
  EXPECT_EQ(t[1].calls, 1u);
  EXPECT_EQ(t[1].self_cost.rounds, 5 * topo.shift_rounds());
  EXPECT_EQ(t[0].self_cost + t[1].self_cost, m.ledger().snapshot());
  // Nothing nests here, so self is inclusive.
  for (const trace::Total& x : t) {
    EXPECT_EQ(x.self_cost, x.inclusive_cost);
    EXPECT_EQ(x.self_ns, x.inclusive_ns);
  }
}

TEST(TraceTotals, CallCountsAndCostSumToLedger) {
  TraceSession session;
  Machine m = Machine::hypercube_for(8);
  std::vector<long> v(8, 1);
  {
    TRACE_SPAN_COST("reduce", m.ledger());
    ops::reduce(m, v, std::plus<long>{});
  }
  {
    TRACE_SPAN_COST("reduce", m.ledger());
    ops::reduce(m, v, std::plus<long>{});
  }
  {
    TRACE_SPAN_COST("broadcast", m.ledger());
    ops::broadcast(m, v, 0);  // runs an ops.reduce of its own
  }
  std::vector<trace::Total> t = trace::totals(trace::snapshot());
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0].name, "broadcast");
  EXPECT_EQ(t[0].calls, 1u);
  EXPECT_EQ(t[1].name, "ops.broadcast");
  EXPECT_EQ(t[1].calls, 1u);
  EXPECT_EQ(t[2].name, "ops.reduce");
  EXPECT_EQ(t[2].calls, 3u);
  EXPECT_EQ(t[3].name, "reduce");
  EXPECT_EQ(t[3].calls, 2u);
  const CostSnapshot ledger = m.ledger().snapshot();
  EXPECT_EQ(t[0].inclusive_cost + t[3].inclusive_cost, ledger);
  CostSnapshot self;
  for (const trace::Total& x : t) self += x.self_cost;
  EXPECT_EQ(self, ledger);
  // The scopes charge nothing themselves; the leaf op charges everything.
  EXPECT_EQ(t[0].self_cost, CostSnapshot{});
  EXPECT_EQ(t[3].self_cost, CostSnapshot{});
  EXPECT_EQ(t[2].self_cost, ledger);
}

TEST(TraceTotals, SelfSubtractsOnlyDirectChildren) {
  // parent [0,100) > child [10,70) > grandchild [20,50); sibling [80,90)
  // sits directly under parent.  Given out of order on purpose.
  std::vector<trace::Event> ev = {
      event("grandchild", 0, 2, 20, 30, 100),
      event("sibling", 0, 1, 80, 10, 0),
      event("parent", 0, 0, 0, 100, 111),
      event("child", 0, 1, 10, 60, 110),
  };
  std::vector<trace::Total> t = trace::totals(ev);
  ASSERT_EQ(t.size(), 4u);
  const trace::Total* parent = find_total(t, "parent");
  const trace::Total* child = find_total(t, "child");
  const trace::Total* grandchild = find_total(t, "grandchild");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(grandchild, nullptr);
  EXPECT_EQ(parent->self_ns, 100u - 60u - 10u);
  EXPECT_EQ(parent->self_cost.rounds, 1u);  // not 111 - 110 - 100
  EXPECT_EQ(child->self_ns, 60u - 30u);
  EXPECT_EQ(child->self_cost.rounds, 10u);
  EXPECT_EQ(grandchild->self_ns, 30u);
  EXPECT_EQ(grandchild->self_cost.rounds, 100u);
  EXPECT_EQ(parent->inclusive_ns, 100u);
  EXPECT_EQ(parent->inclusive_cost.rounds, 111u);

  // One level deeper but outside parent's interval (its own parent was
  // still open when the events were collected): no one's child.
  ev.push_back(event("orphan", 0, 1, 200, 5, 4));
  std::vector<trace::Total> t2 = trace::totals(ev);
  EXPECT_EQ(find_total(t2, "parent")->self_ns, parent->self_ns);
  EXPECT_EQ(find_total(t2, "orphan")->self_ns, 5u);
}

TEST(TraceTotals, OtherThreadsAreNeverChildren) {
  // The worker span lies inside outer's interval, one level deeper, but on
  // another thread.
  std::vector<trace::Event> ev = {
      event("outer", 0, 0, 100, 50, 7),
      event("worker", 1, 1, 110, 10, 3),
  };
  std::vector<trace::Total> t = trace::totals(ev);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].name, "outer");
  EXPECT_EQ(t[0].self_ns, 50u);
  EXPECT_EQ(t[0].self_cost.rounds, 7u);
  EXPECT_EQ(t[1].name, "worker");
  EXPECT_EQ(t[1].self_ns, 10u);
  EXPECT_EQ(t[1].self_cost.rounds, 3u);
}

TEST(TraceTotals, TaggedNamesGroupWithTheirName) {
  TraceSession session;
  CostLedger ledger;
  {
    trace::Span tagged("serve.query#00ff", &ledger);
    ledger.add_rounds(2);
  }
  {
    TRACE_SPAN_COST("serve.query", ledger);
    ledger.add_rounds(3);
  }
  { TRACE_SPAN("serve.queryx"); }  // a different name, not a tag
  std::vector<trace::Total> t = trace::totals(trace::snapshot());
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].name, "serve.query");
  EXPECT_EQ(t[0].calls, 2u);
  EXPECT_EQ(t[0].inclusive_cost.rounds, 5u);
  EXPECT_EQ(t[1].name, "serve.queryx");
}

// The accounting identity on served work: every charge of a query lands in
// exactly one span's self cost, so the self costs of all names sum to the
// serve.query span's cost, which is the cost the server reports.
TEST(TraceTotals, SelfCostsSumToEachServedQuery) {
  const char* lines[] = {
      R"({"op":"neighbor","scenario":{"n":8,"k":2}})",
      R"({"op":"pairs","scenario":{"n":8,"k":2}})",
      R"({"op":"collisions","scenario":{"n":8,"k":2},"query":1})",
      R"({"op":"hullwhen","scenario":{"n":8,"k":2}})",
      R"({"op":"contain","scenario":{"n":8,"k":2}})",
      R"({"op":"steady","scenario":{"n":8,"k":2}})",
      R"({"op":"hullwhen","scenario":{"n":8,"k":2},"faults":"link:0-1@0.."})",
  };
  for (const char* line : lines) {
    SCOPED_TRACE(line);
    StatusOr<serve::Request> req = serve::parse_request(line);
    ASSERT_TRUE(req.is_ok()) << req.status().to_string();
    TraceSession session;
    StatusOr<serve::CachedResult> res = serve::run_query(req.value());
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    const CostSnapshot cost = res.value().cost;
    EXPECT_GT(cost.rounds, 0u);

    std::vector<trace::Total> t = trace::totals(trace::snapshot());
    const trace::Total* query = find_total(t, "serve.query");
    ASSERT_NE(query, nullptr);
    EXPECT_EQ(query->calls, 1u);
    EXPECT_EQ(query->inclusive_cost, cost);
    EXPECT_EQ(query->self_cost, CostSnapshot{});
    CostSnapshot self;
    for (const trace::Total& x : t) self += x.self_cost;
    EXPECT_EQ(self, cost);
    if (req.value().has_faults) {
      const trace::Total* recover = find_total(t, "fault.recover");
      ASSERT_NE(recover, nullptr);
      EXPECT_GT(recover->self_cost.rounds, 0u);
    }
  }
}

}  // namespace
}  // namespace dyncg
