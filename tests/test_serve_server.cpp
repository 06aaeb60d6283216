#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dyncg/motion.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"

// In-process tests for the server loop's resilience machinery
// (docs/ROBUSTNESS.md#serving-resilience): admission boundaries at
// queue_cap / max_conns / max_line, deadline budgets, graceful drain,
// slow-client defenses.  Each test runs a real Server on its own thread,
// speaks the wire protocol through serve::Client, and asserts exact
// response sequences — the protocol-level contracts the shell-script gates
// (serve_e2e.sh, serve_chaos.sh) can only probe statistically.
namespace dyncg {
namespace serve {
namespace {

// Server on a background thread; port() is polled until the listener is up.
class TestServer {
 public:
  explicit TestServer(ServerOptions opt) : server_(opt) {
    thread_ = std::thread([this] { status_ = server_.run(); });
    while (server_.port() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~TestServer() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }
  Server& server() { return server_; }
  int port() const { return server_.port(); }
  Status join() {
    thread_.join();
    return status_;
  }

 private:
  Server server_;
  Status status_ = Status::ok();
  std::thread thread_;
};

std::string status_of(const std::string& response) {
  json::Value v;
  if (!json::parse(response, &v)) return "<unparseable>";
  const json::Value* s = v.find("status");
  return s != nullptr && s->is_string() ? s->string : "<missing>";
}

// One counter of a `stats` response line; all ones when it is missing.
std::uint64_t stat_in(const std::string& line, const std::string& key) {
  json::Value v;
  if (!json::parse(line, &v)) return ~std::uint64_t{0};
  const json::Value* stats = v.find("stats");
  if (stats == nullptr) return ~std::uint64_t{0};
  const json::Value* x = stats->find(key);
  return x != nullptr && x->is_number() ? static_cast<std::uint64_t>(x->number)
                                        : ~std::uint64_t{0};
}

std::uint64_t stat_counter(Client& c, const std::string& key) {
  return stat_in(c.round_trip("{\"op\":\"stats\"}"), key);
}

// Records metrics while in scope.  The registry is process-wide, so tests
// compare figures before and after, never absolute values.
struct MetricsOn {
  bool was = metrics::enabled();
  MetricsOn() { metrics::enable(); }
  ~MetricsOn() {
    if (!was) metrics::disable();
  }
};

// `field` of the registry entry `name` in a `metrics` response line, from
// its `kind` array ("counters" or "histograms").  An entry not registered
// yet reads 0, like one that has recorded nothing; -1 when the line holds
// no registry.
double registry_in(const std::string& line, const std::string& kind,
                   const std::string& name, const std::string& field) {
  json::Value v;
  if (!json::parse(line, &v)) return -1;
  const json::Value* registry = v.find("metrics");
  const json::Value* entries =
      registry != nullptr ? registry->find(kind) : nullptr;
  if (entries == nullptr) return -1;
  for (const json::Value& m : entries->array) {
    const json::Value* n = m.find("name");
    const json::Value* x = m.find(field);
    if (n != nullptr && n->string == name && x != nullptr) return x->number;
  }
  return 0;
}

// Queries the engine has computed, process-wide: the observation count of
// the deterministic serve.query.rounds histogram.
double queries_computed(Client& c) {
  return registry_in(c.round_trip("{\"op\":\"metrics\"}"), "histograms",
                     "serve.query.rounds", "count");
}

// A request the engine takes tens of milliseconds to answer — long enough
// that work queued behind it observably waits.  Degree 4: at degree 2 the
// certified root search and the linear-time generator answer in ~12 ms,
// too close to the 10 ms deadlines below.
std::string heavy(int seed) {
  return "{\"op\":\"neighbor\",\"id\":\"h" + std::to_string(seed) +
         "\",\"scenario\":{\"seed\":" + std::to_string(seed) +
         ",\"n\":4096,\"k\":4}}";
}

// --- admission boundaries ----------------------------------------------------

TEST(ServeAdmission, LineCapBoundary) {
  ServerOptions opt;
  opt.max_line = 128;
  TestServer ts(opt);
  Client c(ts.port());

  // Exactly max_line bytes (newline excluded) is admitted...
  std::string line = "{\"op\":\"ping\",\"id\":\"";
  line.append(opt.max_line - line.size() - 2, 'x');
  line += "\"}";
  ASSERT_EQ(line.size(), opt.max_line);
  EXPECT_EQ(status_of(c.round_trip(line)), "OK");

  // ...one byte more is INVALID_ARGUMENT, and the connection survives.
  std::string over = "{\"op\":\"ping\",\"id\":\"";
  over.append(opt.max_line - over.size() - 1, 'x');
  over += "\"}";
  ASSERT_EQ(over.size(), opt.max_line + 1);
  std::string resp = c.round_trip(over);
  EXPECT_EQ(status_of(resp), "INVALID_ARGUMENT");
  EXPECT_NE(resp.find("max_line"), std::string::npos);
  EXPECT_EQ(status_of(c.round_trip("{\"op\":\"ping\"}")), "OK");

  // Pipelined in one write, the over-long line is answered in its place:
  // after the lines before it, before the line after it.
  auto ping = [](int id) {
    return "{\"op\":\"ping\",\"id\":" + std::to_string(id) + "}\n";
  };
  ASSERT_TRUE(c.send(ping(1) + ping(2) + over + "\n" + ping(4)));
  std::vector<std::string> rs;
  for (int i = 0; i < 4; ++i) rs.push_back(c.recv_line());
  for (int i : {0, 1, 3}) {
    EXPECT_EQ(status_of(rs[i]), "OK") << rs[i];
    EXPECT_NE(rs[i].find("\"id\":" + std::to_string(i + 1)),
              std::string::npos)
        << rs[i];
  }
  EXPECT_EQ(status_of(rs[2]), "INVALID_ARGUMENT") << rs[2];

  // So is an unterminated tail past max_line, then skipped to its newline.
  ASSERT_TRUE(c.send(ping(5) + over));
  EXPECT_NE(c.recv_line().find("\"id\":5"), std::string::npos);
  EXPECT_EQ(status_of(c.recv_line()), "INVALID_ARGUMENT");
  ASSERT_TRUE(c.send("tail\n" + ping(6)));
  EXPECT_NE(c.recv_line().find("\"id\":6"), std::string::npos);
}

TEST(ServeAdmission, QueueCapShedsOldestFirst) {
  ServerOptions opt;
  opt.queue_cap = 4;
  TestServer ts(opt);
  Client c(ts.port());

  // Six requests in one write arrive as one read burst, which take_lines
  // admits synchronously before any batch runs: lines 1-4 fill the queue,
  // line 5 sheds line 1, line 6 sheds line 2.  Shed answers are rendered
  // immediately (before the batch), so the response order is pinned:
  // two UNAVAILABLE sheds, then OK for ids 3..6.
  std::string burst;
  for (int i = 1; i <= 6; ++i) {
    burst += "{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(c.send(burst));
  std::vector<std::string> responses;
  for (int i = 0; i < 6; ++i) responses.push_back(c.recv_line());

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(status_of(responses[i]), "UNAVAILABLE") << responses[i];
    EXPECT_NE(responses[i].find("queue cap"), std::string::npos);
  }
  for (int i = 2; i < 6; ++i) {
    EXPECT_EQ(status_of(responses[i]), "OK") << responses[i];
    EXPECT_NE(responses[i].find("\"id\":" + std::to_string(i + 1)),
              std::string::npos)
        << responses[i];
  }
  EXPECT_EQ(stat_counter(c, "shed"), 2u);
}

// `stats` and `metrics` count the requests answered before them and
// themselves — what a server answering one line at a time reports — even
// when later lines share their batch.
TEST(ServeCounters, AdminOpsCountOnlyEarlierRequests) {
  std::uint64_t pings_before = 0;
  for (const metrics::CounterSnapshot& m : metrics::snapshot().counters) {
    if (m.name == "serve.requests.ping") pings_before = m.value;
  }
  MetricsOn on;
  TestServer ts(ServerOptions{});
  Client c(ts.port());
  ASSERT_TRUE(c.send(
      "{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n{\"op\":\"ping\"}\n"
      "{\"op\":\"metrics\"}\n{\"op\":\"ping\"}\n"));
  std::vector<std::string> rs;
  for (int i = 0; i < 5; ++i) rs.push_back(c.recv_line());

  EXPECT_EQ(stat_in(rs[1], "requests"), 2u) << rs[1];
  EXPECT_EQ(registry_in(rs[3], "counters", "serve.requests.ping", "value"),
            static_cast<double>(pings_before + 2))
      << rs[3];
}

// With the cache off, a sequential server computes every request, the
// second of two equal ones too, and so does a batch holding both: the
// engine's deterministic histograms do not depend on where batch
// boundaries fall.
TEST(ServeCounters, CacheOffComputesEveryRequestOfABatch) {
  MetricsOn on;
  ServerOptions opt;
  opt.cache_cap = 0;
  TestServer ts(opt);
  Client c(ts.port());
  const double computed = queries_computed(c);
  const std::string line =
      "{\"op\":\"neighbor\",\"scenario\":{\"seed\":3,\"n\":6,\"k\":1}}";
  ASSERT_TRUE(c.send(line + "\n" + line + "\n{\"op\":\"metrics\"}\n"));
  std::string first = c.recv_line();
  std::string second = c.recv_line();
  EXPECT_EQ(status_of(first), "OK") << first;
  EXPECT_EQ(second, first);
  std::string after = c.recv_line();
  EXPECT_EQ(registry_in(after, "histograms", "serve.query.rounds", "count"),
            computed + 2)
      << after;
}

// The deterministic entries of the registry, one line each.
std::string deterministic_half() {
  const metrics::RegistrySnapshot snap = metrics::snapshot();
  const auto det = [](metrics::Stability s) {
    return s == metrics::Stability::kDeterministic;
  };
  std::string out;
  for (const metrics::CounterSnapshot& c : snap.counters) {
    if (det(c.stability)) out += c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const metrics::GaugeSnapshot& g : snap.gauges) {
    if (det(g.stability)) out += g.name + " " + std::to_string(g.value) + "\n";
  }
  for (const metrics::HistogramSnapshot& h : snap.histograms) {
    if (!det(h.stability)) continue;
    out += h.name;
    for (std::uint64_t b : h.buckets) out += " " + std::to_string(b);
    out += " sum " + std::to_string(h.sum) + "\n";
  }
  return out;
}

// The deterministic half of the registry depends on the request script
// alone: not on the host thread count, and not on whether the script
// arrives in one burst (multi-request batches) or one line per round trip
// (one-request batches).  With the cache off every repeat is computed
// again, in a batch or alone.
TEST(ServeMetrics, DeterministicHalfIgnoresThreadsAndBatching) {
  std::vector<std::string> script;  // nine distinct requests, each twice
  for (int pass = 0; pass < 2; ++pass) {
    for (int seed = 1; seed <= 3; ++seed) {
      const std::string sc = "\"scenario\":{\"seed\":" +
                             std::to_string(seed) + ",\"n\":8,\"k\":1}";
      script.push_back("{\"op\":\"neighbor\"," + sc + ",\"query\":0}");
      script.push_back("{\"op\":\"collisions\"," + sc + ",\"query\":1}");
      script.push_back("{\"op\":\"contain\"," + sc + ",\"box\":[8,6]}");
    }
  }
  std::string burst_bytes;
  for (const std::string& line : script) burst_bytes += line + "\n";

  MetricsOn on;
  const unsigned threads_before = host_threads();
  for (std::size_t cache_cap : {std::size_t{4096}, std::size_t{0}}) {
    std::string first;
    for (unsigned threads : {1u, 4u}) {
      for (bool burst : {true, false}) {
        const std::string run = "cache_cap " + std::to_string(cache_cap) +
                                ", threads " + std::to_string(threads) +
                                (burst ? ", burst" : ", line per round trip");
        set_host_threads(threads);
        metrics::reset();
        {
          ServerOptions opt;
          opt.cache_cap = cache_cap;
          TestServer ts(opt);
          Client c(ts.port());
          if (burst) {
            ASSERT_TRUE(c.send(burst_bytes)) << run;
          }
          for (const std::string& line : script) {
            const std::string r = burst ? c.recv_line() : c.round_trip(line);
            ASSERT_EQ(status_of(r), "OK") << run << ": " << r;
          }
        }  // the server stops before the registry is read
        const std::string det = deterministic_half();
        if (first.empty()) {
          first = det;
          EXPECT_NE(first.find("serve.requests.neighbor 6\n"),
                    std::string::npos)
              << first;
        } else {
          EXPECT_EQ(det, first) << run;
        }
      }
    }
  }
  set_host_threads(threads_before);
}

TEST(ServeAdmission, ConnLimitBoundary) {
  ServerOptions opt;
  opt.max_conns = 2;
  TestServer ts(opt);

  // Exactly max_conns clients are served concurrently...
  Client c1(ts.port());
  Client c2(ts.port());
  EXPECT_EQ(status_of(c1.round_trip("{\"op\":\"ping\"}")), "OK");
  EXPECT_EQ(status_of(c2.round_trip("{\"op\":\"ping\"}")), "OK");

  // ...the next connect is told UNAVAILABLE and closed.
  {
    Client c3(ts.port());
    std::string bye = c3.recv_line();
    EXPECT_EQ(status_of(bye), "UNAVAILABLE") << bye;
    EXPECT_NE(bye.find("connection limit"), std::string::npos);
    EXPECT_EQ(c3.recv_line(), "");  // EOF
  }
}

// --- degenerate scenarios ----------------------------------------------------

// Well-formed lines whose scenario the algorithms cannot take: one point for
// the ops that need two, a query point sharing its trajectory with another
// (the distinct-trajectory assumption of the paper's Section 2.4), and
// machines larger than the simulable CCC (2,048 PEs) or shuffle-exchange
// (4,096 PEs) although the scenario is within the protocol caps.  Each is
// one INVALID_ARGUMENT answer; the server and the connection carry on.
TEST(ServeErrors, DegenerateScenariosAreInvalidArguments) {
  ServerOptions opt;
  TestServer ts(opt);
  Client c(ts.port());
  const std::string lines[] = {
      "{\"op\":\"pairs\",\"scenario\":{\"n\":1}}",
      "{\"op\":\"contain\",\"scenario\":{\"n\":1}}",
      "{\"op\":\"steady\",\"scenario\":{\"n\":1}}",
      "{\"op\":\"collisions\",\"scenario\":"
      "{\"points\":[[[0],[0]],[[0],[0]]],\"d\":2}}",
      "{\"op\":\"neighbor\",\"machine\":\"ccc\",\"scenario\":{\"n\":256}}",
      "{\"op\":\"neighbor\",\"machine\":\"shuffle\",\"scenario\":{\"n\":300}}",
      "{\"op\":\"collisions\",\"machine\":\"ccc\",\"scenario\":{\"n\":3000}}",
      "{\"op\":\"steady\",\"machine\":\"ccc\",\"scenario\":{\"n\":3000}}",
  };
  std::string burst;
  for (const std::string& line : lines) burst += line + "\n";
  burst += "{\"op\":\"ping\"}\n";
  ASSERT_TRUE(c.send(burst));
  for (const std::string& line : lines) {
    std::string r = c.recv_line();
    EXPECT_EQ(status_of(r), "INVALID_ARGUMENT") << line << " -> " << r;
  }
  std::string pong = c.recv_line();
  EXPECT_EQ(status_of(pong), "OK") << pong;
  EXPECT_EQ(stat_counter(c, "errors"), std::size(lines));
}

// A fault plan whose downed link partitions the machine the op is sized
// onto: the run cannot recover, so the line answers UNRECOVERABLE and the
// server carries on.  Errors are never cached, so the repeat fails too.
TEST(ServeErrors, PartitioningFaultPlanIsUnrecoverable) {
  ServerOptions opt;
  TestServer ts(opt);
  Client c(ts.port());
  const std::string partition =
      "{\"op\":\"collisions\",\"machine\":\"hypercube\",\"scenario\":"
      "{\"n\":2,\"k\":1},\"faults\":\"link:0-1@0..\"}";
  ASSERT_TRUE(c.send(partition + "\n" + partition + "\n{\"op\":\"ping\"}\n"));
  for (int i = 0; i < 2; ++i) {
    std::string r = c.recv_line();
    EXPECT_EQ(status_of(r), "UNRECOVERABLE") << r;
    EXPECT_NE(r.find("downed link 0-1 partitions the machine"),
              std::string::npos)
        << r;
  }
  std::string pong = c.recv_line();
  EXPECT_EQ(status_of(pong), "OK") << pong;
  EXPECT_EQ(stat_counter(c, "errors"), 2u);
  EXPECT_EQ(stat_counter(c, "entries"), 0u);
}

// P0 = (1e300 + 2e288 t^3, 1e300 + 2e288 t^3) never meets P1 at the origin.
// Both coordinate differences overflow at the root search's top end,
// t = 5e11; an overflowed value is no root, so the answer is no collision,
// not one at t = 5e11.
TEST(ServeAnswers, OverflowAtTheSearchEndIsNoCollision) {
  ServerOptions opt;
  TestServer ts(opt);
  Client c(ts.port());
  std::string r = c.round_trip(
      "{\"op\":\"collisions\",\"scenario\":{\"points\":"
      "[[[1e300,0,0,2e288],[1e300,0,0,2e288]],[[0],[0]]],\"d\":2}}");
  EXPECT_EQ(status_of(r), "OK") << r;
  EXPECT_NE(r.find("\"result\":\"no collisions for P0\\n\""),
            std::string::npos)
      << r;
}

// --- deadlines ---------------------------------------------------------------

TEST(ServeDeadline, ExpiredAtDequeueWithoutTouchingCache) {
  MetricsOn on;
  // The victim waits behind the heavy request, in the next batch
  // (batch_cap 1) or in the same one (the default cap), and its budget
  // runs out before its turn comes.
  const struct {
    std::size_t batch_cap;
    int deadline_ms;
  } cases[] = {{1, 1}, {ServerOptions{}.batch_cap, 10}};
  for (const auto& k : cases) {
    SCOPED_TRACE("batch_cap " + std::to_string(k.batch_cap));
    ServerOptions opt;
    opt.batch_cap = k.batch_cap;
    TestServer ts(opt);
    Client c(ts.port());

    const double computed = queries_computed(c);
    const std::string victim =
        "{\"op\":\"neighbor\",\"id\":\"v\",\"scenario\":"
        "{\"seed\":7,\"n\":6,\"k\":1},\"deadline_ms\":" +
        std::to_string(k.deadline_ms) + "}";
    ASSERT_TRUE(c.send(heavy(1) + "\n" + victim + "\n"));
    std::string first = c.recv_line();
    EXPECT_EQ(status_of(first), "OK") << first;
    std::string second = c.recv_line();
    EXPECT_EQ(status_of(second), "DEADLINE_EXCEEDED") << second;
    EXPECT_NE(second.find("\"id\":\"v\""), std::string::npos) << second;
    // The engine ran for the heavy request only.
    EXPECT_EQ(queries_computed(c), computed + 1);

    // The expired request never ran and never touched the cache: the same
    // scenario sent again (no deadline) is a miss, and the counters agree.
    std::string retry = c.round_trip(
        "{\"op\":\"neighbor\",\"id\":\"v2\",\"scenario\":"
        "{\"seed\":7,\"n\":6,\"k\":1}}");
    EXPECT_EQ(status_of(retry), "OK") << retry;
    EXPECT_NE(retry.find("\"cache\":\"miss\""), std::string::npos) << retry;
    EXPECT_EQ(stat_counter(c, "deadline_exceeded"), 1u);
  }
}

TEST(ServeDeadline, ServerDefaultAppliesAndPerRequestOverrides) {
  ServerOptions opt;
  opt.batch_cap = 1;
  opt.deadline_ms = 1;  // server-wide default: everything queued expires
  TestServer ts(opt);
  Client c(ts.port());

  // The victim inherits the 1 ms server default and expires waiting behind
  // the heavy request (which may or may not expire itself, depending on
  // how fast it reaches the front — only the victim's fate is pinned).
  const char* victim =
      "{\"op\":\"ping\",\"id\":\"inherit\"}";
  ASSERT_TRUE(c.send(heavy(2) + "\n" + victim + "\n"));
  (void)c.recv_line();  // heavy: OK or DEADLINE_EXCEEDED, both legal
  std::string second = c.recv_line();
  EXPECT_EQ(status_of(second), "DEADLINE_EXCEEDED") << second;
  EXPECT_NE(second.find("\"id\":\"inherit\""), std::string::npos) << second;

  // A generous per-request deadline_ms overrides the tight default.
  std::string ride =
      "{\"op\":\"ping\",\"id\":\"override\",\"deadline_ms\":60000}";
  ASSERT_TRUE(c.send(heavy(3) + "\n" + ride + "\n"));
  (void)c.recv_line();
  std::string fourth = c.recv_line();
  EXPECT_EQ(status_of(fourth), "OK") << fourth;
  EXPECT_NE(fourth.find("\"id\":\"override\""), std::string::npos) << fourth;
}

// --- result cache ------------------------------------------------------------

// With the cache full, a key that was cached when its batch began can be
// evicted by an earlier miss in the same batch before its turn comes.  A
// sequential server would count that request a miss and compute it, and so
// does the batch: OK, never an error.
TEST(ServeCache, KeyEvictedEarlierInItsBatchIsRecomputed) {
  ServerOptions opt;
  opt.cache_cap = 1;
  TestServer ts(opt);
  Client c(ts.port());
  auto request = [](int seed) {
    return "{\"op\":\"neighbor\",\"scenario\":{\"seed\":" +
           std::to_string(seed) + ",\"n\":6,\"k\":1}}";
  };
  EXPECT_EQ(status_of(c.round_trip(request(1))), "OK");  // caches seed 1

  // One burst, one batch: seed 2 misses and its insert evicts seed 1.
  ASSERT_TRUE(c.send(request(2) + "\n" + request(1) + "\n"));
  std::string second = c.recv_line();
  std::string first_again = c.recv_line();
  EXPECT_EQ(status_of(second), "OK") << second;
  EXPECT_EQ(status_of(first_again), "OK") << first_again;
  EXPECT_NE(first_again.find("\"cache\":\"miss\""), std::string::npos)
      << first_again;
  EXPECT_EQ(stat_counter(c, "errors"), 0u);
  EXPECT_EQ(stat_counter(c, "misses"), 3u);
  EXPECT_EQ(stat_counter(c, "evictions"), 2u);
}

// The same with inline scenarios, which a lookup only reads: the evicted
// key must be finished (system built, fingerprint computed) before it is
// computed, and it answers with the first miss's bytes and key.
TEST(ServeCache, InlineKeyEvictedEarlierInItsBatchIsFinishedAndRecomputed) {
  ServerOptions opt;
  opt.cache_cap = 1;
  TestServer ts(opt);
  Client c(ts.port());
  auto request = [](int shift) {
    return "{\"op\":\"neighbor\",\"scenario\":{\"points\":[[[" +
           std::to_string(shift) +
           ",1],[2]],[[3],[4,-1]],[[1.5,0.25],[7]]]},\"query\":1}";
  };
  const std::string first = c.round_trip(request(0));  // caches shift 0
  EXPECT_EQ(status_of(first), "OK") << first;

  ASSERT_TRUE(c.send(request(5) + "\n" + request(0) + "\n"));
  std::string second = c.recv_line();
  std::string first_again = c.recv_line();
  EXPECT_EQ(status_of(second), "OK") << second;
  // Both answers to shift 0 were misses, so they are the same bytes.
  EXPECT_EQ(first_again, first);
  // A hit renders its key from the entry: only "cache" differs.
  std::string hit = c.round_trip(request(0));
  const std::size_t at = first.find("\"cache\":\"miss\"");
  ASSERT_NE(at, std::string::npos) << first;
  EXPECT_EQ(hit, first.substr(0, at) + "\"cache\":\"hit\"" +
                     first.substr(at + 14));
  EXPECT_EQ(stat_counter(c, "errors"), 0u);
  EXPECT_EQ(stat_counter(c, "misses"), 3u);
  EXPECT_EQ(stat_counter(c, "evictions"), 2u);
}

// Two scenarios whose hex texts coincide (P0 = (1.5, b + 3t) with b's bits
// 0x...0c, and P0 = (1.5 - 2t, 3): the coordinate separator 'c' is also a
// hex digit) are two cache entries.  They share the 64-bit response name,
// but the second is computed, not served from the first's answer.
TEST(ServeCache, ScenariosWithOneHexTextAreDistinctEntries) {
  ServerOptions opt;
  TestServer ts(opt);
  Client c(ts.port());
  const std::string rest = "[[4],[5]],[[-10],[3]]],\"d\":2}}";
  std::string up = c.round_trip(
      "{\"op\":\"neighbor\",\"scenario\":{\"points\":[[[1.5],[6e-323,3]]," +
      rest);
  std::string left = c.round_trip(
      "{\"op\":\"neighbor\",\"scenario\":{\"points\":[[[1.5,-2],[3]]," + rest);
  EXPECT_NE(up.find("\"result\":\"nearest of P0: P1 on [0, inf); \\n\""),
            std::string::npos)
      << up;
  EXPECT_NE(left.find("\"cache\":\"miss\""), std::string::npos) << left;
  EXPECT_NE(left.find("P2 on [2.17857, inf)"), std::string::npos) << left;
  EXPECT_EQ(up.substr(up.find("\"key\""), 26),
            left.substr(left.find("\"key\""), 26));
}

// --- graceful drain ----------------------------------------------------------

TEST(ServeDrain, RejectsNewWorkFinishesQueuedAndExitsOk) {
  ServerOptions opt;
  opt.batch_cap = 1;
  opt.drain_ms = 30000;  // ample: everything queued must complete
  TestServer ts(opt);
  Client c(ts.port());

  // ~1.5 s of queued heavy work keeps the server draining long enough to
  // observe the draining rejection deterministically.
  std::string burst;
  for (int i = 0; i < 30; ++i) burst += heavy(100 + i) + "\n";
  ASSERT_TRUE(c.send(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server().request_drain();
  // The drain flag is observed between batches; this line arrives while
  // the server is still chewing through the queued heavies, so by the time
  // it is read, draining_ is set and the rejection is deterministic.  Its
  // response is rendered after the heavies' (the batch loop does not poll),
  // so it is read last.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(c.send("{\"op\":\"ping\",\"id\":\"late\"}\n"));

  // All 30 queued heavies still complete OK, in order...
  int ok = 0;
  for (int i = 0; i < 30; ++i) {
    std::string r = c.recv_line();
    if (status_of(r) == "OK") ++ok;
  }
  EXPECT_EQ(ok, 30);
  // ...the late line is rejected with the draining marker, and the server
  // returns cleanly.
  std::string late = c.recv_line();
  EXPECT_EQ(status_of(late), "UNAVAILABLE") << late;
  EXPECT_NE(late.find("\"draining\":true"), std::string::npos) << late;
  EXPECT_EQ(c.recv_line(), "");  // drained server closed the connection
  Status st = ts.join();
  EXPECT_TRUE(st.is_ok()) << st.to_string();
}

TEST(ServeDrain, BudgetExpiryShedsRemainingWork) {
  ServerOptions opt;
  opt.batch_cap = 1;
  opt.drain_ms = 150;  // far less than the queued ~1.5 s of work
  TestServer ts(opt);
  Client c(ts.port());

  std::string burst;
  for (int i = 0; i < 30; ++i) burst += heavy(200 + i) + "\n";
  ASSERT_TRUE(c.send(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server().request_drain();

  // Every queued line is answered exactly once: the few that beat the
  // budget complete OK, the rest are shed UNAVAILABLE — none vanish.
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < 30; ++i) {
    std::string r = c.recv_line();
    ASSERT_NE(r, "") << "response " << i << " missing after drain";
    std::string s = status_of(r);
    if (s == "OK") ++ok;
    if (s == "UNAVAILABLE") {
      EXPECT_NE(r.find("shed while draining"), std::string::npos) << r;
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 30);
  EXPECT_GT(shed, 0) << "a 150 ms budget cannot fit ~1.5 s of work";
  Status st = ts.join();
  EXPECT_TRUE(st.is_ok()) << st.to_string();
}

// --- fleet sessions ----------------------------------------------------------

std::string field_of(const std::string& response, const std::string& key) {
  json::Value v;
  if (!json::parse(response, &v)) return "<unparseable>";
  const json::Value* x = v.find(key);
  if (x == nullptr) return "<missing>";
  if (x->is_string()) return x->string;
  if (x->is_number()) return std::to_string(x->number);
  return "<wrong-type>";
}

TEST(ServeFleet, LifecycleMatchesOracleAndStatsTrackSessions) {
  ServerOptions opt;
  TestServer ts(opt);
  Client c(ts.port());

  std::string open = c.round_trip(
      "{\"op\":\"fleet_open\",\"d\":2,\"k\":1}");
  ASSERT_EQ(status_of(open), "OK") << open;
  EXPECT_NE(open.find("\"fleet\":\"fleet-1\""), std::string::npos) << open;
  EXPECT_EQ(stat_counter(c, "fleets"), 1u);

  std::string update = c.round_trip(
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":5,\"point\":[[4,-1],[0]]},"
      "{\"id\":2,\"point\":[[0,1],[3]]}],\"advance\":1.5}");
  ASSERT_EQ(status_of(update), "OK") << update;
  EXPECT_NE(update.find("\"inserted\":2"), std::string::npos) << update;
  EXPECT_NE(update.find("\"t\":\"1.5\""), std::string::npos) << update;

  // The served envelope must be byte-identical to the from-scratch oracle
  // over the same member set — the correctness contract of the maintained
  // merge tree, checked here through the full wire path.
  const std::map<std::uint64_t, Trajectory> members = {
      {5, Trajectory({Polynomial({4.0, -1.0}), Polynomial({0.0})})},
      {2, Trajectory({Polynomial({0.0, 1.0}), Polynomial({3.0})})},
  };
  std::string query =
      c.round_trip("{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}");
  ASSERT_EQ(status_of(query), "OK") << query;
  EXPECT_EQ(fleet_oracle_mismatch(query, members, 1.5, /*k=*/1), "") << query;

  std::string closed =
      c.round_trip("{\"op\":\"fleet_close\",\"fleet\":\"fleet-1\"}");
  ASSERT_EQ(status_of(closed), "OK") << closed;
  EXPECT_EQ(stat_counter(c, "fleets"), 0u);
  // The name is retired with the session.
  EXPECT_EQ(status_of(c.round_trip(
                "{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}")),
            "INVALID_ARGUMENT");
}

TEST(ServeFleet, AdmissionCapsSessionsAndMembers) {
  ServerOptions opt;
  opt.max_fleets = 1;
  opt.max_fleet_members = 2;
  TestServer ts(opt);
  Client c(ts.port());

  ASSERT_EQ(status_of(c.round_trip("{\"op\":\"fleet_open\"}")), "OK");
  std::string refused = c.round_trip("{\"op\":\"fleet_open\"}");
  EXPECT_EQ(status_of(refused), "UNAVAILABLE") << refused;

  // Two members fit; a batch that would reach three is refused whole, and
  // an erase+insert in one batch stays within the cap.
  ASSERT_EQ(status_of(c.round_trip(
                "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
                "{\"id\":1,\"point\":[[1],[0]]},"
                "{\"id\":2,\"point\":[[2],[0]]}]}")),
            "OK");
  std::string over = c.round_trip(
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":3,\"point\":[[3],[0]]}]}");
  EXPECT_EQ(status_of(over), "UNAVAILABLE") << over;
  std::string swap = c.round_trip(
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"erase\":[1],"
      "\"insert\":[{\"id\":3,\"point\":[[3],[0]]}]}");
  EXPECT_EQ(status_of(swap), "OK") << swap;
  EXPECT_NE(swap.find("\"members\":2"), std::string::npos) << swap;

  // Closing the only session frees its slot for a new open.
  ASSERT_EQ(status_of(c.round_trip(
                "{\"op\":\"fleet_close\",\"fleet\":\"fleet-1\"}")),
            "OK");
  std::string reopened = c.round_trip("{\"op\":\"fleet_open\"}");
  EXPECT_EQ(status_of(reopened), "OK");
  // Session names are never reused within a server's lifetime.
  EXPECT_NE(reopened.find("\"fleet\":\"fleet-2\""), std::string::npos)
      << reopened;
}

TEST(ServeFleet, RejectedUpdateLeavesSessionUntouched) {
  ServerOptions opt;
  TestServer ts(opt);
  Client c(ts.port());

  ASSERT_EQ(status_of(c.round_trip("{\"op\":\"fleet_open\",\"k\":1}")), "OK");
  ASSERT_EQ(status_of(c.round_trip(
                "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
                "{\"id\":1,\"point\":[[1],[0]]}],\"advance\":2}")),
            "OK");
  const std::string before =
      c.round_trip("{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}");

  // Each rejected batch carries one bad op alongside a valid insert; the
  // valid part must not land (validate-all-then-apply).
  const char* bad_updates[] = {
      // erase of an unknown member
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9],[0]]}],\"erase\":[404]}",
      // duplicate member id
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9],[0]]},{\"id\":1,\"point\":[[8],[0]]}]}",
      // insert above the session's motion degree
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9],[0]]},{\"id\":8,\"point\":[[1,1,1],[0]]}]}",
      // time moving backwards
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9],[0]]}],\"advance\":1}",
      // wrong arity for the session dimension
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9]]}]}",
  };
  for (const char* line : bad_updates) {
    EXPECT_EQ(status_of(c.round_trip(line)), "INVALID_ARGUMENT") << line;
    EXPECT_EQ(c.round_trip("{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}"),
              before)
        << "session changed by rejected update: " << line;
  }
}

TEST(ServeFleet, BackwardAdvanceNamesBothTimesExactly) {
  // Times at the 1/65536 tick scale print exactly (%.17g, as in the
  // responses' "t"), and the rejection names the session time too.
  ServerOptions opt;
  TestServer ts(opt);
  Client c(ts.port());

  ASSERT_EQ(status_of(c.round_trip("{\"op\":\"fleet_open\",\"k\":1}")), "OK");
  ASSERT_EQ(status_of(c.round_trip(
                "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
                "{\"id\":1,\"point\":[[1],[0]]}],"
                "\"advance\":0.0000457763671875}")),
            "OK");
  const std::string rejected = c.round_trip(
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\","
      "\"advance\":0.0000152587890625}");
  EXPECT_EQ(status_of(rejected), "INVALID_ARGUMENT") << rejected;
  EXPECT_EQ(field_of(rejected, "error"),
            "advance to 1.52587890625e-05 is before the session time "
            "4.57763671875e-05 (time is monotone)");
}

TEST(ServeFleet, PipelinedBurstKeepsArrivalOrder) {
  // Fleet ops ride the same batch replay as everything else: a single
  // write containing open/update/query/close interleaved with pings is
  // answered strictly in arrival order.
  ServerOptions opt;
  TestServer ts(opt);
  Client c(ts.port());
  std::string burst;
  burst += "{\"op\":\"fleet_open\",\"id\":1}\n";
  burst += "{\"op\":\"ping\",\"id\":2}\n";
  burst +=
      "{\"op\":\"fleet_update\",\"id\":3,\"fleet\":\"fleet-1\","
      "\"insert\":[{\"id\":1,\"point\":[[1],[1]]}]}\n";
  burst += "{\"op\":\"fleet_query\",\"id\":4,\"fleet\":\"fleet-1\"}\n";
  burst += "{\"op\":\"fleet_close\",\"id\":5,\"fleet\":\"fleet-1\"}\n";
  ASSERT_TRUE(c.send(burst));
  for (int i = 1; i <= 5; ++i) {
    std::string r = c.recv_line();
    EXPECT_EQ(status_of(r), "OK") << r;
    EXPECT_NE(r.find("\"id\":" + std::to_string(i)), std::string::npos) << r;
  }
}

// --- slow-client defenses ----------------------------------------------------

TEST(ServeSlowClient, OutputBufferOverflowDisconnects) {
  ServerOptions opt;
  opt.max_out_buf = 2048;
  TestServer ts(opt);

  // A client that pipelines hundreds of requests and never reads: kernel
  // buffers (SO_SNDBUF capped near max_out_buf, tiny SO_RCVBUF here) fill
  // within a few KiB, the server-side backlog crosses max_out_buf, and the
  // connection is cut.  The client cannot get all its answers — that IS
  // the defense; memory stayed bounded instead.
  Client c(ts.port(), /*rcvbuf=*/1024);
  std::string burst;
  for (int i = 0; i < 500; ++i) {
    burst += "{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(c.send(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int got = 0;
  while (!c.recv_line().empty()) ++got;
  EXPECT_LT(got, 500);

  // The server is unharmed and still answers a well-behaved client.
  Client fresh(ts.port());
  EXPECT_EQ(status_of(fresh.round_trip("{\"op\":\"ping\"}")), "OK");
}

TEST(ServeSlowClient, StallTimeoutReapsIdleConnectionsOnly) {
  ServerOptions opt;
  opt.stall_timeout_ms = 200;
  TestServer ts(opt);

  Client stalled(ts.port());
  Client active(ts.port());
  // `stalled` sends half a line and goes quiet; `active` keeps making
  // progress across several stall windows and must be spared.
  ASSERT_TRUE(stalled.send("{\"op\":\"ping\","));
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(status_of(active.round_trip("{\"op\":\"ping\"}")), "OK");
  }
  EXPECT_EQ(stalled.recv_line(), "");  // reaped: EOF, no response
}

}  // namespace
}  // namespace serve
}  // namespace dyncg
