#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "dyncg/motion.hpp"
#include "envelope/dynamic_envelope.hpp"
#include "envelope/scenario_key.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/status.hpp"

// In-process tests for the server loop's resilience machinery
// (docs/ROBUSTNESS.md#serving-resilience): admission boundaries at
// queue_cap / max_conns / max_line, deadline budgets, graceful drain,
// slow-client defenses.  Each test runs a real Server on its own thread,
// speaks the wire protocol over loopback sockets, and asserts exact
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

// Blocking loopback client with line framing.
class Client {
 public:
  explicit Client(int port, int rcvbuf = 0) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    if (rcvbuf > 0) {
      setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;  // send_raw/recv_line fail loudly in the test body
    }
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }

  // Send raw bytes (the caller supplies newlines, so several requests can
  // go out in one write and land in one server read burst).
  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Next response line; empty string on EOF / reset.
  std::string recv_line() {
    for (;;) {
      std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string round_trip(const std::string& request) {
    if (!send_raw(request + "\n")) return "";
    return recv_line();
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string status_of(const std::string& response) {
  json::Value v;
  if (!json::parse(response, &v)) return "<unparseable>";
  const json::Value* s = v.find("status");
  return s != nullptr && s->is_string() ? s->string : "<missing>";
}

std::uint64_t stat_counter(Client& c, const std::string& key) {
  std::string line = c.round_trip("{\"op\":\"stats\"}");
  json::Value v;
  if (!json::parse(line, &v)) return ~std::uint64_t{0};
  const json::Value* stats = v.find("stats");
  if (stats == nullptr) return ~std::uint64_t{0};
  const json::Value* x = stats->find(key);
  return x != nullptr && x->is_number() ? static_cast<std::uint64_t>(x->number)
                                        : ~std::uint64_t{0};
}

// A request the engine takes tens of milliseconds to answer — long enough
// that work queued behind it observably waits.
std::string heavy(int seed) {
  return "{\"op\":\"neighbor\",\"id\":\"h" + std::to_string(seed) +
         "\",\"scenario\":{\"seed\":" + std::to_string(seed) +
         ",\"n\":4096,\"k\":2}}";
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
  ASSERT_TRUE(c.send_raw(burst));
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

// --- deadlines ---------------------------------------------------------------

TEST(ServeDeadline, ExpiredAtDequeueWithoutTouchingCache) {
  ServerOptions opt;
  opt.batch_cap = 1;  // the victim waits behind the heavy request
  TestServer ts(opt);
  Client c(ts.port());

  const char* victim =
      "{\"op\":\"neighbor\",\"id\":\"v\",\"scenario\":"
      "{\"seed\":7,\"n\":6,\"k\":1},\"deadline_ms\":1}";
  ASSERT_TRUE(c.send_raw(heavy(1) + "\n" + victim + "\n"));
  std::string first = c.recv_line();
  EXPECT_EQ(status_of(first), "OK") << first;
  std::string second = c.recv_line();
  EXPECT_EQ(status_of(second), "DEADLINE_EXCEEDED") << second;
  EXPECT_NE(second.find("\"id\":\"v\""), std::string::npos) << second;

  // The expired request never ran and never touched the cache: the same
  // scenario sent again (no deadline) is a miss, and the counters agree.
  std::string retry = c.round_trip(
      "{\"op\":\"neighbor\",\"id\":\"v2\",\"scenario\":"
      "{\"seed\":7,\"n\":6,\"k\":1}}");
  EXPECT_EQ(status_of(retry), "OK") << retry;
  EXPECT_NE(retry.find("\"cache\":\"miss\""), std::string::npos) << retry;
  EXPECT_EQ(stat_counter(c, "deadline_exceeded"), 1u);
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
  ASSERT_TRUE(c.send_raw(heavy(2) + "\n" + victim + "\n"));
  (void)c.recv_line();  // heavy: OK or DEADLINE_EXCEEDED, both legal
  std::string second = c.recv_line();
  EXPECT_EQ(status_of(second), "DEADLINE_EXCEEDED") << second;
  EXPECT_NE(second.find("\"id\":\"inherit\""), std::string::npos) << second;

  // A generous per-request deadline_ms overrides the tight default.
  std::string ride =
      "{\"op\":\"ping\",\"id\":\"override\",\"deadline_ms\":60000}";
  ASSERT_TRUE(c.send_raw(heavy(3) + "\n" + ride + "\n"));
  (void)c.recv_line();
  std::string fourth = c.recv_line();
  EXPECT_EQ(status_of(fourth), "OK") << fourth;
  EXPECT_NE(fourth.find("\"id\":\"override\""), std::string::npos) << fourth;
}

// --- result cache ------------------------------------------------------------

// With the cache full, a key the plan pass found cached can be evicted by an
// earlier miss in the same batch before the replay pass reaches it.  A
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
  ASSERT_TRUE(c.send_raw(request(2) + "\n" + request(1) + "\n"));
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
  ASSERT_TRUE(c.send_raw(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server().request_drain();
  // The drain flag is observed between batches; this line arrives while
  // the server is still chewing through the queued heavies, so by the time
  // it is read, draining_ is set and the rejection is deterministic.  Its
  // response is rendered after the heavies' (the batch loop does not poll),
  // so it is read last.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(c.send_raw("{\"op\":\"ping\",\"id\":\"late\"}\n"));

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
  ASSERT_TRUE(c.send_raw(burst));
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
  const Trajectory ref = fleet_origin(2);
  std::vector<std::pair<std::uint64_t, Polynomial>> members;
  members.emplace_back(
      5, fleet_score(
             Trajectory({Polynomial({4.0, -1.0}), Polynomial({0.0})}), ref));
  members.emplace_back(
      2, fleet_score(
             Trajectory({Polynomial({0.0, 1.0}), Polynomial({3.0})}), ref));
  DynamicEnvelope oracle =
      canonical_rebuild(members, 1.5, /*take_min=*/true, fleet_s_bound(1));
  std::string query =
      c.round_trip("{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}");
  ASSERT_EQ(status_of(query), "OK") << query;
  EXPECT_EQ(field_of(query, "result"), oracle.result_string()) << query;
  EXPECT_EQ(field_of(query, "key"),
            fingerprint_hex(oracle.state_fingerprint()));

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
  ASSERT_TRUE(c.send_raw(burst));
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
  ASSERT_TRUE(c.send_raw(burst));
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
  ASSERT_TRUE(stalled.send_raw("{\"op\":\"ping\","));
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(status_of(active.round_trip("{\"op\":\"ping\"}")), "OK");
  }
  EXPECT_EQ(stalled.recv_line(), "");  // reaped: EOF, no response
}

}  // namespace
}  // namespace serve
}  // namespace dyncg
