#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "support/status.hpp"

// The dyncg_serve daemon core: a single poll() loop on 127.0.0.1 accepting
// line-delimited JSON requests (serve/protocol.hpp), batching them, and
// answering repeated scenarios from the result cache (serve/cache.hpp).
//
// Batching model (docs/SERVING.md#batching).  Complete lines drain into one
// pending queue; each loop iteration takes up to batch_cap of them and
// answers them in one pass, in arrival order, as a sequential server would:
// read the line, count it, check its deadline, then answer it — admin and
// fleet ops directly, a hit from its cache entry, a miss finished, computed
// where it stands, inserted and rendered.  Hit/miss/eviction counters,
// engine metrics and every response byte are therefore a pure function of
// the request sequence — independent of batch boundaries, timing, and
// DYNCG_THREADS — which is what the determinism tests assert.
//
// Admission control (docs/SERVING.md#admission).  A line that arrives while
// the pending queue holds queue_cap entries sheds the *oldest* queued line
// (answered UNAVAILABLE, never parsed) and takes its slot — under sustained
// overload the freshest work runs and the stalest is dropped first; a line
// longer than max_line is answered INVALID_ARGUMENT and discarded up to its
// newline; a connection beyond max_conns is told UNAVAILABLE and closed.
// Rejections cost O(1) — no machine is ever built for them.
//
// Resilience (docs/ROBUSTNESS.md#serving-resilience).  Each request carries
// a deadline budget (the server's deadline_ms default, overridable per
// request) measured from its arrival; a request whose budget has expired
// when its turn comes is answered DEADLINE_EXCEEDED without running the
// engine, and never touches the cache — so cache counters stay a pure
// function of the requests that actually completed.  Writes are
// non-blocking with a bounded per-connection output buffer (overflow closes
// the connection) and a stall timeout reaps connections making no read or
// write progress, so one slow or dead peer can never wedge the loop or grow
// memory without bound.  request_drain() (the tool's SIGTERM handler)
// enters a draining state: stop accepting, answer new lines UNAVAILABLE
// with "draining":true, finish or shed queued work within drain_ms, flush
// artifacts, and return OK.
namespace dyncg {
namespace serve {

struct ServerOptions {
  int port = 0;               // 0 = ephemeral; resolved port via port_file
  std::string port_file;      // write "PORT\n" here once listening
  std::size_t max_line = std::size_t{1} << 20;  // bytes, newline excluded
  std::size_t queue_cap = 1024;  // pending parsed-line limit
  std::size_t batch_cap = 64;    // requests per processing batch
  std::size_t cache_cap = 4096;  // result-cache entries (0 disables)
  std::size_t max_conns = 64;    // concurrent connections
  // Trace file the `flush_trace` op / SIGUSR1 write-and-clear into; empty
  // means flush requests are answered UNAVAILABLE (tracing is off).
  std::string trace_out;
  // Metrics exposition file, rewritten every metrics_interval_s seconds
  // while serving (and once at startup / shutdown): ".json" suffix =
  // registry JSON, anything else Prometheus text.  Empty disables.
  std::string metrics_out;
  unsigned metrics_interval_s = 5;
  // Resolves the revision the `stats` response reports.  The server calls
  // it once, on the first `stats` request, so start-up runs no subprocess;
  // unset reports "unknown".
  std::function<std::string()> git_rev;
  // Default per-request deadline budget in milliseconds, measured from the
  // line's arrival; 0 disables.  A request's own "deadline_ms" overrides.
  std::uint64_t deadline_ms = 0;
  // Graceful-drain budget after request_drain(): queued work that cannot
  // finish within drain_ms milliseconds is shed before the loop returns.
  std::uint64_t drain_ms = 5000;
  // Close connections that make no read or write progress for this long;
  // 0 disables.  Defends against stalled readers and half-dead peers.
  std::uint64_t stall_timeout_ms = 60000;
  // Per-connection cap on buffered response bytes; exceeding it closes the
  // connection (a reader that stops reading cannot grow memory without
  // bound).  Also applied as the socket's SO_SNDBUF so kernel-side
  // buffering stays within the same order of magnitude.
  std::size_t max_out_buf = std::size_t{4} << 20;
  // Fleet-session admission (serve/fleet.hpp): open-session and per-session
  // member caps.  Members bound a session's memory — the merge tree and the
  // simulated machine are both sized from max_fleet_members at open.
  std::size_t max_fleets = 16;
  std::size_t max_fleet_members = 1024;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Bind/listen/serve until request_stop(); returns kIoError when the
  // socket cannot be set up, OK on a clean shutdown.
  Status run();

  // Async-signal-safe stop flag (the tool's SIGINT handler); the loop
  // notices within its poll timeout, flushes, and returns immediately.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  // Async-signal-safe drain flag (the tool's SIGTERM handler); the loop
  // stops accepting, finishes or sheds queued work within options.drain_ms,
  // flushes artifacts, and returns OK (docs/SERVING.md#draining).
  void request_drain() { drain_.store(true, std::memory_order_relaxed); }

  // Async-signal-safe trace-flush flag (the tool's SIGUSR1 handler); the
  // loop write-and-clears options.trace_out within its poll timeout.
  void request_trace_flush() {
    flush_trace_.store(true, std::memory_order_relaxed);
  }

  // Live counters (also served by the `stats` op and printed at shutdown).
  // git_rev reads "unknown" until the first `stats` request resolves it.
  ServeStats stats() const;

  // Resolved listening port; readable from other threads once nonzero
  // (in-process tests poll it while run() executes on its own thread).
  int port() const { return port_.load(std::memory_order_acquire); }

 private:
  struct Connection {
    int fd = -1;
    std::string in;        // bytes read, not yet split into lines
    std::string out;       // rendered responses awaiting write
    bool skipping = false; // discarding an over-long line up to its newline
    bool closed = false;
    // Last moment this peer made read or write progress; the stall reaper
    // compares it against options.stall_timeout_ms each loop iteration.
    std::chrono::steady_clock::time_point last_progress;
  };
  struct Pending {
    std::size_t conn;      // index into conns_
    std::string line;
    // When the line was split out of the read buffer — the zero point of
    // its deadline budget and the age key for oldest-first shedding.
    std::chrono::steady_clock::time_point arrival;
    // Over-long lines of the same connection that arrived after this line
    // and before its next queued one; they are answered right after it.
    std::uint32_t too_long_after = 0;
  };

  Status setup_listener();
  void accept_ready();
  void read_ready(std::size_t ci);
  void write_ready(std::size_t ci);
  void take_lines(std::size_t ci);
  void process_batch();
  void answer(const Pending& p);
  void respond(std::size_t ci, const std::string& line);
  void shed_oldest(const std::string& why);
  // An over-long line arrived on connection ci: answer it now, or right
  // after the connection's last queued line when one is still waiting.
  void reject_too_long(std::size_t ci);
  // Answer `count` over-long lines of connection ci.
  void answer_too_long(std::size_t ci, std::uint32_t count);
  void reap_stalled();
  // Transition into the draining state once drain_ is set; called between
  // poll iterations AND between batches so a deep queue cannot delay it.
  void maybe_enter_drain();

  ServerOptions opt_;
  int listen_fd_ = -1;
  std::atomic<int> port_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  std::atomic<bool> flush_trace_{false};
  bool draining_ = false;  // drain_ observed; listener closed
  std::chrono::steady_clock::time_point drain_deadline_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_metrics_write_;
  std::vector<Connection> conns_;
  std::vector<Pending> pending_;
  ResultCache cache_;
  FleetRegistry fleets_;
  std::uint64_t connections_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t batches_ = 0;
  std::string git_rev_;  // options.git_rev's answer; empty until resolved
};

}  // namespace serve
}  // namespace dyncg
