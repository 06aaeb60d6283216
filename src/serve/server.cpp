#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "serve/engine.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dyncg {
namespace serve {

namespace {

bool set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Registry handles for the serving path, resolved once.  Stability follows
// from what each figure is a function of: per-op request counts, response
// counts, and accepted connections are pure functions of the client's
// request stream (deterministic); batch shapes, queue depth, and pressure
// rejections depend on arrival timing (host-noisy).  Admission rejections
// are counted under serve.admission.* only — serve.responses.error covers
// the batch path, which is what stays deterministic.
//
// serve.shed and serve.deadline_exceeded are deterministic-class: every
// gated fixture (serve_bench, the DYNCG_THREADS byte-identity diff) runs
// with deadlines off and far below the queue cap, so both are exactly zero
// there; the chaos harness asserts them through the accounting identity
// requests == ok + errors + shed + deadline_exceeded, never by byte-compare
// against a timing-dependent expectation.
struct ServerMetrics {
  std::vector<metrics::Counter*> requests_by_op;  // indexed by Op value
  metrics::Counter* requests_invalid;
  metrics::Counter* responses_ok;
  metrics::Counter* responses_error;
  metrics::Counter* connections;
  metrics::Counter* shed;
  metrics::Counter* deadline_exceeded;
  metrics::Counter* admission_line_too_long;
  metrics::Counter* admission_conn_limit;
  metrics::Counter* admission_draining;
  metrics::Counter* conn_stalled;
  metrics::Counter* conn_overflow;
  metrics::Counter* batches;
  metrics::Histogram* batch_size;
  metrics::Gauge* queue_depth;
  metrics::Gauge* connections_open;
  metrics::Gauge* cache_entries;
  metrics::Gauge* draining;
  metrics::Gauge* fleets_open;

  ServerMetrics() {
    using metrics::Stability;
    for (Op op : kAllOps) {
      requests_by_op.push_back(&metrics::counter(
          std::string("serve.requests.") + op_name(op),
          std::string("Parsed requests with op \"") + op_name(op) + "\".",
          Stability::kDeterministic));
    }
    requests_invalid = &metrics::counter(
        "serve.requests.invalid", "Request lines that failed to parse.",
        Stability::kDeterministic);
    responses_ok = &metrics::counter(
        "serve.responses.ok", "OK responses (batch path).",
        Stability::kDeterministic);
    responses_error = &metrics::counter(
        "serve.responses.error", "Error responses (batch path).",
        Stability::kDeterministic);
    connections = &metrics::counter(
        "serve.connections", "Accepted connections.",
        Stability::kDeterministic);
    shed = &metrics::counter(
        "serve.shed",
        "Queued lines shed oldest-first (queue overflow or drain budget).",
        Stability::kDeterministic);
    deadline_exceeded = &metrics::counter(
        "serve.deadline_exceeded",
        "Requests whose deadline budget expired before the engine ran.",
        Stability::kDeterministic);
    admission_line_too_long = &metrics::counter(
        "serve.admission.line_too_long",
        "Lines rejected for exceeding max_line.",
        Stability::kDeterministic);
    admission_conn_limit = &metrics::counter(
        "serve.admission.conn_limit",
        "Connections rejected at the max_conns limit.",
        Stability::kHostNoisy);
    admission_draining = &metrics::counter(
        "serve.admission.draining",
        "Lines rejected because the server was draining.",
        Stability::kHostNoisy);
    conn_stalled = &metrics::counter(
        "serve.conn.stalled",
        "Connections closed by the stall timeout (no I/O progress).",
        Stability::kHostNoisy);
    conn_overflow = &metrics::counter(
        "serve.conn.overflow",
        "Connections closed for exceeding the output-buffer cap.",
        Stability::kHostNoisy);
    batches = &metrics::counter("serve.batches", "Batches processed.",
                                Stability::kHostNoisy);
    batch_size = &metrics::histogram(
        "serve.batch.size", "Requests per processed batch.",
        Stability::kHostNoisy, metrics::pow2_bounds(11));
    queue_depth = &metrics::gauge(
        "serve.queue.depth", "Pending parsed lines awaiting a batch.",
        Stability::kHostNoisy);
    connections_open = &metrics::gauge(
        "serve.connections.open", "Currently open connections.",
        Stability::kHostNoisy);
    cache_entries = &metrics::gauge(
        "serve.cache.entries", "Result-cache entries after the last batch.",
        Stability::kDeterministic);
    draining = &metrics::gauge(
        "serve.draining", "1 while a SIGTERM graceful drain is in progress.",
        Stability::kHostNoisy);
    fleets_open = &metrics::gauge(
        "serve.fleets.open",
        "Currently open fleet sessions (serve/fleet.hpp).",
        Stability::kDeterministic);
  }
};

ServerMetrics& sm() {
  static ServerMetrics* m = new ServerMetrics;  // leaked, like the registry
  return *m;
}

metrics::Counter& op_counter(Op op) {
  return *sm().requests_by_op[static_cast<std::size_t>(op)];
}

}  // namespace

Server::Server(ServerOptions options)
    : opt_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      last_metrics_write_(start_),
      cache_(opt_.cache_cap),
      fleets_(FleetOptions{opt_.max_fleets, opt_.max_fleet_members}) {
  sm();  // register the serving metrics before the first scrape
}

Server::~Server() {
  for (Connection& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

ServeStats Server::stats() const {
  ServeStats s;
  s.git_rev = opt_.git_rev;
  s.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  s.connections = connections_;
  s.requests = requests_;
  s.errors = errors_;
  s.rejected = rejected_;
  s.shed = shed_;
  s.deadline_exceeded = deadline_exceeded_;
  s.batches = batches_;
  s.hits = cache_.counters().hits;
  s.misses = cache_.counters().misses;
  s.evictions = cache_.counters().evictions;
  s.entries = cache_.size();
  s.fleets = fleets_.open_count();
  return s;
}

Status Server::setup_listener() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::io_error(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::io_error(std::string("bind 127.0.0.1:") +
                            std::to_string(opt_.port) + ": " +
                            std::strerror(errno));
  }
  if (listen(listen_fd_, 64) != 0) {
    return Status::io_error(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  int resolved = ntohs(addr.sin_port);
  if (!set_nonblocking(listen_fd_)) {
    return Status::io_error("cannot set listener non-blocking");
  }
  if (!opt_.port_file.empty()) {
    std::FILE* f = std::fopen(opt_.port_file.c_str(), "w");
    if (f == nullptr) {
      return Status::io_error("cannot write port file " + opt_.port_file);
    }
    std::fprintf(f, "%d\n", resolved);
    std::fclose(f);
  }
  port_.store(resolved, std::memory_order_release);
  return Status::ok();
}

void Server::respond(std::size_t ci, const std::string& line) {
  Connection& c = conns_[ci];
  if (c.closed) return;  // requester hung up before the answer was ready
  if (opt_.max_out_buf != 0 && c.out.size() > opt_.max_out_buf) {
    // High-watermark check on the backlog *before* queueing the next
    // answer: the peer stopped reading long enough for max_out_buf unsent
    // bytes to pile up, so dropping the connection bounds memory at
    // cap + one response (slow-client defense,
    // docs/ROBUSTNESS.md#serving-resilience).  Checking the pre-existing
    // backlog rather than the post-append size means a single response
    // larger than the cap (a big `metrics` registry under a tiny cap) is
    // still deliverable to a client that keeps reading.
    sm().conn_overflow->add();
    c.closed = true;
    c.out.clear();
    return;
  }
  c.out += line;
  c.out += '\n';
}

void Server::accept_ready() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::size_t open = 0;
    for (const Connection& c : conns_) {
      if (c.fd >= 0 && !c.closed) ++open;
    }
    if (open >= opt_.max_conns || !set_nonblocking(fd)) {
      std::string bye =
          render_error("", Status::unavailable("connection limit reached")) +
          "\n";
      (void)!write(fd, bye.data(), bye.size());
      close(fd);
      ++rejected_;
      sm().admission_conn_limit->add();
      continue;
    }
    if (opt_.max_out_buf != 0) {
      // Cap kernel-side send buffering near the application cap so a
      // never-reading peer hits the output-buffer check instead of hiding
      // megabytes in the socket (the kernel doubles the value it is given).
      int snd = static_cast<int>(
          std::min(opt_.max_out_buf, std::size_t{1} << 20));
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &snd, sizeof(snd));
    }
    ++connections_;
    sm().connections->add();
    // Reuse a dead slot so conns_ stays bounded by max_conns.
    std::size_t slot = conns_.size();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) {
        slot = i;
        break;
      }
    }
    if (slot == conns_.size()) conns_.emplace_back();
    conns_[slot] = Connection{};
    conns_[slot].fd = fd;
    conns_[slot].last_progress = std::chrono::steady_clock::now();
  }
}

// Oldest-first load shedding: answer the stalest queued line UNAVAILABLE
// (it was never parsed, so this costs O(1)) and free its slot.  Shedding
// from the front keeps per-connection responses in request order — the
// victim is older than anything still queued or yet to arrive.
void Server::shed_oldest(const std::string& why) {
  Pending victim = std::move(pending_.front());
  pending_.erase(pending_.begin());
  ++requests_;
  ++shed_;
  sm().shed->add();
  respond(victim.conn, render_error("", Status::unavailable(why)));
}

// Close connections that made no read or write progress for
// stall_timeout_ms: trickle-writers that went quiet mid-line, readers that
// stopped draining their responses, and peers that simply vanished.
void Server::reap_stalled() {
  if (opt_.stall_timeout_ms == 0) return;
  auto now = std::chrono::steady_clock::now();
  auto limit = std::chrono::milliseconds(opt_.stall_timeout_ms);
  for (Connection& c : conns_) {
    if (c.fd < 0 || c.closed) continue;
    if (now - c.last_progress > limit) {
      sm().conn_stalled->add();
      c.closed = true;
      c.out.clear();
    }
  }
}

void Server::maybe_enter_drain() {
  if (draining_ || !drain_.load(std::memory_order_relaxed)) return;
  // Graceful drain: stop accepting (close the listener so new connects are
  // refused by the kernel), keep answering queued work until the budget
  // runs out, then shed what is left and return cleanly.
  draining_ = true;
  drain_deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(opt_.drain_ms);
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  sm().draining->set(1);
  std::fprintf(stderr, "dyncg_serve: draining (budget %llu ms)\n",
               static_cast<unsigned long long>(opt_.drain_ms));
}

void Server::take_lines(std::size_t ci) {
  Connection& c = conns_[ci];
  auto now = std::chrono::steady_clock::now();
  std::size_t start = 0;
  for (;;) {
    std::size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = c.in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (c.skipping) {
      c.skipping = false;  // tail of the over-long line: swallow silently
      continue;
    }
    if (line.empty()) continue;  // blank keep-alives are not requests
    if (line.size() > opt_.max_line) {
      ++requests_;
      ++errors_;
      sm().admission_line_too_long->add();
      respond(ci, render_error(
                      "", Status::invalid_argument(
                              "request line exceeds max_line (" +
                              std::to_string(opt_.max_line) + " bytes)")));
      continue;
    }
    if (draining_) {
      ++requests_;
      ++rejected_;
      sm().admission_draining->add();
      respond(ci, render_error("", Status::unavailable("server draining"),
                               /*draining=*/true));
      continue;
    }
    if (pending_.size() >= opt_.queue_cap) {
      // Overload: shed the oldest queued line and admit this one — the
      // freshest work is the likeliest to still have a live, interested
      // client on the other end.
      shed_oldest("shed under overload (queue cap " +
                  std::to_string(opt_.queue_cap) + ")");
    }
    pending_.push_back(Pending{ci, std::move(line), now});
  }
  c.in.erase(0, start);
  if (!c.skipping && c.in.size() > opt_.max_line) {
    ++requests_;
    ++errors_;
    sm().admission_line_too_long->add();
    respond(ci, render_error(
                    "", Status::invalid_argument(
                            "request line exceeds max_line (" +
                            std::to_string(opt_.max_line) + " bytes)")));
    c.in.clear();
    c.skipping = true;  // drop the rest of this line when it arrives
  }
}

void Server::read_ready(std::size_t ci) {
  Connection& c = conns_[ci];
  char buf[65536];
  for (;;) {
    ssize_t n = read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.last_progress = std::chrono::steady_clock::now();
      if (c.skipping) {
        // Only the newline matters while discarding an over-long line.
        const char* nl = static_cast<const char*>(
            std::memchr(buf, '\n', static_cast<std::size_t>(n)));
        if (nl == nullptr) continue;
        c.in.append(nl, static_cast<std::size_t>(buf + n - nl));
      } else {
        c.in.append(buf, static_cast<std::size_t>(n));
      }
      take_lines(ci);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.closed = true;  // EOF or hard error; pending lines still process
    return;
  }
}

void Server::write_ready(std::size_t ci) {
  Connection& c = conns_[ci];
  while (!c.out.empty()) {
    ssize_t n = write(c.fd, c.out.data(), c.out.size());
    if (n > 0) {
      // Partial writes are fine: the unsent suffix stays queued and the
      // next POLLOUT resumes it.  Progress here keeps a slow-but-live
      // reader ahead of the stall reaper.
      c.last_progress = std::chrono::steady_clock::now();
      c.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.closed = true;
    c.out.clear();
    return;
  }
}

void Server::process_batch() {
  TRACE_SPAN("serve.batch");
  ++batches_;
  sm().batches->add();
  std::size_t take = std::min(opt_.batch_cap, pending_.size());
  sm().batch_size->observe(take);

  struct Item {
    std::size_t conn;
    StatusOr<Request> req;
    // Deadline budget resolved at dequeue: request override, else the
    // server default; zero when deadlines are off for this request.
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    bool expired = false;
  };
  std::vector<Item> items;
  items.reserve(take);

  // Pass 1: parse, check deadlines at dequeue, and collect the distinct
  // keys the cache cannot answer.  An expired request is marked here and
  // never reaches the compute pass — the engine does no work for it.
  auto dequeue_now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < take; ++i) {
    ++requests_;
    items.push_back(Item{pending_[i].conn, parse_request(pending_[i].line),
                         {}, false, false});
    Item& item = items.back();
    if (!item.req.is_ok()) {
      sm().requests_invalid->add();
      continue;
    }
    const Request& r = item.req.value();
    op_counter(r.op).add();
    std::uint64_t budget = r.deadline_ms != 0 ? r.deadline_ms
                                              : opt_.deadline_ms;
    if (budget != 0) {
      item.has_deadline = true;
      item.deadline = pending_[i].arrival + std::chrono::milliseconds(budget);
      if (dequeue_now >= item.deadline) item.expired = true;
    }
  }
  std::vector<const Request*> to_compute;  // into items; reserve() keeps
  for (const Item& item : items) {         // the addresses stable
    if (!item.req.is_ok() || item.expired) continue;
    const Request& r = item.req.value();
    // Fleet ops mutate session state: handled sequentially in the replay
    // pass, never fanned out, never cached.
    if (is_admin_op(r.op) || is_fleet_op(r.op)) continue;
    if (cache_.contains(r.key)) continue;
    bool queued = false;
    for (const Request* q : to_compute) queued |= q->key == r.key;
    if (!queued) to_compute.push_back(&r);
  }

  // Pass 2: compute the missing keys concurrently.  run_query is pure per
  // request; results land in per-index slots, so this is a textbook
  // independent-iteration loop (docs/PARALLELISM.md).
  struct Computed {
    Status status = Status::ok();
    CachedResult result;
  };
  auto compute = [](const Request& r) {
    Computed c;
    StatusOr<CachedResult> res = run_query(r);
    if (res.is_ok()) {
      c.result = std::move(res).value();
    } else {
      c.status = res.status();
    }
    return c;
  };
  std::vector<Computed> computed(to_compute.size());
  parallel_for(
      to_compute.size(),
      [&](std::size_t i) { computed[i] = compute(*to_compute[i]); },
      /*grain=*/1);

  // Pass 3: replay in arrival order with sequential cache semantics.  The
  // pool is idle again here, so admin ops may collect the metrics registry
  // and flush the trace buffer (the collection contract of both modules).
  // Response counters bump *after* rendering: a `metrics` response reflects
  // every response completed before it, not itself.
  // Deadlines re-checked between passes: compute may have taken long
  // enough to expire requests that were still live at dequeue.  Expired
  // requests (either check) skip the cache entirely — no counting lookup,
  // no insert — so cache counters remain a pure function of the request
  // sequence that actually completed.
  auto replay_now = std::chrono::steady_clock::now();
  for (Item& item : items) {
    if (!item.req.is_ok()) {
      ++errors_;
      respond(item.conn, render_error("", item.req.status()));
      sm().responses_error->add();
      continue;
    }
    const Request& r = item.req.value();
    if (item.has_deadline && !item.expired && replay_now >= item.deadline) {
      item.expired = true;
    }
    if (item.expired) {
      ++deadline_exceeded_;
      sm().deadline_exceeded->add();
      respond(item.conn,
              render_error(r.id_json,
                           Status::deadline_exceeded(
                               "deadline budget expired before execution")));
      continue;
    }
    if (is_fleet_op(r.op)) {
      // Sequential by construction (this pass runs in arrival order), so
      // session state — like cache counters — is a pure function of the
      // request sequence.
      StatusOr<std::string> resp = fleets_.handle(r);
      if (resp.is_ok()) {
        respond(item.conn, resp.value());
        sm().responses_ok->add();
      } else {
        ++errors_;
        respond(item.conn, render_error(r.id_json, resp.status()));
        sm().responses_error->add();
      }
      sm().fleets_open->set(static_cast<std::int64_t>(fleets_.open_count()));
      continue;
    }
    if (r.op == Op::kPing) {
      respond(item.conn, render_pong(r.id_json));
      sm().responses_ok->add();
      continue;
    }
    if (r.op == Op::kStats) {
      respond(item.conn, render_stats(r.id_json, stats()));
      sm().responses_ok->add();
      continue;
    }
    if (r.op == Op::kMetrics) {
      respond(item.conn, render_metrics(r.id_json, metrics::to_json()));
      sm().responses_ok->add();
      continue;
    }
    if (r.op == Op::kFlushTrace) {
      if (opt_.trace_out.empty()) {
        ++errors_;
        respond(item.conn,
                render_error(r.id_json,
                             Status::unavailable(
                                 "server started without --trace-out")));
        sm().responses_error->add();
      } else {
        std::uint64_t spans = trace::event_count();
        if (trace::write_and_clear(opt_.trace_out)) {
          respond(item.conn,
                  render_flush_trace(r.id_json, spans, opt_.trace_out));
          sm().responses_ok->add();
        } else {
          ++errors_;
          respond(item.conn,
                  render_error(r.id_json,
                               Status::io_error("cannot write trace file " +
                                                opt_.trace_out)));
          sm().responses_error->add();
        }
      }
      continue;
    }
    if (const CachedResult* hit = cache_.find(r.key)) {
      respond(item.conn,
              render_result(r.id_json, r.op, *hit, true, r.fingerprint));
      sm().responses_ok->add();
      continue;
    }
    // Counted miss: fetch this key's computed slot.  A key pass 1 found
    // cached has none when an earlier miss in this batch evicted it (FIFO,
    // cache full); a sequential server would miss and compute it too, so
    // it is computed here.
    Computed late;
    const Computed* slot = nullptr;
    for (std::size_t i = 0; i < to_compute.size(); ++i) {
      if (to_compute[i]->key == r.key) {
        slot = &computed[i];
        break;
      }
    }
    if (slot == nullptr) {
      late = compute(r);
      slot = &late;
    }
    if (!slot->status.is_ok()) {
      ++errors_;
      respond(item.conn, render_error(r.id_json, slot->status));
      sm().responses_error->add();
      continue;  // errors are never cached
    }
    cache_.insert(r.key, slot->result);
    respond(item.conn,
            render_result(r.id_json, r.op, slot->result, false,
                          r.fingerprint));
    sm().responses_ok->add();
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(take));
  sm().cache_entries->set(static_cast<std::int64_t>(cache_.size()));
}

Status Server::run() {
  if (Status st = setup_listener(); !st.is_ok()) return st;
  std::fprintf(stderr, "dyncg_serve: listening on 127.0.0.1:%d\n", port());
  // Write an initial exposition immediately so scrapers (and the ctest
  // fixture) find the file as soon as the port file exists.
  if (!opt_.metrics_out.empty() && !metrics::write(opt_.metrics_out)) {
    return Status::io_error("cannot write metrics file " + opt_.metrics_out);
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    maybe_enter_drain();
    reap_stalled();
    std::vector<pollfd> fds;
    if (listen_fd_ >= 0) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const std::size_t conn0 = fds.size();  // fds[conn0 + i] -> fd_conn[i]
    std::vector<std::size_t> fd_conn;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Connection& c = conns_[i];
      if (c.fd < 0) continue;
      if (c.closed && c.out.empty()) {
        close(c.fd);
        c.fd = -1;
        continue;
      }
      short events = c.closed ? 0 : POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
      fd_conn.push_back(i);
    }
    // Drain iterations poll briefly so budget expiry is noticed promptly.
    int timeout_ms = draining_ ? 50 : 250;
    int ready = fds.empty()
                    ? 0
                    : poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      return Status::io_error(std::string("poll: ") + std::strerror(errno));
    }
    if (ready > 0) {
      if (conn0 == 1 && (fds[0].revents & POLLIN) != 0) accept_ready();
      for (std::size_t i = 0; i < fd_conn.size(); ++i) {
        short re = fds[conn0 + i].revents;
        std::size_t ci = fd_conn[i];
        if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) read_ready(ci);
        if ((re & POLLOUT) != 0 && conns_[ci].fd >= 0) write_ready(ci);
      }
    }
    std::size_t open = 0;
    for (const Connection& c : conns_) {
      if (c.fd >= 0 && !c.closed) ++open;
    }
    sm().connections_open->set(static_cast<std::int64_t>(open));
    sm().queue_depth->set(static_cast<std::int64_t>(pending_.size()));
    while (!pending_.empty()) {
      if (stop_.load(std::memory_order_relaxed)) {
        break;  // immediate stop: queued work is abandoned, not answered
      }
      // Observe the drain signal *between batches*, not just between poll
      // iterations — a deep queue must not delay drain entry (and hence
      // budget expiry) by however long the whole backlog takes to run.
      maybe_enter_drain();
      if (draining_ &&
          std::chrono::steady_clock::now() >= drain_deadline_) {
        break;  // budget exhausted; what is left gets shed below
      }
      process_batch();
    }
    if (draining_) {
      auto now = std::chrono::steady_clock::now();
      bool budget_over = now >= drain_deadline_;
      if (budget_over) {
        while (!pending_.empty()) shed_oldest("shed while draining");
      }
      bool flushing = false;
      for (const Connection& c : conns_) {
        if (c.fd >= 0 && !c.closed && !c.out.empty()) flushing = true;
      }
      if (pending_.empty() && (!flushing || budget_over)) break;
    }
    // SIGUSR1 asked for a trace flush; the pool is idle between batches,
    // so the trace collection contract holds here.
    if (flush_trace_.exchange(false, std::memory_order_relaxed) &&
        !opt_.trace_out.empty()) {
      std::uint64_t spans = trace::event_count();
      if (trace::write_and_clear(opt_.trace_out)) {
        std::fprintf(stderr, "dyncg_serve: flushed %llu spans to %s\n",
                     static_cast<unsigned long long>(spans),
                     opt_.trace_out.c_str());
      } else {
        std::fprintf(stderr, "dyncg_serve: cannot write trace file %s\n",
                     opt_.trace_out.c_str());
      }
    }
    if (!opt_.metrics_out.empty()) {
      auto now = std::chrono::steady_clock::now();
      if (now - last_metrics_write_ >=
          std::chrono::seconds(opt_.metrics_interval_s)) {
        last_metrics_write_ = now;
        if (!metrics::write(opt_.metrics_out)) {
          std::fprintf(stderr, "dyncg_serve: cannot write metrics file %s\n",
                       opt_.metrics_out.c_str());
        }
      }
    }
  }
  // Clean shutdown: flush what can be flushed without blocking, then close
  // every socket so peers see EOF as soon as the loop ends — the tool exits
  // the process right after, but in-process callers (tests) keep the Server
  // object alive past run().
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].fd >= 0 && !conns_[i].out.empty()) write_ready(i);
  }
  for (Connection& c : conns_) {
    if (c.fd >= 0) {
      close(c.fd);
      c.fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Final exposition so the file holds the complete run's counts.
  if (!opt_.metrics_out.empty() && !metrics::write(opt_.metrics_out)) {
    std::fprintf(stderr, "dyncg_serve: cannot write metrics file %s\n",
                 opt_.metrics_out.c_str());
  }
  return Status::ok();
}

}  // namespace serve
}  // namespace dyncg
