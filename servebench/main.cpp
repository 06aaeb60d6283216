// servebench — the repository's end-to-end benchmark: a closed-loop client
// for a real dyncg_serve on loopback, plus a traced in-process replay that
// attributes time to layers.  README.md in this directory explains the
// workloads, the metrics and how to run it.
//
//   servebench --workload cold_mix|hot_repeat|fleet_churn --seed N
//              --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0: three daemon set-ups (median reported), then S seconds of
//   closed-loop traffic (1 connection for cold_mix, 3 for the others):
//   each connection sends its next request only after the
//   previous reply arrived.  Afterwards the daemon is drained and the
//   answers are checked against an in-process oracle.  Prints the
//   end-to-end metrics.
// --trace 1: one set-up, S seconds of the same traffic plus a ping for
//   every 49 requests on a connection of its own, with stats/metrics
//   snapshots around it, then the in-process replay (replay.hpp).  Prints
//   the per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics.  Exit 0 when the run was correct, 3 when an oracle check
// failed, 1 when the daemon could not be driven, 2 on usage errors.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "envelope/dynamic_envelope.hpp"
#include "envelope/scenario_key.hpp"
#include "replay.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;
using Clock = std::chrono::steady_clock;

struct Options {
  Workload workload = Workload::kColdMix;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  // port files and the daemon's log
};

// Per-workload sizes.  `prefix` requests of every connection's stream always
// complete (the timed phase runs past its deadline if it must): they fix the
// exact sim_rounds_per_req sample, and the daemon's peak RSS is read when
// conns x prefix requests have completed, so neither figure moves with
// throughput (the cache grows with every miss).
//
// Connections: cold_mix is one client issuing one engine-bound query at a
// time, so its latency is the engine's and no batch-mate's; hot_repeat and
// fleet_churn use three, so batches form and the scheduler's head-of-line
// blocking shows.
struct Plan {
  std::size_t conns;
  std::size_t prefix;
  std::size_t warm_per_conn;    // cold_mix warm-up requests
  std::size_t replay_per_conn;  // traced-run replay items per connection
};

Plan plan_for(Workload w) {
  switch (w) {
    case Workload::kColdMix:
      return Plan{1, 960, 20, 120};
    case Workload::kHotRepeat:
      return Plan{3, 2000, 0, 600};
    case Workload::kFleetChurn:
      return Plan{3, 2000, 0, 200};
  }
  return Plan{1, 1, 0, 1};
}

constexpr int kSetupRepeats = 5;
// Two compute threads and otherwise the daemon's default caps.
const std::vector<std::string> kServeFlags = {"--threads", "2"};
// Traced run: one ping per 49 stream requests, i.e. 1 request in 50.
constexpr std::uint64_t kPingEvery = 49;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "cold_mix|hot_repeat|fleet_churn --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "servebench: %s\n", why.c_str());
  std::exit(1);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- generators --------------------------------------------------------------

// A connection's timed stream.  The hot pool outlives every stream.
struct Streams {
  explicit Streams(const Options& o) : opt(o), pool(o.seed) {}
  std::function<Item()> timed(std::size_t conn,
                              std::shared_ptr<FleetStream> fleet) const {
    switch (opt.workload) {
      case Workload::kColdMix: {
        auto s = std::make_shared<ColdMixStream>(opt.seed, conn);
        return [s] { return s->next(); };
      }
      case Workload::kHotRepeat: {
        auto s = std::make_shared<HotStream>(opt.seed, conn, &pool);
        return [s] { return s->next(); };
      }
      case Workload::kFleetChurn:
        if (!fleet) fleet = this->fleet(conn, nullptr);
        return [fleet] { return fleet->next(); };
    }
    return {};
  }
  // Connection `conn`'s fleet stream, positioned after its fill updates
  // (returned through `fill` when non-null).  Sessions are named in
  // connection order: fleet-1, fleet-2, ...
  std::shared_ptr<FleetStream> fleet(std::size_t conn,
                                     std::vector<std::string>* fill) const {
    auto s = std::make_shared<FleetStream>(opt.seed, conn);
    s->set_fleet(fleet_name(conn));
    std::vector<std::string> lines = s->fill_lines();
    if (fill != nullptr) *fill = std::move(lines);
    return s;
  }
  static std::string fleet_name(std::size_t conn) {
    return "fleet-" + std::to_string(conn + 1);
  }
  const Options& opt;
  HotPool pool;
};

// --- the daemon and its set-up ----------------------------------------------

struct Conn {
  std::unique_ptr<Client> client;
  std::shared_ptr<FleetStream> fleet;  // fleet_churn only
  std::vector<std::string> fill;       // fleet_churn set-up updates
  // Timed-phase results.
  std::vector<double> latency_ms;  // +inf for a non-OK or missing reply
  std::uint64_t sent = 0, ok = 0;
  std::vector<std::uint64_t> prefix_rounds;
  // Responses the oracle checks, by stream position (the oracle regenerates
  // the request lines from the seed).  cold_mix/hot_repeat: the first
  // request of each scenario; fleet_churn: every 8th fleet_query, plus the
  // final state at position `sent`.
  struct Stored {
    std::uint64_t index;
    std::string response;
  };
  std::vector<Stored> stored;
  // fleet_churn: every update's reported member count and session time.
  struct FleetState {
    std::uint64_t index;
    std::uint64_t members;
    double t;
  };
  std::vector<FleetState> fleet_states;
  std::vector<double> done_s;  // completion time of each request, aligned
  std::uint64_t req_bytes = 0, resp_bytes = 0;
  bool lost = false;
};

bool expect_ok(Client& c, const std::string& line, std::string* response) {
  return c.round_trip(line, response) && response_ok(*response);
}

// Run fn(conn) on one thread per connection and join them all.
void on_each(std::vector<Conn>& conns,
             const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

// Spawn the daemon, connect, and warm it: the cold_mix warm-up lane, the
// hot pool, or one filled fleet session per connection (opened in
// connection order, so session names are fleet-1, fleet-2, ...).  Returns
// seconds from spawn to the end of warm-up.
double set_up(const Options& opt, const Plan& plan, const Streams& streams,
              Daemon& daemon, std::vector<Conn>& conns) {
  const Clock::time_point t0 = Clock::now();
  std::string err;
  if (!daemon.start(&err)) die(err);
  conns.clear();
  conns.resize(plan.conns);
  for (Conn& c : conns) {
    c.client = std::make_unique<Client>();
    if (!c.client->connect_to(daemon.port())) die("cannot connect");
  }
  std::atomic<bool> failed{false};
  switch (opt.workload) {
    case Workload::kColdMix:
      on_each(conns, [&](std::size_t c) {
        ColdMixStream warm(opt.seed, c, kLaneWarm);
        std::string r;
        for (std::size_t i = 0; i < plan.warm_per_conn; ++i) {
          if (!expect_ok(*conns[c].client, warm.next().line, &r)) failed = true;
        }
      });
      break;
    case Workload::kHotRepeat:
      on_each(conns, [&](std::size_t c) {
        std::string r;
        for (std::size_t k = c; k < streams.pool.size(); k += conns.size()) {
          if (!expect_ok(*conns[c].client, streams.pool.line(k), &r)) {
            failed = true;
          }
        }
      });
      break;
    case Workload::kFleetChurn:
      for (std::size_t c = 0; c < conns.size(); ++c) {
        std::string r;
        if (!expect_ok(*conns[c].client, FleetStream::open_line(), &r) ||
            r.find("\"fleet\":\"" + Streams::fleet_name(c) + "\"") ==
                std::string::npos) {
          die("fleet_open failed: " + r);
        }
        conns[c].fleet = streams.fleet(c, &conns[c].fill);
      }
      on_each(conns, [&](std::size_t c) {
        std::string r;
        for (const std::string& line : conns[c].fill) {
          if (!expect_ok(*conns[c].client, line, &r)) failed = true;
        }
      });
      break;
  }
  if (failed) die("warm-up request failed");
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- the timed closed loop ---------------------------------------------------

struct Phase {
  double seconds = 0;  // start to the last connection's stop
  double rss_mib = 0;
  std::vector<double> ping_us;  // traced run only
};

// The timed closed loop: one thread per connection, each sending its next
// request when the previous reply has arrived, until `opt.seconds` have
// passed and its first `plan.prefix` requests are done.  With `pings`, a
// separate connection sends a ping after every kPingEvery-th completed
// request, so its round trip is the wait a request arriving at that moment
// sees (loop overhead plus head-of-line blocking).
Phase closed_loop(const Options& opt, const Plan& plan, const Streams& streams,
                  Daemon& daemon, std::vector<Conn>& conns, bool pings) {
  std::atomic<bool> go{false};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> rss_read{false};
  const std::size_t rss_at = plan.prefix * conns.size();
  Phase phase;
  std::vector<Clock::time_point> stop(conns.size());
  Clock::time_point start;
  Clock::time_point deadline;
  std::mutex ping_mu;
  std::condition_variable ping_cv;
  std::size_t running = conns.size();  // guarded by ping_mu

  std::vector<std::thread> threads;
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    threads.emplace_back([&, ci] {
      Conn& c = conns[ci];
      std::function<Item()> next = streams.timed(ci, c.fleet);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::string response;
      std::uint64_t fleet_queries = 0;
      while (Clock::now() < deadline || c.prefix_rounds.size() < plan.prefix) {
        Item item = next();
        const Clock::time_point t0 = Clock::now();
        const bool answered = c.client->round_trip(item.line, &response);
        const Clock::time_point t1 = Clock::now();
        ++c.sent;
        if (!answered) {
          c.latency_ms.push_back(INFINITY);
          c.done_s.push_back(std::chrono::duration<double>(t1 - start).count());
          c.lost = true;
          break;
        }
        const bool ok = response_ok(response);
        c.ok += ok;
        c.latency_ms.push_back(
            ok ? std::chrono::duration<double, std::milli>(t1 - t0).count()
               : INFINITY);
        c.done_s.push_back(std::chrono::duration<double>(t1 - start).count());
        c.req_bytes += item.line.size() + 1;
        c.resp_bytes += response.size() + 1;
        if (c.prefix_rounds.size() < plan.prefix) {
          c.prefix_rounds.push_back(ok ? response_rounds(response) : 0);
        }
        const std::size_t n = completed.fetch_add(1) + 1;
        if (n == rss_at) {
          phase.rss_mib = daemon.peak_rss_mib();
          rss_read = true;
        }
        if (pings && n % kPingEvery == 0) {
          std::lock_guard<std::mutex> lock(ping_mu);
          ping_cv.notify_one();
        }
        const std::uint64_t at = c.sent - 1;
        if (item.kind == ItemKind::kFleetUpdate) {
          c.fleet_states.push_back(Conn::FleetState{
              at, response_u64(response, "\"members\":"),
              response_time(response)});
        } else if (item.kind == ItemKind::kFleetQuery) {
          if (fleet_queries++ % 8 == 7) c.stored.push_back({at, response});
        } else if (item.check) {
          c.stored.push_back({at, response});
        }
      }
      stop[ci] = Clock::now();
      std::lock_guard<std::mutex> lock(ping_mu);
      --running;
      ping_cv.notify_one();
    });
  }
  std::thread pinger;
  Client ping_client;
  if (pings) {
    if (!ping_client.connect_to(daemon.port())) die("cannot connect");
    pinger = std::thread([&] {
      std::size_t mark = kPingEvery;
      std::string response;
      std::unique_lock<std::mutex> lock(ping_mu);
      for (;;) {
        ping_cv.wait(lock, [&] { return running == 0 || completed >= mark; });
        if (running == 0) break;
        mark = (completed / kPingEvery + 1) * kPingEvery;
        lock.unlock();
        const Clock::time_point t0 = Clock::now();
        if (!ping_client.round_trip("{\"op\":\"ping\"}", &response) ||
            !response_ok(response)) {
          die("ping failed");
        }
        phase.ping_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        lock.lock();
      }
    });
  }
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  if (pinger.joinable()) pinger.join();
  Clock::time_point last = start;
  for (const Clock::time_point& t : stop) last = std::max(last, t);
  phase.seconds = std::chrono::duration<double>(last - start).count();
  if (!rss_read) phase.rss_mib = daemon.peak_rss_mib();
  return phase;
}

// The timed phase cut into one-second windows of [0, seconds): per window,
// the OK responses completed per second and the median RTT of the requests
// completed in it.  The reported throughput is the mean of the windows'
// middle half (interquartile mean) and the p50 the median of the window
// medians, so a stall of the shared host that spans a minority of the
// windows does not move them.
struct Windows {
  double throughput_rps = 0;
  double p50_ms = 0;
  std::size_t count = 0;
};

Windows windowed(const std::vector<Conn>& conns, double seconds) {
  const std::size_t n = static_cast<std::size_t>(std::max(1.0, seconds));
  const double width = seconds / static_cast<double>(n);
  std::vector<std::vector<double>> lat(n);
  for (const Conn& c : conns) {
    for (std::size_t i = 0; i < c.done_s.size(); ++i) {
      const std::size_t w = static_cast<std::size_t>(c.done_s[i] / width);
      if (w < n) lat[w].push_back(c.latency_ms[i]);
    }
  }
  std::vector<double> rps, p50;
  for (std::vector<double>& l : lat) {
    std::size_t ok = 0;
    for (double v : l) ok += std::isfinite(v);
    rps.push_back(static_cast<double>(ok) / width);
    p50.push_back(percentile(l, 0.5));
  }
  std::sort(rps.begin(), rps.end());
  double middle = 0.0;
  std::size_t used = 0;
  for (std::size_t i = n / 4; i < n - n / 4; ++i, ++used) middle += rps[i];
  return Windows{middle / static_cast<double>(used), percentile(p50, 0.5), n};
}

// --- oracle ------------------------------------------------------------------

// Replays connection `conn`'s stream (regenerated from the seed) through
// `visit(index, item)` for its first `count` items.
void regenerate(const Streams& streams, std::size_t conn, std::uint64_t count,
                const std::function<void(std::uint64_t, const Item&)>& visit) {
  std::function<Item()> next = streams.timed(conn, nullptr);
  for (std::uint64_t i = 0; i < count; ++i) visit(i, next());
}

// cold_mix / hot_repeat: each distinct fingerprint's result and cost must be
// byte-identical to an in-process serve::run_query of the same line.
std::size_t check_queries(const Streams& streams, const std::vector<Conn>& conns,
                          std::size_t* checked) {
  using namespace dyncg;
  struct Task {
    std::string line;
    const std::string* response;
  };
  std::vector<Task> todo;
  std::set<std::string> keys;
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    const Conn& c = conns[ci];
    std::size_t next_stored = 0;
    regenerate(streams, ci, c.sent, [&](std::uint64_t i, const Item& item) {
      if (next_stored >= c.stored.size() || c.stored[next_stored].index != i) {
        return;
      }
      const std::string& response = c.stored[next_stored++].response;
      if (!response_ok(response)) return;  // counted as failed already
      const std::size_t at = response.find("\"key\":\"");
      if (!keys.insert(at == std::string::npos ? "" : response.substr(at + 7, 16))
               .second) {
        return;
      }
      todo.push_back(Task{item.line, &response});
    });
  }
  std::vector<char> bad(todo.size(), 0);
  parallel_for(
      todo.size(),
      [&](std::size_t i) {
        json::Value v;
        StatusOr<serve::Request> req = serve::parse_request(todo[i].line);
        if (!req.is_ok() || !json::parse(*todo[i].response, &v)) {
          bad[i] = 1;
          return;
        }
        StatusOr<serve::CachedResult> want = serve::run_query(req.value());
        const json::Value* result = v.find("result");
        const json::Value* cost = v.find("cost");
        const json::Value* key = v.find("key");
        json::Value want_cost;
        bad[i] = !want.is_ok() || result == nullptr || cost == nullptr ||
                 key == nullptr || result->string != want.value().text ||
                 !json::parse(want.value().cost.to_json(), &want_cost) ||
                 json::dump(*cost) != json::dump(want_cost) ||
                 key->string != fingerprint_hex(req.value().fingerprint);
      },
      1);
  *checked = todo.size();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < todo.size(); ++i) {
    if (bad[i]) {
      ++mismatches;
      std::fprintf(stderr, "servebench: oracle mismatch for %.200s\n -> %.300s\n",
                   todo[i].line.c_str(), todo[i].response->c_str());
    }
  }
  return mismatches;
}

// fleet_churn: mirror every connection's members and time from its request
// lines (regenerated from the seed); every update's `members` and `t` must
// match the mirror, and every 8th fleet_query plus the final state must
// match canonical_rebuild byte for byte (`result` and `key`).  Rebuilds run
// in parallel chunks so only a few member snapshots are alive at once.
std::size_t check_fleets(const Streams& streams, const std::vector<Conn>& conns,
                         std::size_t* checked) {
  using namespace dyncg;
  struct Task {
    std::vector<std::pair<std::uint64_t, Polynomial>> members;
    double now;
    const std::string* response;
  };
  std::vector<Task> tasks;
  std::size_t mismatches = 0;
  *checked = 0;
  auto flush = [&] {
    std::vector<char> bad(tasks.size(), 0);
    parallel_for(
        tasks.size(),
        [&](std::size_t i) {
          json::Value v;
          const json::Value* result = nullptr;
          const json::Value* key = nullptr;
          if (!json::parse(*tasks[i].response, &v) ||
              (result = v.find("result")) == nullptr ||
              (key = v.find("key")) == nullptr) {
            bad[i] = 1;
            return;
          }
          DynamicEnvelope oracle =
              canonical_rebuild(tasks[i].members, tasks[i].now,
                                /*take_min=*/true, serve::fleet_s_bound(2));
          bad[i] = result->string != oracle.result_string() ||
                   key->string != fingerprint_hex(oracle.state_fingerprint());
        },
        1);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (!bad[i]) continue;
      ++mismatches;
      std::fprintf(stderr, "servebench: fleet oracle mismatch: %.300s\n",
                   tasks[i].response->c_str());
    }
    *checked += tasks.size();
    tasks.clear();
  };

  const Trajectory origin = serve::fleet_origin(2);
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    const Conn& c = conns[ci];
    std::map<std::uint64_t, Trajectory> mirror;
    double now = 0.0;
    auto apply = [&](const std::string& line) {
      StatusOr<serve::Request> r = serve::parse_request(line);
      if (!r.is_ok()) return;
      for (std::uint64_t id : r.value().fleet_erase) mirror.erase(id);
      for (const auto& [id, point] : r.value().fleet_insert) {
        mirror.emplace(id, point);
      }
      if (r.value().fleet_has_advance) now = r.value().fleet_advance;
    };
    auto check_at = [&](const Conn::Stored& s) {
      if (!response_ok(s.response)) return;
      Task task{{}, now, &s.response};
      for (const auto& [id, point] : mirror) {
        task.members.emplace_back(id, serve::fleet_score(point, origin));
      }
      tasks.push_back(std::move(task));
      if (tasks.size() == 64) flush();
    };
    std::vector<std::string> fill;
    std::shared_ptr<FleetStream> stream = streams.fleet(ci, &fill);
    for (const std::string& line : fill) apply(line);
    std::size_t next_state = 0, next_stored = 0;
    for (std::uint64_t i = 0; i < c.sent; ++i) {
      const Item item = stream->next();
      if (item.kind == ItemKind::kFleetUpdate) {
        apply(item.line);
        if (next_state < c.fleet_states.size() &&
            c.fleet_states[next_state].index == i) {
          const Conn::FleetState& st = c.fleet_states[next_state++];
          if (st.members != mirror.size() || st.t != now) {
            ++mismatches;
            std::fprintf(stderr,
                         "servebench: fleet state drift at request %llu of "
                         "%s: %llu members at t=%.17g, mirror %zu at %.17g\n",
                         static_cast<unsigned long long>(i),
                         Streams::fleet_name(ci).c_str(),
                         static_cast<unsigned long long>(st.members), st.t,
                         mirror.size(), now);
          }
        }
      } else if (next_stored < c.stored.size() &&
                 c.stored[next_stored].index == i) {
        check_at(c.stored[next_stored++]);
      }
    }
    // The final-state query sent after the timed phase.
    if (next_stored < c.stored.size()) check_at(c.stored[next_stored]);
  }
  flush();
  return mismatches;
}

// --- reporting helpers -------------------------------------------------------

std::string count_note(std::size_t n, const char* what) {
  return "(" + std::to_string(n) + " " + what + ")";
}

// The run's RTTs in completion order, cut into k = min(5, n / 1000) runs of
// consecutive requests (at least 1000 each, so at least 10 samples lie
// beyond each p99); the reported p99 is the median of the k chunk p99s, so
// a burst of host stalls inside one chunk does not move it.
struct P99 {
  double value = 0;
  std::size_t chunks = 0;
  std::size_t per_chunk = 0;
};

P99 chunked_p99(const std::vector<Conn>& conns) {
  std::vector<std::pair<double, double>> done;  // (completion s, RTT ms)
  for (const Conn& c : conns) {
    for (std::size_t i = 0; i < c.latency_ms.size(); ++i) {
      done.emplace_back(c.done_s[i], c.latency_ms[i]);
    }
  }
  std::sort(done.begin(), done.end());
  const std::size_t n = done.size();
  const std::size_t k = std::clamp<std::size_t>(n / 1000, 1, 5);
  std::vector<double> p99s;
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> chunk;
    for (std::size_t i = j * n / k; i < (j + 1) * n / k; ++i) {
      chunk.push_back(done[i].second);
    }
    p99s.push_back(percentile(chunk, 0.99));
  }
  return P99{percentile(p99s, 0.5), k, n / k};
}

// --- --trace 0 ---------------------------------------------------------------

int run_end_to_end(const Options& opt) {
  const Plan plan = plan_for(opt.workload);
  Streams streams(opt);
  std::vector<double> setups;
  std::vector<Conn> conns;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    daemon = std::make_unique<Daemon>(SERVEBENCH_SERVE_PATH, opt.work_dir,
                                      kServeFlags);
    setups.push_back(set_up(opt, plan, streams, *daemon, conns));
    if (rep + 1 < kSetupRepeats) {
      conns.clear();
      std::string err;
      if (!daemon->stop(&err)) die(err);
    }
  }
  const Phase phase = closed_loop(opt, plan, streams, *daemon, conns, false);

  // The final state of each fleet is checked too (outside the timing).
  if (opt.workload == Workload::kFleetChurn) {
    for (std::size_t c = 0; c < conns.size(); ++c) {
      std::string r;
      const std::string q =
          "{\"op\":\"fleet_query\",\"fleet\":\"" +
          Streams::fleet_name(c) + "\"}";
      if (conns[c].lost || !conns[c].client->round_trip(q, &r)) continue;
      conns[c].stored.push_back(Conn::Stored{conns[c].sent, r});
    }
  }
  for (Conn& c : conns) c.client.reset();
  std::string stop_err;
  const bool stopped = daemon->stop(&stop_err);
  if (!stopped) std::fprintf(stderr, "servebench: %s\n", stop_err.c_str());

  std::uint64_t sent = 0, ok = 0;
  std::vector<std::uint64_t> rounds;
  for (const Conn& c : conns) {
    sent += c.sent;
    ok += c.ok;
    rounds.insert(rounds.end(), c.prefix_rounds.begin(), c.prefix_rounds.end());
  }
  dyncg::set_host_threads(4);
  std::size_t checked = 0;
  const Clock::time_point oracle_t0 = Clock::now();
  const std::size_t mismatches = opt.workload == Workload::kFleetChurn
                                     ? check_fleets(streams, conns, &checked)
                                     : check_queries(streams, conns, &checked);
  const double oracle_s = ms_since(oracle_t0) / 1e3;

  const Windows win = windowed(conns, opt.seconds);
  const P99 p99 = chunked_p99(conns);
  std::size_t n = 0;
  for (const Conn& c : conns) n += c.latency_ms.size();
  std::vector<double> setup_sorted = setups;
  const double setup_med = percentile(setup_sorted, 0.5);
  double rounds_sum = 0;
  for (std::uint64_t r : rounds) rounds_sum += static_cast<double>(r);

  std::printf("servebench %s seed=%llu: closed loop, %zu connections, "
              "%.2f s timed, dyncg_serve --threads 2\n",
              workload_name(opt.workload),
              static_cast<unsigned long long>(opt.seed), conns.size(),
              phase.seconds);
  std::printf("  oracle: %zu distinct answers checked in %.2f s, %zu "
              "mismatches\n",
              checked, oracle_s, mismatches);
  Report report(&end_to_end_metrics());
  const std::string windows = std::to_string(win.count) + " 1-s windows";
  report.add("throughput_rps", win.throughput_rps,
             "(interquartile mean over " + windows + "; " + std::to_string(ok) +
                 " OK responses in " +
                 std::to_string(phase.seconds).substr(0, 5) + " s)");
  report.add("latency_p50_ms", win.p50_ms,
             "(median over " + windows + " of the window median; " +
                 std::to_string(n) + " samples)");
  print_metric("latency_p99_ms", p99.value, "ms",
               "(median of " + std::to_string(p99.chunks) + " chunks of " +
                   std::to_string(p99.per_chunk) + " requests, " +
                   std::to_string(samples_beyond(p99.per_chunk, 0.99)) +
                   " beyond each p99; not in the result line)");
  report.add("setup_s", setup_med,
             "(median of " + std::to_string(setups.size()) + " set-ups)");
  report.add("server_rss_mb", phase.rss_mib,
             "(VmHWM after " + std::to_string(plan.prefix * conns.size()) +
                 " requests)");
  report.add("sim_rounds_per_req",
             rounds.empty() ? 0.0 : rounds_sum / static_cast<double>(rounds.size()),
             "(exact: first " + std::to_string(plan.prefix) +
                 " requests of each connection)");
  const double error_rate =
      sent == 0 ? 1.0 : static_cast<double>(sent - ok) / static_cast<double>(sent);
  print_metric("error_rate", error_rate, "ratio",
               "(" + std::to_string(sent - ok) + " of " + std::to_string(sent) +
                   " requests; not in the result line, see failed)");
  const bool correct = mismatches == 0 && stopped;
  const std::string line = report.result_line(correct, sent, sent - ok);
  if (line.empty()) return 1;
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

// --- --trace 1 ---------------------------------------------------------------

struct ServerCounters {
  std::uint64_t requests = 0, batches = 0, hits = 0, misses = 0,
                evictions = 0;
  double batch_count = 0, batch_sum = 0;
  double query_count = 0, query_ns = 0;
};

ServerCounters read_server(Client& c) {
  using namespace dyncg;
  ServerCounters s;
  std::string r;
  json::Value v;
  if (!c.round_trip("{\"op\":\"stats\"}", &r) || !json::parse(r, &v)) {
    die("stats request failed");
  }
  if (const json::Value* st = v.find("stats")) {
    auto get = [&](const char* k) {
      const json::Value* f = st->find(k);
      return f != nullptr ? static_cast<std::uint64_t>(f->number) : 0;
    };
    s.requests = get("requests");
    s.batches = get("batches");
    s.hits = get("hits");
    s.misses = get("misses");
    s.evictions = get("evictions");
  }
  if (!c.round_trip("{\"op\":\"metrics\"}", &r) || !json::parse(r, &v)) {
    die("metrics request failed");
  }
  const json::Value* m = v.find("metrics");
  const json::Value* hs = m != nullptr ? m->find("histograms") : nullptr;
  if (hs != nullptr) {
    for (const json::Value& h : hs->array) {
      const json::Value* name = h.find("name");
      const json::Value* count = h.find("count");
      const json::Value* sum = h.find("sum");
      if (name == nullptr || count == nullptr || sum == nullptr) continue;
      if (name->string == "serve.batch.size") {
        s.batch_count = count->number;
        s.batch_sum = sum->number;
      } else if (name->string == "serve.query.host_ns") {
        s.query_count = count->number;
        s.query_ns = sum->number;
      }
    }
  }
  return s;
}

double p50_of(std::vector<double> v) { return percentile(v, 0.5); }

// One cold_mix block (all six ops) from the probe lane.  Stream 3's op
// counters start where the first block holds one faulted request, so the
// probe reaches fault recovery too.
std::vector<Item> cold_probe_items(std::uint64_t seed) {
  ColdMixStream probe(seed, 3, kLaneProbe);
  std::vector<Item> items;
  for (int i = 0; i < 20; ++i) items.push_back(probe.next());
  return items;
}

// A layer's figure: from the workload's own replay, else from the first
// probe that reached the layer.  Each value comes with a note naming its
// source and its sample count or base.
struct Pick {
  using Value = std::pair<double, std::string>;
  using Source =
      std::function<std::optional<Value>(const ReplayResult&, const char*)>;

  const ReplayResult* own;
  std::vector<const ReplayResult*> probes;

  Value first(const Source& from, const std::string& none) const {
    if (auto v = from(*own, "")) return *v;
    for (const ReplayResult* p : probes) {
      if (auto v = from(*p, "probe: ")) return *v;
    }
    return {0.0, none};
  }

  // p50 of the per-call samples under `key`, scaled.
  Value p50(const std::string& key, double scale = 1.0) const {
    return first(
        [&](const ReplayResult& r, const char* tag) -> std::optional<Value> {
          auto it = r.us.find(key);
          if (it == r.us.end() || it->second.empty()) return std::nullopt;
          return Value{p50_of(it->second) * scale,
                       std::string("(") + tag + "p50 of " +
                           std::to_string(it->second.size()) + ")"};
        },
        "(no samples)");
  }

  // Summed self time of spans whose name starts with one of `prefixes`,
  // in ms per replayed request.
  Value self_ms(const std::vector<std::string>& prefixes) const {
    return first(
        [&](const ReplayResult& r, const char* tag) -> std::optional<Value> {
          double ns = 0;
          std::uint64_t count = 0;
          for (const auto& [name, span] : r.spans) {
            for (const std::string& p : prefixes) {
              if (name.compare(0, p.size(), p) == 0) {
                ns += span.self_ns;
                count += span.count;
              }
            }
          }
          if (count == 0 || r.items == 0) return std::nullopt;
          return Value{ns / 1e6 / static_cast<double>(r.items),
                       std::string("(") + tag + std::to_string(count) +
                           " spans over " + std::to_string(r.items) +
                           " requests)"};
        },
        "(no spans)");
  }

  // num / den of a pair of ReplayResult fields.
  Value ratio(const std::function<std::pair<double, double>(
                  const ReplayResult&)>& f,
              const char* base) const {
    return first(
        [&](const ReplayResult& r, const char* tag) -> std::optional<Value> {
          const auto [num, den] = f(r);
          if (den == 0) return std::nullopt;
          return Value{num / den,
                       std::string("(") + tag + "over " +
                           std::to_string(static_cast<std::uint64_t>(den)) +
                           " " + base + ")"};
        },
        std::string("(no ") + base + ")");
  }
};

void print_span_table(const ReplayResult& r) {
  std::vector<std::pair<std::string, ReplayResult::SpanSelf>> rows(
      r.spans.begin(), r.spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::printf("  self time by span over %zu replayed requests "
              "(traced pass %.3f s, untraced %.3f s):\n",
              r.items, r.traced_s, r.untraced_s);
  for (const auto& [name, s] : rows) {
    std::printf("    %-32s %10llu calls %12.3f ms self  %6.2f%%\n",
                name.c_str(), static_cast<unsigned long long>(s.count),
                s.self_ns / 1e6,
                r.traced_s > 0 ? 100.0 * s.self_ns / 1e9 / r.traced_s : 0.0);
  }
}

int run_traced(const Options& opt) {
  const Plan plan = plan_for(opt.workload);
  Streams streams(opt);
  std::vector<Conn> conns;
  Daemon daemon(SERVEBENCH_SERVE_PATH, opt.work_dir, kServeFlags);
  set_up(opt, plan, streams, daemon, conns);
  const ServerCounters before = read_server(*conns[0].client);
  const Phase phase = closed_loop(opt, plan, streams, daemon, conns, true);
  const ServerCounters after = read_server(*conns[0].client);
  std::uint64_t sent = 0, ok = 0, req_bytes = 0, resp_bytes = 0;
  std::vector<double> ping_us = phase.ping_us;
  for (const Conn& c : conns) {
    sent += c.sent;
    ok += c.ok;
    req_bytes += c.req_bytes;
    resp_bytes += c.resp_bytes;
  }
  // Engine host time over the wire: fleet_churn never reaches the engine,
  // so there it comes from the cold_mix probe prefix sent afterwards.
  ServerCounters engine_before = before;
  ServerCounters engine_after = after;
  const bool engine_probe = after.query_count == before.query_count;
  if (engine_probe) {
    engine_before = after;
    std::string r;
    for (const Item& item : cold_probe_items(opt.seed)) {
      if (!expect_ok(*conns[0].client, item.line, &r)) {
        die("probe request failed: " + r);
      }
    }
    engine_after = read_server(*conns[0].client);
  }
  for (Conn& c : conns) c.client.reset();
  std::string stop_err;
  const bool stopped = daemon.stop(&stop_err);
  if (!stopped) std::fprintf(stderr, "servebench: %s\n", stop_err.c_str());

  // In-process replay of the same streams' first items.
  std::vector<std::string> setup;
  std::vector<Item> items;
  for (std::size_t c = 0; c < plan.conns; ++c) {
    std::shared_ptr<FleetStream> fleet;
    if (opt.workload == Workload::kFleetChurn) {
      std::vector<std::string> fill;
      fleet = streams.fleet(c, &fill);
      setup.push_back(FleetStream::open_line());
      setup.insert(setup.end(), fill.begin(), fill.end());
    } else if (opt.workload == Workload::kColdMix) {
      ColdMixStream warm(opt.seed, c, kLaneWarm);
      for (std::size_t i = 0; i < plan.warm_per_conn; ++i) {
        setup.push_back(warm.next().line);
      }
    }
    std::function<Item()> next = streams.timed(c, fleet);
    for (std::size_t i = 0; i < plan.replay_per_conn; ++i) {
      items.push_back(next());
    }
  }
  if (opt.workload == Workload::kHotRepeat) {
    for (std::size_t k = 0; k < streams.pool.size(); ++k) {
      setup.push_back(streams.pool.line(k));
    }
  }
  const ReplayResult own = replay(setup, items);

  // Probes for layers this workload never reaches (README.md: "probes").
  ReplayResult cold_probe, fleet_probe;
  std::vector<const ReplayResult*> probes;
  if (opt.workload != Workload::kColdMix) {
    cold_probe = replay({}, cold_probe_items(opt.seed));
    probes.push_back(&cold_probe);
  }
  if (opt.workload != Workload::kFleetChurn) {
    FleetStream probe(opt.seed, 0, kLaneProbe);
    probe.set_fleet(Streams::fleet_name(0));
    std::vector<std::string> probe_setup = {FleetStream::open_line()};
    for (std::string& l : probe.fill_lines()) {
      probe_setup.push_back(std::move(l));
    }
    std::vector<Item> probe_items;
    for (int i = 0; i < 64; ++i) probe_items.push_back(probe.next());
    fleet_probe = replay(probe_setup, probe_items);
    probes.push_back(&fleet_probe);
  }
  std::string replay_error = own.error;
  for (const ReplayResult* p : probes) {
    if (replay_error.empty()) replay_error = p->error;
  }
  if (!replay_error.empty()) {
    std::fprintf(stderr, "servebench: replay: %s\n", replay_error.c_str());
  }
  const double horner_ns = horner_ns_per_elem();

  std::printf("servebench %s seed=%llu (traced run): wire phase %.2f s on "
              "%zu connections, %llu requests, then %zu requests replayed "
              "in-process\n",
              workload_name(opt.workload),
              static_cast<unsigned long long>(opt.seed), phase.seconds,
              conns.size(), static_cast<unsigned long long>(sent), own.items);
  print_span_table(own);

  Report report(&per_layer_metrics());
  const Pick pick{&own, probes};
  auto add = [&](const std::string& name, std::pair<double, std::string> v) {
    report.add(name, v.first, v.second);
  };
  add("wire.ping_rtt_us", {p50_of(ping_us), count_note(ping_us.size(), "pings, p50")});
  add("wire.req_bytes_mean",
      {sent ? static_cast<double>(req_bytes) / sent : 0.0, count_note(sent, "requests")});
  add("wire.resp_bytes_mean",
      {sent ? static_cast<double>(resp_bytes) / sent : 0.0, count_note(sent, "responses")});
  add("protocol.parse_us", pick.p50("parse"));
  add("protocol.render_us", pick.p50("render"));
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t lookups = hits + (after.misses - before.misses);
  add("cache.hit_ratio",
      {lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0,
       "(base: " + std::to_string(lookups) + " lookups)"});
  add("cache.lookup_us", pick.p50("cache.find"));
  add("cache.evictions",
      {static_cast<double>(after.evictions - before.evictions),
       "(wire phase)"});
  const double batches = after.batch_count - before.batch_count;
  add("sched.batch_size_mean",
      {batches > 0 ? (after.batch_sum - before.batch_sum) / batches : 0.0,
       "(" + std::to_string(static_cast<std::uint64_t>(batches)) + " batches)"});
  add("sched.batches_per_req",
      {static_cast<double>(after.batches - before.batches) /
           static_cast<double>(std::max<std::uint64_t>(
               1, after.requests - before.requests)),
       "(stats op deltas)"});
  for (const char* op : kQueryOps) {
    add(std::string("engine.query_ms.") + op,
        pick.p50(std::string("engine.") + op, 1e-3));
  }
  const double qn = engine_after.query_count - engine_before.query_count;
  add("engine.server_query_ms_mean",
      {qn > 0 ? (engine_after.query_ns - engine_before.query_ns) / qn / 1e6
              : 0.0,
       std::string("(") + (engine_probe ? "probe: " : "") +
           std::to_string(static_cast<std::uint64_t>(qn)) +
           " daemon computes)"});
  add("machine.build_us", pick.p50("machine.build"));
  add("machine.ns_per_sim_round", pick.ratio(
      [](const ReplayResult& r) {
        return std::make_pair(r.algo_ns, static_cast<double>(r.algo_rounds));
      },
      "simulated rounds"));
  const double n_items = static_cast<double>(std::max<std::size_t>(1, own.items));
  add("machine.sim_messages_per_req",
      {static_cast<double>(own.sim_messages) / n_items, "(exact)"});
  add("machine.fault_retries_per_req",
      {static_cast<double>(own.fault_retries) / n_items, "(exact)"});
  add("machine.fault_detour_rounds_per_req",
      {static_cast<double>(own.fault_detour_rounds) / n_items, "(exact)"});
  for (const char* op : kQueryOps) {
    add(std::string("dyncg.algo_ms.") + op,
        pick.p50(std::string("dyncg.") + op, 1e-3));
  }
  add("envelope.parallel_self_ms", pick.self_ms({"envelope."}));
  add("ops.self_ms", pick.self_ms({"ops."}));
  add("fault.recover_self_ms", pick.self_ms({"fault.recover"}));
  add("dynenv.insert_us", pick.p50("dynenv.insert"));
  add("dynenv.erase_us", pick.p50("dynenv.erase"));
  add("dynenv.advance_us", pick.p50("dynenv.advance"));
  add("dynenv.query_us", pick.p50("dynenv.query"));
  add("dynenv.recombines_per_update", pick.ratio(
      [](const ReplayResult& r) {
        return std::make_pair(static_cast<double>(r.dynenv_recombines),
                              static_cast<double>(r.dynenv_updates));
      },
      "updates, exact"));
  add("fleet.handle_us.update", pick.p50("fleet.update"));
  add("fleet.handle_us.query", pick.p50("fleet.query"));
  add("kernels.horner_elems_per_req",
      {static_cast<double>(own.horner_elems) / n_items, "(exact)"});
  add("kernels.compare_elems_per_req",
      {static_cast<double>(own.compare_elems) / n_items, "(exact)"});
  add("kernels.horner_ns_per_elem", {horner_ns, "(degree 4, batches of 64)"});
  add("trace.overhead_pct",
      {own.untraced_s > 0 ? (own.traced_s / own.untraced_s - 1.0) * 100.0 : 0.0,
       "(traced vs untraced replay wall time)"});

  const bool correct = replay_error.empty() && stopped && ok == sent;
  const std::string line = report.result_line(correct, sent, sent - ok);
  if (line.empty()) return 1;
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

std::uint64_t parse_u64(const char* flag, const char* v, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || x > max || v[0] == '-') {
    usage((std::string(flag) + " expects an integer").c_str());
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      if (!parse_workload(v, &opt.workload)) usage("unknown workload");
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = parse_u64("--seed", v, ~std::uint64_t{0});
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64("--seconds", v, 3600));
      if (opt.seconds < 1) usage("--seconds must be at least 1");
    } else if (a == "--trace") {
      opt.trace = parse_u64("--trace", v, 1) == 1;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  mkdir(opt.work_dir.c_str(), 0755);
  return opt.trace ? run_traced(opt) : run_end_to_end(opt);
}
