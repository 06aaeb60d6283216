// dyncg_chaos — seeded socket-abuse harness for dyncg_serve
// (docs/ROBUSTNESS.md#serving-resilience).
//
//   dyncg_chaos (--port N | --port-file PATH) [--seed S] [--rounds R]
//               [--concurrency C] [--max-line BYTES] [--timeout-ms MS]
//               [--oracle]
//
// Drives a live server through a deterministic (seeded) schedule of client
// lanes, most of them hostile:
//
//   tracked   well-behaved closed-loop clients sending valid geometric
//             queries (plus a sprinkle of known-invalid lines); every
//             response is checked — one response per request, in request
//             order, status from the known set, and (--oracle) OK answers
//             byte-identical to an in-process serve::run_query, rendered
//             (serve::oracle_mismatch)
//   flood     one connection bursting pings far past the queue cap in a
//             single write, then reading back exactly one response per line
//             (sheds come back UNAVAILABLE — they still count)
//   trickle   a valid request dripped one byte per event-loop tick — slow,
//             but making progress, so the stall reaper must spare it
//   midline   half a request, no newline, then an abrupt close
//   neverread pipelines pings and never reads a byte — the server's
//             output-buffer cap must disconnect it, not grow
//   oversize  a line longer than the server's --max-line; expects
//             INVALID_ARGUMENT
//
// After every lane finishes (or the harness times out — a timeout is a
// deadlock verdict), a fresh connection checks liveness (ping) and fetches
// `stats` + `metrics` to assert the accounting identity
//
//   requests == responses.ok + errors + shed + deadline_exceeded
//
// i.e. serve.shed / serve.deadline_exceeded account for every request that
// was accepted but not completed.  Exit codes: 0 all invariants held;
// 1 connect/socket setup failure; 2 usage; 3 invariant violation (details
// on stderr).
//
// The schedule, lane payloads, and interleaving are pure functions of
// --seed; wall-clock timing is not, so assertions never compare
// timing-dependent figures — the determinism claims (byte-identical
// responses, exact counters) are checked per-response via the oracle, not
// by comparing two chaotic runs.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace dyncg;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dyncg_chaos (--port N | --port-file PATH) [--seed S] "
               "[--rounds R] [--concurrency C] [--max-line BYTES] "
               "[--timeout-ms MS] [--oracle]\n");
  std::exit(2);
}

long parse_long(const std::string& flag, const char* tok, long min_value,
                long max_value) {
  char* end = nullptr;
  long v = std::strtol(tok, &end, 10);
  if (end == tok || *end != '\0' || v < min_value || v > max_value) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%ld, %ld], got '%s'\n",
                 flag.c_str(), min_value, max_value, tok);
    usage();
  }
  return v;
}

int g_violations = 0;

void violation(const std::string& msg) {
  ++g_violations;
  std::fprintf(stderr, "VIOLATION: %s\n", msg.c_str());
}

// --- lanes ------------------------------------------------------------------

enum class Kind { kTracked, kFlood, kTrickle, kMidline, kNeverRead, kOversize };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kTracked: return "tracked";
    case Kind::kFlood: return "flood";
    case Kind::kTrickle: return "trickle";
    case Kind::kMidline: return "midline";
    case Kind::kNeverRead: return "neverread";
    case Kind::kOversize: return "oversize";
  }
  return "?";
}

struct Sent {
  std::string line;     // the request as written
  bool expect_ok;       // false = the lane knows this line is invalid
};

struct Lane {
  Kind kind = Kind::kTracked;
  int id = 0;
  std::unique_ptr<serve::Client> client;  // non-blocking once connected
  bool started = false;
  bool done = false;
  std::string inbuf;            // partial response bytes
  std::string outbuf;           // bytes queued for the socket
  std::deque<Sent> script;      // requests not yet queued to outbuf
  std::deque<Sent> awaiting;    // requests written, response pending
  std::size_t trickle_budget = 0;  // max bytes written per tick (0 = all)
  int linger_ticks = 0;            // midline: ticks to wait before closing
  std::size_t responses = 0;
};

// Statuses a response may legally carry.  Anything else (or non-JSON) is a
// protocol violation.
bool known_status(const std::string& s) {
  return s == "OK" || s == "INVALID_ARGUMENT" || s == "PARSE_ERROR" ||
         s == "UNAVAILABLE" || s == "DEADLINE_EXCEEDED";
}

bool oracle_enabled = false;

// Verify one response line against the oldest in-flight request of the
// lane.  Responses arrive in request order per connection; error responses
// rendered before parsing carry no id, so the id is only matched when
// present.
void check_response(Lane& lane, const std::string& line) {
  ++lane.responses;
  if (lane.awaiting.empty()) {
    violation(std::string(kind_name(lane.kind)) + " lane " +
              std::to_string(lane.id) + ": unsolicited response: " + line);
    return;
  }
  Sent sent = lane.awaiting.front();
  lane.awaiting.pop_front();
  json::Value v;
  if (!json::parse(line, &v) || !v.is_object()) {
    violation("response is not a JSON object: " + line);
    return;
  }
  const json::Value* status = v.find("status");
  if (status == nullptr || !status->is_string() ||
      !known_status(status->string)) {
    violation("response carries no known status: " + line);
    return;
  }
  if (status->string == "OK" && !sent.expect_ok) {
    violation("known-invalid request was answered OK: " + sent.line);
    return;
  }
  // Only OK answers go to the oracle: under this load a valid request may
  // legally come back shed or past its deadline.
  if (status->string != "OK" || !oracle_enabled) return;
  std::string why = serve::oracle_mismatch(sent.line, line);
  if (!why.empty()) {
    violation("oracle mismatch (" + why + ") for: " + sent.line);
  }
}

// --- seeded request generation ----------------------------------------------

std::string make_query(Rng& rng, const std::string& id, bool* expect_ok) {
  static const char* kOps[] = {"neighbor", "collisions", "hullwhen",
                               "contain", "pairs"};
  int pick = rng.uniform_int(0, 11);
  *expect_ok = true;
  if (pick == 10) {
    *expect_ok = false;
    return "{\"op\":\"frobnicate\",\"id\":\"" + id + "\"}";
  }
  if (pick == 11) {
    *expect_ok = false;
    return "{\"op\":";  // malformed JSON: PARSE_ERROR
  }
  if (pick == 9) {
    return "{\"op\":\"ping\",\"id\":\"" + id + "\"}";
  }
  const char* op = kOps[pick % 5];
  int n = rng.uniform_int(4, 8);
  json::Writer w;
  w.begin_object();
  w.key("op");
  w.value(op);
  w.key("id");
  w.value(id);
  w.key("scenario");
  w.begin_object();
  w.key("seed");
  w.value(static_cast<std::uint64_t>(rng.uniform_int(1, 4)));
  w.key("n");
  w.value(static_cast<std::uint64_t>(n));
  w.key("d");
  w.value(std::uint64_t{2});
  w.key("k");
  w.value(std::uint64_t{1});
  w.end_object();
  w.key("machine");
  w.value(rng.uniform_int(0, 1) == 0 ? "mesh" : "hypercube");
  bool pointless = std::strcmp(op, "pairs") == 0 ||
                   std::strcmp(op, "contain") == 0;
  if (!pointless) {
    w.key("query");
    w.value(static_cast<std::uint64_t>(rng.uniform_int(0, n - 1)));
  }
  if (rng.uniform_int(0, 9) == 0) {
    // Exercise the deadline path; under load these may legitimately come
    // back DEADLINE_EXCEEDED, which known_status() accepts.
    w.key("deadline_ms");
    w.value(static_cast<std::uint64_t>(rng.uniform_int(1, 2000)));
  }
  w.end_object();
  return w.take();
}

Lane make_lane(Rng& rng, int id, std::size_t server_max_line) {
  Lane lane;
  lane.id = id;
  int pick = rng.uniform_int(0, 19);
  if (pick < 8) {
    lane.kind = Kind::kTracked;
    int count = rng.uniform_int(2, 6);
    for (int i = 0; i < count; ++i) {
      bool expect_ok = true;
      std::string rid = "t" + std::to_string(id) + "." + std::to_string(i);
      std::string line = make_query(rng, rid, &expect_ok);
      lane.script.push_back(Sent{line, expect_ok});
    }
  } else if (pick < 11) {
    lane.kind = Kind::kFlood;
    // Sized so even a fully-shed burst (~70 B per shed response, queued in
    // one batch with no flush in between) stays under the tight 4 KiB
    // output cap serve_chaos.sh runs with: a flood lane must be answered,
    // never itself cut by the slow-client defense.
    int count = rng.uniform_int(16, 40);
    for (int i = 0; i < count; ++i) {
      std::string rid = "f" + std::to_string(id) + "." + std::to_string(i);
      lane.script.push_back(
          Sent{"{\"op\":\"ping\",\"id\":\"" + rid + "\"}", true});
    }
  } else if (pick < 13) {
    lane.kind = Kind::kTrickle;
    bool expect_ok = true;
    lane.script.push_back(
        Sent{make_query(rng, "s" + std::to_string(id), &expect_ok), true});
    lane.script.back().expect_ok = expect_ok;
    lane.trickle_budget = 1;
  } else if (pick < 16) {
    lane.kind = Kind::kMidline;
    lane.linger_ticks = rng.uniform_int(2, 30);
  } else if (pick < 18) {
    lane.kind = Kind::kNeverRead;
    int count = rng.uniform_int(128, 512);
    for (int i = 0; i < count; ++i) {
      lane.script.push_back(
          Sent{"{\"op\":\"ping\",\"id\":\"n" + std::to_string(id) + "." +
                   std::to_string(i) + "\"}",
               true});
    }
    // Stay connected (never reading) after the burst so response bytes
    // actually pile up server-side and the output-buffer cap has to act.
    lane.linger_ticks = rng.uniform_int(100, 300);
  } else {
    lane.kind = Kind::kOversize;
    // One line comfortably past the server's cap; answered
    // INVALID_ARGUMENT and discarded up to the newline.
    std::string big = "{\"op\":\"ping\",\"id\":\"";
    big.append(server_max_line + 64, 'x');
    big += "\"}";
    lane.script.push_back(Sent{big, false});
  }
  return lane;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // hostile lanes write into dead sockets
  int port = -1;
  std::string port_file;
  std::uint64_t seed = 1;
  int rounds = 48;
  int concurrency = 10;
  std::size_t server_max_line = 512;
  long timeout_ms = 60000;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (std::size_t eq = a.find('='); eq != std::string::npos) {
      inline_value = a.substr(eq + 1);
      a = a.substr(0, eq);
      has_inline = true;
    }
    auto next = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", a.c_str());
        usage();
      }
      return argv[++i];
    };
    if (a == "--port") {
      port = static_cast<int>(parse_long(a, next().c_str(), 1, 65535));
    } else if (a == "--port-file") {
      port_file = next();
    } else if (a == "--seed") {
      seed = static_cast<std::uint64_t>(
          parse_long(a, next().c_str(), 0, 1L << 40));
    } else if (a == "--rounds") {
      rounds = static_cast<int>(parse_long(a, next().c_str(), 1, 4096));
    } else if (a == "--concurrency") {
      concurrency = static_cast<int>(parse_long(a, next().c_str(), 1, 64));
    } else if (a == "--max-line") {
      server_max_line = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 64, 1 << 28));
    } else if (a == "--timeout-ms") {
      timeout_ms = parse_long(a, next().c_str(), 1000, 3600000);
    } else if (a == "--oracle") {
      oracle_enabled = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      usage();
    }
  }
  if (port < 0 && port_file.empty()) usage();
  port = serve::resolve_port(port, port_file);
  if (port < 0) {
    std::fprintf(stderr, "error: no port in %s\n", port_file.c_str());
    return 1;
  }

  // The full schedule is generated up front: lane kinds and payloads are a
  // pure function of --seed, so a failing run replays exactly.
  Rng rng(seed);
  std::vector<Lane> lanes;
  lanes.reserve(static_cast<std::size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    lanes.push_back(make_lane(rng, i, server_max_line));
  }

  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  const auto deadline = t0 + std::chrono::milliseconds(timeout_ms);
  std::size_t next_lane = 0;
  std::size_t lanes_done = 0;
  std::size_t counts[6] = {0, 0, 0, 0, 0, 0};

  while (lanes_done < lanes.size()) {
    if (clock::now() >= deadline) {
      // Lanes still waiting on responses after the global timeout mean the
      // server wedged (or stopped answering) — the deadlock verdict.
      for (const Lane& lane : lanes) {
        if (lane.started && !lane.done &&
            (lane.kind == Kind::kTracked || lane.kind == Kind::kFlood ||
             lane.kind == Kind::kTrickle || lane.kind == Kind::kOversize)) {
          violation(std::string(kind_name(lane.kind)) + " lane " +
                    std::to_string(lane.id) + " still has " +
                    std::to_string(lane.awaiting.size()) +
                    " unanswered requests at timeout (deadlock?)");
        }
      }
      break;
    }
    // Admit new lanes up to the concurrency cap (which stays below the
    // server's --max-conns so no lane is rejected at accept).
    std::size_t active = 0;
    for (const Lane& lane : lanes) {
      if (lane.started && !lane.done) ++active;
    }
    while (next_lane < lanes.size() &&
           active < static_cast<std::size_t>(concurrency)) {
      Lane& lane = lanes[next_lane++];
      // A never-reading client with a tiny receive window forces response
      // bytes to pile up on the server side, where the output-buffer cap
      // must cut the connection.
      lane.client = std::make_unique<serve::Client>(
          port, lane.kind == Kind::kNeverRead ? 2048 : 0);
      const int fd = lane.client->fd();
      if (fd < 0) {
        std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%d\n",
                     port);
        return 1;
      }
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);  // lanes poll
      lane.started = true;
      ++counts[static_cast<std::size_t>(lane.kind)];
      ++active;
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_lane;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      Lane& lane = lanes[i];
      if (!lane.started || lane.done || lane.client == nullptr) continue;
      short events = 0;
      if (lane.kind != Kind::kNeverRead) events |= POLLIN;
      if (!lane.outbuf.empty() || !lane.script.empty()) events |= POLLOUT;
      fds.push_back(pollfd{lane.client->fd(), events, 0});
      fd_lane.push_back(i);
    }
    if (!fds.empty()) poll(fds.data(), fds.size(), 5);

    for (std::size_t i = 0; i < fd_lane.size(); ++i) {
      Lane& lane = lanes[fd_lane[i]];
      short re = fds[i].revents;

      // Queue work into outbuf according to the lane's discipline.
      if (lane.outbuf.empty() && !lane.script.empty()) {
        if (lane.kind == Kind::kTracked || lane.kind == Kind::kTrickle) {
          if (lane.awaiting.empty()) {  // closed loop: one in flight
            Sent s = lane.script.front();
            lane.script.pop_front();
            lane.outbuf = s.line + "\n";
            lane.awaiting.push_back(std::move(s));
          }
        } else {  // flood / neverread / oversize: everything at once
          while (!lane.script.empty()) {
            Sent s = lane.script.front();
            lane.script.pop_front();
            lane.outbuf += s.line;
            lane.outbuf += '\n';
            lane.awaiting.push_back(std::move(s));
          }
        }
      }
      if (lane.kind == Kind::kMidline && lane.outbuf.empty() &&
          lane.responses == 0) {
        lane.outbuf = "{\"op\":\"ping\",\"id\":\"m" +
                      std::to_string(lane.id) + "\",\"mach";  // no newline
        lane.responses = 1;  // marker: half-line queued once
      }

      // Write phase (bounded for trickle lanes).
      if ((re & (POLLOUT | POLLERR | POLLHUP)) != 0 &&
          !lane.outbuf.empty()) {
        std::size_t want = lane.trickle_budget != 0
                               ? std::min(lane.trickle_budget,
                                          lane.outbuf.size())
                               : lane.outbuf.size();
        ssize_t n = write(lane.client->fd(), lane.outbuf.data(), want);
        if (n > 0) {
          lane.outbuf.erase(0, static_cast<std::size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          // The server cut us off.  For neverread lanes that is the
          // expected outcome (output-buffer overflow); for midline lanes
          // any outcome is fine; a tracked/flood/trickle/oversize lane
          // losing its socket mid-run breaks answered-exactly-once.
          if (lane.kind == Kind::kTracked || lane.kind == Kind::kFlood ||
              lane.kind == Kind::kTrickle || lane.kind == Kind::kOversize) {
            violation(std::string(kind_name(lane.kind)) + " lane " +
                      std::to_string(lane.id) +
                      " lost its connection on write (errno " +
                      std::to_string(errno) + ")");
          }
          lane.client.reset();
          lane.done = true;
          ++lanes_done;
          continue;
        }
      }

      // Read phase.
      if (lane.kind != Kind::kNeverRead &&
          (re & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char chunk[65536];
        for (;;) {
          ssize_t n = read(lane.client->fd(), chunk, sizeof(chunk));
          if (n > 0) {
            lane.inbuf.append(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          // EOF / reset.
          if (!lane.awaiting.empty() || !lane.script.empty()) {
            if (lane.kind != Kind::kMidline) {
              violation(std::string(kind_name(lane.kind)) + " lane " +
                        std::to_string(lane.id) + " got EOF with " +
                        std::to_string(lane.awaiting.size() +
                                       lane.script.size()) +
                        " requests unanswered");
            }
          }
          lane.client.reset();
          lane.done = true;
          ++lanes_done;
          break;
        }
        if (lane.done) continue;
        for (;;) {
          std::size_t nl = lane.inbuf.find('\n');
          if (nl == std::string::npos) break;
          std::string line = lane.inbuf.substr(0, nl);
          lane.inbuf.erase(0, nl + 1);
          check_response(lane, line);
        }
      }

      // Lane-specific completion.
      bool finished = false;
      switch (lane.kind) {
        case Kind::kTracked:
        case Kind::kTrickle:
        case Kind::kFlood:
        case Kind::kOversize:
          finished = lane.script.empty() && lane.awaiting.empty() &&
                     lane.outbuf.empty();
          break;
        case Kind::kMidline:
          if (lane.outbuf.empty() && lane.responses == 1) {
            if (--lane.linger_ticks <= 0) finished = true;
          }
          break;
        case Kind::kNeverRead:
          // Everything written: hold the socket open without reading until
          // the server's output-buffer cap cuts us off (POLLHUP/POLLERR)
          // or the linger budget runs out.
          if (lane.script.empty() && lane.outbuf.empty()) {
            if ((re & (POLLHUP | POLLERR)) != 0) finished = true;
            if (--lane.linger_ticks <= 0) finished = true;
          }
          break;
      }
      if (finished) {
        lane.client.reset();
        lane.done = true;
        ++lanes_done;
      }
    }
  }

  // Give the server one poll cycle to finish any leftover lines from lanes
  // that closed without reading (their requests still get processed and
  // counted), so the accounting snapshot below is quiescent.
  usleep(600 * 1000);

  // --- liveness + accounting ------------------------------------------------
  serve::Client probe(port);
  if (!probe.connected()) {
    violation("server refused the post-chaos liveness connection");
  } else {
    const std::string response =
        probe.round_trip("{\"op\":\"ping\",\"id\":\"final\"}");
    if (response.find("\"status\":\"OK\"") == std::string::npos) {
      violation("post-chaos ping failed (server dead or wedged): " +
                response);
    }
    const std::string stats_line = probe.round_trip("{\"op\":\"stats\"}");
    const std::string metrics_line =
        stats_line.empty() ? "" : probe.round_trip("{\"op\":\"metrics\"}");
    if (metrics_line.empty()) {
      violation("post-chaos stats/metrics round-trip failed");
    } else {
      json::Value sv;
      json::Value mv;
      const json::Value* stats = nullptr;
      if (!json::parse(stats_line, &sv) ||
          (stats = sv.find("stats")) == nullptr || !stats->is_object()) {
        violation("malformed stats response: " + stats_line);
      } else if (!json::parse(metrics_line, &mv)) {
        violation("malformed metrics response: " + metrics_line);
      } else {
        auto counter = [&](const char* key) -> std::uint64_t {
          const json::Value* c = stats->find(key);
          return c != nullptr && c->is_number()
                     ? static_cast<std::uint64_t>(c->number)
                     : 0;
        };
        std::uint64_t requests = counter("requests");
        std::uint64_t errors = counter("errors");
        std::uint64_t shed = counter("shed");
        std::uint64_t deadline_exceeded = counter("deadline_exceeded");
        // serve.responses.ok from the registry embedded in the metrics
        // response; rendered after the stats response, so it covers the
        // ping and stats round-trips exactly (see the identity below).
        std::uint64_t responses_ok = 0;
        bool found = false;
        if (const json::Value* m = mv.find("metrics")) {
          if (const json::Value* counters = m->find("counters")) {
            for (const json::Value& c : counters->array) {
              const json::Value* name = c.find("name");
              const json::Value* value = c.find("value");
              if (name != nullptr && name->is_string() &&
                  name->string == "serve.responses.ok" && value != nullptr) {
                responses_ok = static_cast<std::uint64_t>(value->number);
                found = true;
              }
            }
          }
        }
        if (!found) {
          violation("serve.responses.ok missing from the metrics registry");
        } else if (requests != responses_ok + errors + shed +
                                   deadline_exceeded) {
          // stats.requests includes the final ping + the stats request
          // itself; responses.ok (snapshotted one batch later, before the
          // metrics response increments it) includes their two OK
          // responses — the +2s cancel, so the identity is exact.
          violation(
              "accounting identity broken: requests=" +
              std::to_string(requests) + " != responses.ok=" +
              std::to_string(responses_ok) + " + errors=" +
              std::to_string(errors) + " + shed=" + std::to_string(shed) +
              " + deadline_exceeded=" + std::to_string(deadline_exceeded));
        } else {
          std::fprintf(stderr,
                       "dyncg_chaos: accounting holds: %llu requests = "
                       "%llu ok + %llu errors + %llu shed + %llu "
                       "deadline_exceeded\n",
                       static_cast<unsigned long long>(requests),
                       static_cast<unsigned long long>(responses_ok),
                       static_cast<unsigned long long>(errors),
                       static_cast<unsigned long long>(shed),
                       static_cast<unsigned long long>(deadline_exceeded));
        }
      }
    }
  }

  double elapsed =
      std::chrono::duration<double>(clock::now() - t0).count();
  std::fprintf(stderr,
               "dyncg_chaos: seed %llu, %d lanes in %.2fs "
               "(%zu tracked, %zu flood, %zu trickle, %zu midline, "
               "%zu neverread, %zu oversize), %d violation(s)\n",
               static_cast<unsigned long long>(seed), rounds, elapsed,
               counts[0], counts[1], counts[2], counts[3], counts[4],
               counts[5], g_violations);
  return g_violations == 0 ? 0 : 3;
}
