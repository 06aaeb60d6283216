// dyncg_load — load generator, correctness oracle, and bench reporter for
// dyncg_serve (docs/SERVING.md#load).
//
//   dyncg_load (--port N | --port-file PATH) [mode options]
//
// Bench mode (default): sends a deterministic grid of queries — every op in
// --ops × --scenarios generated scenarios, the whole grid repeated
// --repeats times — as sequential round-trips on ONE connection, so the
// server's FIFO cache sees a fully deterministic request stream: misses =
// ops × scenarios on the first pass, hits everywhere after.  Scenario i
// uses seed i+1 and n = --n << i (a size sweep, so per-op rounds give a
// log-log slope).  Afterwards `stats` and `metrics` requests fetch the
// server's counters and full metrics registry, and the run is written as
// BENCH_serve.json (--json PATH): schema v2 with the usual deterministic
// `tables` (per-op simulated rounds over the n sweep, plus exact hit/miss
// counter rows), exact simulated-cost percentiles (sim_rounds_p50/p99) and
// the embedded `metrics` registry — all gated by dyncg_bench_diff — and
// host-noisy `serve` figures (rps, p50/p99 latency) that the gate
// deliberately ignores.
//
// Script mode (--send FILE): sends FILE's raw lines verbatim, writes one
// response line per non-empty request line to stdout (or --results-out).
// With --decode, writes each OK response's decoded `result` text instead —
// i.e. exactly the bytes dyncg_cli prints for the same scenario minus its
// cost line — and fails (exit 5) on any non-OK response; this is what the
// e2e test diffs against real CLI output.  With --pipeline, the whole
// script is sent in one write before the first response is read — one
// burst, so the server forms multi-request batches.
//
// Either mode, --oracle: every response must pass serve::oracle_mismatch —
// an OK answer byte-identical (key, machine, cost, result) to the rendering
// of an in-process serve::run_query, no OK for a rejected line — or exit 7.
//
// Stream mode (--stream N): opens one fleet session (d=2, k=1, --machine)
// and drives N seeded randomized fleet_update batches — inserts (sometimes
// duplicating a live trajectory to exercise dedupe), erases, and monotone
// advances — mirroring the member set client-side.  All coefficients are
// small integers and advances are multiples of 1/1024, so every value
// round-trips exactly through the JSON wire.  Every few steps (and at the
// end) a fleet_query is checked by serve::fleet_oracle_mismatch against a
// from-scratch canonical_rebuild over the mirrored members: `result` and
// the fingerprint `key` must match exactly, or the maintained merge tree
// diverged from the rebuild contract — exit 7.
// Update-latency percentiles (p50/p99 ms, host-noisy) print at the end.
//
// Options:
//   --port N           connect to 127.0.0.1:N
//   --port-file PATH   read the port from PATH (written by dyncg_serve)
//   --ops a,b,c        bench ops                (default neighbor,pairs,
//                                                collisions)
//   --scenarios S      scenarios per op         (default 3)
//   --repeats R        grid repetitions         (default 3)
//   --n N              base scenario size       (default 8)
//   --machine M        mesh|hypercube           (default mesh)
//   --json PATH        write BENCH_serve.json   (default: off)
//   --send FILE        script mode (see above)
//   --results-out F    script-mode responses to F instead of stdout
//   --decode           script mode: write decoded result text, not JSON
//   --pipeline         script mode: send the whole script in one write
//                      before reading replies
//   --oracle           verify results against in-process recompute
//   --stream N         fleet-session stream mode (see above): N update
//                      batches, oracle-checked queries, exit 7 on mismatch
//   --seed S           stream-mode RNG seed      (default 1)
//   --threads T        host threads for the oracle recompute
//
// Exit codes: 0 ok; 1 I/O (connect / file); 2 usage; 5 malformed response;
// 7 oracle mismatch; 8 the server closed the connection mid-run (EOF or
// EPIPE after at least one request went out — e.g. it was SIGTERMed and
// drained, or it dropped this client as stalled; the last unanswered
// request is printed so the failure is attributable).  SIGPIPE is ignored
// so a write into a dead socket reports code 8 instead of killing the
// process silently.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dyncg/motion.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/build_info.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace dyncg;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dyncg_load (--port N | --port-file PATH) "
               "[--ops a,b,c] [--scenarios S] [--repeats R] [--n N] "
               "[--machine mesh|hypercube] [--json PATH] [--send FILE] "
               "[--results-out FILE] [--decode] [--pipeline] [--oracle] "
               "[--stream N] [--seed S] [--threads T]\n");
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

struct ResponseFacts {
  bool ok = false;
  bool hit = false;
  double rounds = 0;
  std::string result;
};

bool read_response(const std::string& line, ResponseFacts* out) {
  json::Value v;
  if (!json::parse(line, &v) || !v.is_object()) return false;
  const json::Value* status = v.find("status");
  if (status == nullptr || !status->is_string()) return false;
  out->ok = status->string == "OK";
  if (!out->ok) return true;  // error responses carry no result/cost
  const json::Value* cache = v.find("cache");
  out->hit = cache != nullptr && cache->string == "hit";
  if (const json::Value* cost = v.find("cost")) {
    if (const json::Value* rounds = cost->find("rounds")) {
      out->rounds = rounds->number;
    }
  }
  if (const json::Value* result = v.find("result")) {
    out->result = result->string;
  }
  return true;
}

// The server hung up (EOF on read, EPIPE on write) with `request_line`
// still unanswered.  Distinct from never connecting (exit 1): the run was
// under way, so the caller needs to know exactly where it stopped.  The
// pinned exit code is 8 (docs/SERVING.md#load).
int connection_lost(const std::string& request_line) {
  std::string what = request_line;
  json::Value v;
  if (json::parse(request_line, &v) && v.is_object()) {
    if (const json::Value* id = v.find("id")) {
      if (id->is_string()) {
        what = "id \"" + id->string + "\"";
      } else if (id->is_number()) {
        what = "id " + json::dump(*id);
      }
    }
  }
  if (what.size() > 200) what = what.substr(0, 200) + "...";
  std::fprintf(stderr,
               "error: server closed the connection; "
               "last unanswered request: %s\n",
               what.c_str());
  return 8;
}

// ---- stream mode helpers ----

// A fleet member for the session's d=2, k=1 shape: two affine coordinates
// with small integer coefficients — exact on the wire and cheap to cross.
Trajectory random_stream_point(Rng& rng) {
  std::vector<Polynomial> coords;
  for (int c = 0; c < 2; ++c) {
    coords.push_back(Polynomial(
        {static_cast<double>(rng.uniform_int(-8, 8)),
         static_cast<double>(rng.uniform_int(-4, 4))}));
  }
  return Trajectory(std::move(coords));
}

void append_point_json(std::string* out, const Trajectory& t) {
  *out += '[';
  for (std::size_t c = 0; c < t.dimension(); ++c) {
    if (c > 0) *out += ',';
    *out += '[';
    const Polynomial& poly = t.coordinate(c);
    for (int i = 0; i <= std::max(poly.degree(), 0); ++i) {
      if (i > 0) *out += ',';
      *out += serve::exact_double(poly.coefficient(i));
    }
    *out += ']';
  }
  *out += ']';
}

double percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0;
  std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

// Exact percentile over integer simulated-cost figures: the same
// nearest-rank rule as percentile(), but the selected value is returned
// untouched — no floating arithmetic on the figures themselves, so the
// result is byte-exact across runs and thread counts.
std::uint64_t percentile_u64(const std::vector<std::uint64_t>& sorted,
                             double p) {
  if (sorted.empty()) return 0;
  std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  // A server that drains or drops this client mid-run must surface as exit
  // code 8 with the unanswered request printed — not as a silent SIGPIPE
  // death halfway through a script.
  std::signal(SIGPIPE, SIG_IGN);
  int port = -1;
  std::string port_file;
  std::vector<std::string> ops = {"neighbor", "pairs", "collisions"};
  std::size_t scenarios = 3;
  std::size_t repeats = 3;
  std::size_t base_n = 8;
  std::string machine = "mesh";
  std::string json_out;
  std::string send_file;
  std::string results_out;
  bool decode = false;
  bool pipeline = false;
  bool oracle = false;
  std::size_t stream_steps = 0;
  std::uint64_t stream_seed = 1;

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
    } else if (a == "--ops") {
      ops.clear();
      std::string spec = next();
      std::stringstream ss(spec);
      std::string op;
      while (std::getline(ss, op, ',')) {
        if (op != "neighbor" && op != "pairs" && op != "collisions" &&
            op != "hullwhen" && op != "contain" && op != "steady") {
          std::fprintf(stderr, "error: unknown op '%s'\n", op.c_str());
          usage();
        }
        ops.push_back(op);
      }
      if (ops.empty()) usage();
    } else if (a == "--scenarios") {
      scenarios =
          static_cast<std::size_t>(parse_long(a, next().c_str(), 1, 8));
    } else if (a == "--repeats") {
      repeats =
          static_cast<std::size_t>(parse_long(a, next().c_str(), 1, 1000));
    } else if (a == "--n") {
      base_n =
          static_cast<std::size_t>(parse_long(a, next().c_str(), 2, 512));
    } else if (a == "--machine") {
      machine = next();
      if (machine != "mesh" && machine != "hypercube") usage();
    } else if (a == "--json") {
      json_out = next();
    } else if (a == "--send") {
      send_file = next();
    } else if (a == "--results-out") {
      results_out = next();
    } else if (a == "--decode") {
      decode = true;
    } else if (a == "--pipeline") {
      pipeline = true;
    } else if (a == "--oracle") {
      oracle = true;
    } else if (a == "--stream") {
      stream_steps =
          static_cast<std::size_t>(parse_long(a, next().c_str(), 1, 100000));
    } else if (a == "--seed") {
      // Same 2^40 cap as scenario seeds on the wire.
      stream_seed = static_cast<std::uint64_t>(
          parse_long(a, next().c_str(), 0, 1L << 40));
    } else if (a == "--threads") {
      set_host_threads(
          static_cast<unsigned>(parse_long(a, next().c_str(), 0, 1024)));
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

  serve::Client client(port);
  if (!client.connected()) {
    std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%d\n", port);
    return 1;
  }

  // ---- script mode ----
  if (!send_file.empty()) {
    std::ifstream in(send_file);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", send_file.c_str());
      return 1;
    }
    std::FILE* out = stdout;
    if (!results_out.empty()) {
      out = std::fopen(results_out.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     results_out.c_str());
        return 1;
      }
    }
    // With --pipeline the whole script goes out in one write before the
    // first response is read; responses come back in request order (one
    // connection, answered in arrival order), so the processing loop below
    // is identical either way.
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    int rc = 0;
    if (pipeline && !lines.empty()) {
      std::string script;
      for (const std::string& l : lines) script += l + "\n";
      if (!client.send(script)) rc = connection_lost(lines.front());
    }
    for (std::size_t li = 0; li < lines.size() && rc == 0; ++li) {
      line = lines[li];
      std::string response;
      if ((!pipeline && !client.send(line + "\n")) ||
          (response = client.recv_line()).empty()) {
        // In pipeline mode lines[li] is the oldest request still awaiting
        // its response — exactly the one the server never answered.
        rc = connection_lost(line);
        break;
      }
      ResponseFacts facts;
      if ((decode || oracle) && !read_response(response, &facts)) {
        std::fprintf(stderr, "error: malformed response: %s\n",
                     response.c_str());
        rc = 5;
        break;
      }
      if (decode) {
        if (!facts.ok) {
          std::fprintf(stderr, "error: request failed: %s\n",
                       response.c_str());
          rc = 5;
          break;
        }
        std::fwrite(facts.result.data(), 1, facts.result.size(), out);
      } else {
        std::fprintf(out, "%s\n", response.c_str());
      }
      if (oracle) {
        std::string why = serve::oracle_mismatch(line, response);
        if (!why.empty()) {
          std::fprintf(stderr, "error: oracle mismatch for: %s\n  %s\n",
                       line.c_str(), why.c_str());
          rc = 7;
          break;
        }
      }
    }
    if (out != stdout) std::fclose(out);
    return rc;
  }

  // ---- stream mode ----
  if (stream_steps > 0) {
    Rng rng(stream_seed);
    std::map<std::uint64_t, Trajectory> mirror;  // id -> trajectory
    std::vector<std::uint64_t> live_ids;         // sampling without scans
    double now = 0.0;
    std::uint64_t next_member = 1;
    std::uint64_t inserts = 0, erases = 0, advances = 0, checks = 0;
    std::vector<double> update_ms;
    using clock = std::chrono::steady_clock;

    auto round_trip_ok = [&](const std::string& line,
                             std::string* response) -> bool {
      *response = client.round_trip(line);
      if (response->empty()) std::exit(connection_lost(line));
      json::Value v;
      const json::Value* status = nullptr;
      if (!json::parse(*response, &v) ||
          (status = v.find("status")) == nullptr || !status->is_string()) {
        std::fprintf(stderr, "error: malformed response: %s\n",
                     response->c_str());
        std::exit(5);
      }
      return status->string == "OK";
    };

    std::string response;
    std::string open = "{\"op\":\"fleet_open\",\"d\":2,\"k\":1,\"machine\":\"" +
                       machine + "\"}";
    if (!round_trip_ok(open, &response)) {
      std::fprintf(stderr, "error: fleet_open failed: %s\n",
                   response.c_str());
      return 5;
    }
    std::string fleet;
    {
      json::Value v;
      json::parse(response, &v);
      const json::Value* name = v.find("fleet");
      if (name == nullptr || !name->is_string()) {
        std::fprintf(stderr, "error: fleet_open response has no name: %s\n",
                     response.c_str());
        return 5;
      }
      fleet = name->string;
    }

    auto query_and_check = [&]() {
      std::string q =
          "{\"op\":\"fleet_query\",\"fleet\":\"" + fleet + "\"}";
      if (!round_trip_ok(q, &response)) {
        std::fprintf(stderr, "error: fleet_query failed: %s\n",
                     response.c_str());
        std::exit(5);
      }
      std::string why =
          serve::fleet_oracle_mismatch(response, mirror, now, /*k=*/1);
      if (!why.empty()) {
        std::fprintf(stderr,
                     "error: fleet oracle mismatch at t=%.17g with %zu "
                     "members: %s\n  %s\n",
                     now, mirror.size(), response.c_str(), why.c_str());
        std::exit(7);
      }
      ++checks;
    };

    for (std::size_t step = 0; step < stream_steps; ++step) {
      // Compose one update batch: mostly inserts early, erase-heavy once
      // the fleet is large, advances throughout.  Batches may mix all
      // three ops — exactly the traffic the atomic-apply contract covers.
      std::string ins_json;
      std::string erase_json;
      bool do_advance = false;
      int roll = rng.uniform_int(0, 99);
      if (mirror.size() > 256) roll = 55;  // force pressure relief
      if (mirror.empty() || roll < 45) {
        int count = rng.uniform_int(1, 3);
        for (int i = 0; i < count; ++i) {
          std::uint64_t id = next_member++;
          Trajectory point =
              (!live_ids.empty() && rng.uniform_int(0, 9) == 0)
                  ? mirror[live_ids[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<int>(live_ids.size()) - 1))]]
                  : random_stream_point(rng);
          if (!ins_json.empty()) ins_json += ',';
          ins_json += "{\"id\":" + std::to_string(id) + ",\"point\":";
          append_point_json(&ins_json, point);
          ins_json += '}';
          mirror.emplace(id, std::move(point));
          live_ids.push_back(id);
          ++inserts;
        }
      } else if (roll < 70) {
        int count = std::min<int>(rng.uniform_int(1, 2),
                                  static_cast<int>(live_ids.size()));
        for (int i = 0; i < count; ++i) {
          std::size_t pick = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(live_ids.size()) - 1));
          std::uint64_t id = live_ids[pick];
          live_ids[pick] = live_ids.back();
          live_ids.pop_back();
          mirror.erase(id);
          if (!erase_json.empty()) erase_json += ',';
          erase_json += std::to_string(id);
          ++erases;
        }
      } else {
        do_advance = true;
      }
      if (!do_advance && rng.uniform_int(0, 3) == 0) do_advance = true;
      if (do_advance) {
        now += static_cast<double>(rng.uniform_int(1, 512)) / 1024.0;
        ++advances;
      }

      std::string line = "{\"op\":\"fleet_update\",\"fleet\":\"" + fleet + "\"";
      if (!ins_json.empty()) line += ",\"insert\":[" + ins_json + "]";
      if (!erase_json.empty()) line += ",\"erase\":[" + erase_json + "]";
      if (do_advance) line += ",\"advance\":" + serve::exact_double(now);
      line += '}';

      const clock::time_point a = clock::now();
      bool ok = round_trip_ok(line, &response);
      update_ms.push_back(
          std::chrono::duration<double, std::milli>(clock::now() - a)
              .count());
      if (!ok) {
        std::fprintf(stderr, "error: fleet_update failed: %s\n",
                     response.c_str());
        return 5;
      }
      {
        // The response's member count and exact session time must track
        // the mirror — catching drift immediately, not at the next query.
        json::Value v;
        json::parse(response, &v);
        const json::Value* m = v.find("members");
        const json::Value* t = v.find("t");
        if (m == nullptr || !m->is_number() ||
            static_cast<std::size_t>(m->number) != mirror.size() ||
            t == nullptr || !t->is_string() ||
            std::strtod(t->string.c_str(), nullptr) != now) {
          std::fprintf(stderr, "error: fleet state drift after: %s\n -> %s\n",
                       line.c_str(), response.c_str());
          return 7;
        }
      }
      if (step % 8 == 7) query_and_check();
    }
    query_and_check();
    if (!round_trip_ok(
            "{\"op\":\"fleet_close\",\"fleet\":\"" + fleet + "\"}",
            &response)) {
      std::fprintf(stderr, "error: fleet_close failed: %s\n",
                   response.c_str());
      return 5;
    }

    std::sort(update_ms.begin(), update_ms.end());
    std::fprintf(stderr,
                 "dyncg_load: stream seed %llu: %zu updates "
                 "(%llu inserts, %llu erases, %llu advances), %llu oracle "
                 "checks OK, update p50 %.3fms p99 %.3fms\n",
                 static_cast<unsigned long long>(stream_seed), stream_steps,
                 static_cast<unsigned long long>(inserts),
                 static_cast<unsigned long long>(erases),
                 static_cast<unsigned long long>(advances),
                 static_cast<unsigned long long>(checks),
                 percentile(update_ms, 0.50), percentile(update_ms, 0.99));
    return 0;
  }

  // ---- bench mode ----
  struct Probe {
    std::string op;
    std::size_t scenario;  // index: seed = i+1, n = base_n << i
    std::string line;      // request JSON
    double rounds = 0;     // from the first (miss) response
  };
  std::vector<Probe> grid;
  for (const std::string& op : ops) {
    for (std::size_t s = 0; s < scenarios; ++s) {
      json::Writer w;
      w.begin_object();
      w.key("op");
      w.value(op);
      w.key("scenario");
      w.begin_object();
      w.key("seed");
      w.value(static_cast<std::uint64_t>(s + 1));
      w.key("n");
      w.value(static_cast<std::uint64_t>(base_n << s));
      if (op != "steady") {
        w.key("d");
        w.value(std::uint64_t{2});
      }
      w.key("k");
      w.value(std::uint64_t{2});
      w.end_object();
      w.key("machine");
      w.value(machine);
      w.end_object();
      grid.push_back(Probe{op, s, w.str(), 0});
    }
  }

  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  std::vector<double> latency_ms;
  // Simulated rounds of EVERY response (hits replay the cached cost, so
  // each of the repeats contributes): a pure function of the request grid,
  // hence byte-exact percentiles for the bench gate.
  std::vector<std::uint64_t> sim_rounds;
  std::uint64_t sent = 0;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    for (Probe& p : grid) {
      const clock::time_point a = clock::now();
      std::string response = client.round_trip(p.line);
      if (response.empty()) return connection_lost(p.line);
      latency_ms.push_back(
          std::chrono::duration<double, std::milli>(clock::now() - a)
              .count());
      ++sent;
      ResponseFacts facts;
      if (!read_response(response, &facts) || !facts.ok) {
        std::fprintf(stderr, "error: request failed: %s\n",
                     response.c_str());
        return 5;
      }
      bool expect_hit = rep > 0;
      if (facts.hit != expect_hit) {
        std::fprintf(stderr, "error: expected cache %s, got %s for: %s\n",
                     expect_hit ? "hit" : "miss",
                     facts.hit ? "hit" : "miss", p.line.c_str());
        return 5;
      }
      if (rep == 0) p.rounds = facts.rounds;
      sim_rounds.push_back(static_cast<std::uint64_t>(facts.rounds));
      if (oracle) {
        std::string why = serve::oracle_mismatch(p.line, response);
        if (!why.empty()) {
          std::fprintf(stderr, "error: oracle mismatch for: %s\n  %s\n",
                       p.line.c_str(), why.c_str());
          return 7;
        }
      }
    }
  }
  const double host_seconds =
      std::chrono::duration<double>(clock::now() - t0).count();

  serve::ServeStats st;
  {
    const std::string stats_line = client.round_trip("{\"op\":\"stats\"}");
    if (stats_line.empty()) return connection_lost("{\"op\":\"stats\"}");
    json::Value v;
    const json::Value* stats = nullptr;
    if (!json::parse(stats_line, &v) ||
        (stats = v.find("stats")) == nullptr || !stats->is_object()) {
      std::fprintf(stderr, "error: malformed stats response: %s\n",
                   stats_line.c_str());
      return 5;
    }
    auto counter = [&](const char* key) -> std::uint64_t {
      const json::Value* c = stats->find(key);
      return c != nullptr ? static_cast<std::uint64_t>(c->number) : 0;
    };
    st.connections = counter("connections");
    st.requests = counter("requests");
    st.errors = counter("errors");
    st.rejected = counter("rejected");
    st.batches = counter("batches");
    st.hits = counter("hits");
    st.misses = counter("misses");
    st.evictions = counter("evictions");
    st.entries = counter("entries");
  }

  // Full metrics registry (re-serialized canonically via json::dump so the
  // embedded object is byte-stable for the bench gate's exact compare).
  std::string metrics_dump;
  {
    const std::string metrics_line =
        client.round_trip("{\"op\":\"metrics\"}");
    if (metrics_line.empty()) return connection_lost("{\"op\":\"metrics\"}");
    json::Value v;
    const json::Value* m = nullptr;
    if (!json::parse(metrics_line, &v) || (m = v.find("metrics")) == nullptr ||
        !m->is_object()) {
      std::fprintf(stderr, "error: malformed metrics response: %s\n",
                   metrics_line.c_str());
      return 5;
    }
    metrics_dump = json::dump(*m);
  }

  std::sort(latency_ms.begin(), latency_ms.end());
  std::sort(sim_rounds.begin(), sim_rounds.end());
  const std::uint64_t sim_p50 = percentile_u64(sim_rounds, 0.50);
  const std::uint64_t sim_p99 = percentile_u64(sim_rounds, 0.99);
  const double rps =
      host_seconds > 0 ? static_cast<double>(sent) / host_seconds : 0;
  std::fprintf(stderr,
               "dyncg_load: %llu requests in %.3fs (%.0f req/s, p50 %.2fms, "
               "p99 %.2fms, sim rounds p50 %llu / p99 %llu), "
               "server: %llu hits / %llu misses\n",
               static_cast<unsigned long long>(sent), host_seconds, rps,
               percentile(latency_ms, 0.50), percentile(latency_ms, 0.99),
               static_cast<unsigned long long>(sim_p50),
               static_cast<unsigned long long>(sim_p99),
               static_cast<unsigned long long>(st.hits),
               static_cast<unsigned long long>(st.misses));

  if (json_out.empty()) return 0;

  // BENCH_serve.json: schema v2 (docs/OBSERVABILITY.md) + `serve` section
  // (docs/SERVING.md#bench).  `tables` holds only deterministic figures —
  // simulated rounds and exact cache counters — so dyncg_bench_diff can
  // gate them; rps/latency live in `serve`, which the gate ignores.
  json::Writer w;
  w.begin_object();
  w.key("schema_version");
  w.value(std::int64_t{2});
  w.key("kind");
  w.value("dyncg-bench");
  w.key("name");
  w.value("serve");
  w.key("git_rev");
  w.value(git_revision());
  w.key("config");
  w.begin_object();
  w.key("threads");
  w.value(std::uint64_t{host_threads()});
  w.end_object();
  w.key("faults");
  w.begin_object();
  w.key("spec");
  w.value("");  // bench-mode requests carry no fault plans
  for (const char* key : {"link_down_hits", "pe_down_hits", "words_dropped",
                          "retries", "detour_rounds", "remaps"}) {
    w.key(key);
    w.value(std::uint64_t{0});
  }
  w.end_object();
  w.key("host_seconds");
  w.value(host_seconds);
  w.key("serve");
  w.begin_object();
  w.key("requests");
  w.value(sent);
  w.key("rps");
  w.value(rps);
  w.key("p50_ms");
  w.value(percentile(latency_ms, 0.50));
  w.key("p99_ms");
  w.value(percentile(latency_ms, 0.99));
  w.key("hits");
  w.value(st.hits);
  w.key("misses");
  w.value(st.misses);
  w.key("evictions");
  w.value(st.evictions);
  w.key("batches");
  w.value(st.batches);
  // Exact simulated-cost percentiles over every response's rounds figure;
  // deterministic, so dyncg_bench_diff compares them byte-for-byte.
  w.key("sim_rounds_p50");
  w.value(sim_p50);
  w.key("sim_rounds_p99");
  w.value(sim_p99);
  w.end_object();
  // The server's full metrics registry at end of run; its
  // stability=deterministic entries join the gate's exact compare.
  w.key("metrics");
  w.value_raw(metrics_dump);
  w.key("tables");
  w.begin_array();
  w.begin_object();
  w.key("title");
  w.value("serve: query mix on " + machine);
  w.key("rows");
  w.begin_array();
  for (const std::string& op : ops) {
    w.begin_object();
    w.key("problem");
    w.value(op + " @ " + machine);
    w.key("claim");
    w.value("docs/SERVING.md");
    // Slope of simulated rounds over the n sweep (matches the bench
    // harness's loglog fit; 0 when the sweep has a single point).
    std::vector<double> xs;
    std::vector<double> ys;
    for (const Probe& p : grid) {
      if (p.op == op) {
        xs.push_back(static_cast<double>(base_n << p.scenario));
        ys.push_back(p.rounds > 0 ? p.rounds : 1);
      }
    }
    double slope = 0;
    if (xs.size() >= 2) {
      double sx = 0, sy = 0, sxx = 0, sxy = 0;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        double lx = std::log(xs[i]);
        double ly = std::log(ys[i]);
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
      }
      double n = static_cast<double>(xs.size());
      slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    }
    w.key("slope");
    w.value(slope);
    w.key("points");
    w.begin_array();
    for (const Probe& p : grid) {
      if (p.op != op) continue;
      w.begin_object();
      w.key("n");
      w.value(static_cast<double>(base_n << p.scenario));
      w.key("rounds");
      w.value(p.rounds);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  // Exact cache-counter rows: deterministic because the request stream is a
  // single ordered connection and the cache protocol is sequential.
  w.begin_object();
  w.key("title");
  w.value("serve: cache counters");
  w.key("rows");
  w.begin_array();
  struct CounterRow {
    const char* problem;
    std::uint64_t value;
  };
  const CounterRow rows[] = {
      {"cache hits", st.hits},
      {"cache misses", st.misses},
      {"cache evictions", st.evictions},
  };
  for (const CounterRow& row : rows) {
    w.begin_object();
    w.key("problem");
    w.value(row.problem);
    w.key("claim");
    w.value("exact (FIFO cache, ordered stream)");
    w.key("slope");
    w.value(0.0);
    w.key("points");
    w.begin_array();
    w.begin_object();
    w.key("n");
    w.value(static_cast<double>(sent));
    w.key("rounds");
    w.value(static_cast<double>(row.value));
    w.end_object();
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_array();
  w.end_object();

  if (std::FILE* f = std::fopen(json_out.c_str(), "w")) {
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
    return 1;
  }
  return 0;
}
