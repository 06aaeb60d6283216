// dyncg_serve — envelope-as-a-service: a long-lived daemon answering motion
// scenarios and geometric queries over a line-delimited JSON protocol on
// 127.0.0.1 (src/serve/, wire reference in docs/SERVING.md).
//
//   dyncg_serve [--port N] [--port-file PATH] [--queue-cap N]
//               [--batch-cap N] [--cache-cap N] [--max-line BYTES]
//               [--max-conns N] [--deadline-ms MS] [--drain-ms MS]
//               [--stall-timeout-ms MS] [--max-out-buf BYTES]
//               [--max-fleets N] [--max-fleet-members N]
//               [--threads T] [--trace-out FILE]
//               [--metrics-out FILE] [--metrics-interval SECONDS]
//               [--list-ops]
//
// Options:
//   --port N          TCP port; 0 (default) picks an ephemeral port
//   --port-file PATH  write the resolved port here once listening — how
//                     scripts find an ephemerally-bound server
//   --queue-cap N     pending-request limit; at the cap the *oldest*
//                     queued line is shed (answered UNAVAILABLE without
//                     being parsed) to admit the new one     (default 1024)
//   --batch-cap N     max requests processed per batch       (default 64)
//   --cache-cap N     result-cache entries, 0 disables       (default 4096)
//   --max-line BYTES  longest accepted request line          (default 1MiB)
//   --max-conns N     concurrent connections                 (default 64)
//   --deadline-ms MS  default per-request deadline budget, measured from
//                     the line's arrival; a request's own "deadline_ms"
//                     overrides it; expired work is answered
//                     DEADLINE_EXCEEDED without running the engine;
//                     0 disables                             (default 0)
//   --drain-ms MS     graceful-drain budget after SIGTERM: queued work
//                     that cannot finish in time is shed     (default 5000)
//   --stall-timeout-ms MS
//                     close connections with no read/write progress for
//                     this long; 0 disables                  (default 60000)
//   --max-out-buf BYTES
//                     per-connection cap on buffered response bytes;
//                     a reader that stops reading past the cap is
//                     disconnected                           (default 4MiB)
//   --max-fleets N    concurrently open fleet sessions; opening past the
//                     cap is answered UNAVAILABLE            (default 16)
//   --max-fleet-members N
//                     members per fleet session; the session's merge tree
//                     and simulated machine are sized from this at open,
//                     so it bounds per-session memory        (default 1024)
//   --threads T       accepted and range-checked (0..1024), but has no
//                     effect: every cache miss computes on the loop thread
//                     with its nested loops serial (docs/PARALLELISM.md)
//   --trace-out FILE  record serve.batch/serve.query spans; written at
//                     shutdown (Chrome trace or .jsonl) and on demand via
//                     the flush_trace op or SIGUSR1 (write-and-clear)
//   --metrics-out FILE
//                     expose the live metrics registry here, rewritten
//                     periodically while serving: ".json" = registry JSON,
//                     anything else Prometheus text (docs/OBSERVABILITY.md)
//   --metrics-interval SECONDS
//                     rewrite cadence for --metrics-out     (default 5)
//   --list-ops        print every protocol op name, one per line, and exit
//                     (tools/dyncg_doc_check.sh scrapes this)
//
// SIGTERM starts a graceful drain (docs/SERVING.md#draining): stop
// accepting, answer new lines UNAVAILABLE with "draining":true, finish or
// shed queued work within --drain-ms, flush artifacts, exit 0.  SIGINT
// stops immediately (flush what can be flushed without blocking, exit 0).
// SIGUSR1 write-and-clears the trace file without stopping.  Exit
// 1 = socket/trace I/O error, 2 = usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "serve/server.hpp"
#include "support/build_info.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace {

using namespace dyncg;

serve::Server* g_server = nullptr;

void on_term(int) {
  if (g_server != nullptr) g_server->request_drain();
}

void on_int(int) {
  if (g_server != nullptr) g_server->request_stop();
}

void on_flush_signal(int) {
  if (g_server != nullptr) g_server->request_trace_flush();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dyncg_serve [--port N] [--port-file PATH] "
               "[--queue-cap N] [--batch-cap N] [--cache-cap N] "
               "[--max-line BYTES] [--max-conns N] [--deadline-ms MS] "
               "[--drain-ms MS] [--stall-timeout-ms MS] "
               "[--max-out-buf BYTES] [--max-fleets N] "
               "[--max-fleet-members N] [--threads T (no effect)] "
               "[--trace-out FILE] [--metrics-out FILE] "
               "[--metrics-interval SECONDS] [--list-ops]\n");
  std::exit(2);
}

long parse_long(const std::string& flag, const char* tok, long min_value,
                long max_value) {
  char* end = nullptr;
  long v = std::strtol(tok, &end, 10);
  if (end == tok || *end != '\0' || v < min_value || v > max_value) {
    std::fprintf(stderr, "error: %s expects an integer in [%ld, %ld], got '%s'\n",
                 flag.c_str(), min_value, max_value, tok);
    usage();
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opt;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--list-ops") {
      for (serve::Op op : serve::kAllOps) std::printf("%s\n", op_name(op));
      return 0;
    }
  }
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
      opt.port = static_cast<int>(parse_long(a, next().c_str(), 0, 65535));
    } else if (a == "--port-file") {
      opt.port_file = next();
      if (opt.port_file.empty()) usage();
    } else if (a == "--queue-cap") {
      opt.queue_cap = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 1, 1 << 20));
    } else if (a == "--batch-cap") {
      opt.batch_cap = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 1, 1 << 20));
    } else if (a == "--cache-cap") {
      opt.cache_cap = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 0, 1 << 24));
    } else if (a == "--max-line") {
      opt.max_line = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 64, 1 << 28));
    } else if (a == "--max-conns") {
      opt.max_conns = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 1, 4096));
    } else if (a == "--deadline-ms") {
      opt.deadline_ms = static_cast<std::uint64_t>(
          parse_long(a, next().c_str(), 0, 3600000));
    } else if (a == "--drain-ms") {
      opt.drain_ms = static_cast<std::uint64_t>(
          parse_long(a, next().c_str(), 0, 3600000));
    } else if (a == "--stall-timeout-ms") {
      opt.stall_timeout_ms = static_cast<std::uint64_t>(
          parse_long(a, next().c_str(), 0, 86400000));
    } else if (a == "--max-out-buf") {
      opt.max_out_buf = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 1024, 1 << 30));
    } else if (a == "--max-fleets") {
      opt.max_fleets = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 0, 1 << 16));
    } else if (a == "--max-fleet-members") {
      opt.max_fleet_members = static_cast<std::size_t>(
          parse_long(a, next().c_str(), 1, 1 << 20));
    } else if (a == "--threads") {
      set_host_threads(
          static_cast<unsigned>(parse_long(a, next().c_str(), 0, 1024)));
    } else if (a == "--trace-out") {
      trace_out = next();
      if (trace_out.empty()) usage();
    } else if (a == "--metrics-out") {
      opt.metrics_out = next();
      if (opt.metrics_out.empty()) usage();
    } else if (a == "--metrics-interval") {
      opt.metrics_interval_s =
          static_cast<unsigned>(parse_long(a, next().c_str(), 0, 86400));
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      usage();
    }
  }

  if (!trace_out.empty()) trace::enable();
  opt.trace_out = trace_out;
  opt.git_rev = git_revision;  // resolved on the first `stats` request
  metrics::enable();  // the serving path is always observable

  serve::Server server(opt);
  g_server = &server;
  std::signal(SIGTERM, on_term);  // graceful drain
  std::signal(SIGINT, on_int);    // immediate stop
  std::signal(SIGUSR1, on_flush_signal);
  std::signal(SIGPIPE, SIG_IGN);  // peer hangups surface as write errors

  Status st = server.run();
  if (!st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return st.exit_code();
  }
  serve::ServeStats s = server.stats();
  std::fprintf(stderr,
               "dyncg_serve: shutdown after %llu requests "
               "(%llu hits, %llu misses, %llu evictions, %llu rejected, "
               "%llu shed, %llu deadline_exceeded, %llu errors, "
               "%llu batches, %llu connections)\n",
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses),
               static_cast<unsigned long long>(s.evictions),
               static_cast<unsigned long long>(s.rejected),
               static_cast<unsigned long long>(s.shed),
               static_cast<unsigned long long>(s.deadline_exceeded),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.batches),
               static_cast<unsigned long long>(s.connections));
  if (!trace_out.empty()) {
    if (!trace::write(trace_out)) {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", trace::event_count(),
                 trace_out.c_str());
  }
  return 0;
}
