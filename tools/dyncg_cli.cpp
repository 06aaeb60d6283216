// dyncg_cli — command-line driver for the library.
//
//   dyncg_cli <command> [options]
//
// Commands:
//   neighbor    Theorem 4.1: nearest/farthest sequence for a query point
//   pairs       Section 6 ext.: closest/farthest pair sequence
//   collisions  Theorem 4.2: collision times for a query point
//   hullwhen    Theorem 4.5: when is the query a hull vertex
//   contain     Theorem 4.6/4.8: containment intervals / smallest cube
//   steady      Section 5: steady-state survey (of its own diverging
//               motion: --file and --d exit 3, as the server refuses them)
//   envelope    Theorem 3.2: min function of random polynomials
//   topo        print a topology's pattern costs
//
// Common options:
//   --n <int>         number of points/functions        (default 8)
//   --k <int>         motion degree                     (default 2)
//   --d <int>         space dimension                   (default 2)
//   --seed <int>      workload seed                     (default 1)
//   --machine <mesh|hypercube|ccc|shuffle>              (default mesh)
//   --query <int>     query point index                 (default 0)
//   --farthest        use the farthest variant
//   --adaptive        adaptive (submesh) envelope
//   --box <w,h,...>   rectangle dimensions for `contain`
//   --file <path>     load the system from a dyncg-motion file
//   --faults <spec>   inject a deterministic fault plan (grammar in
//                     docs/ROBUSTNESS.md, e.g. "link:0-1@0..,drop:2-3@4").
//                     Overrides the DYNCG_FAULTS env var.  The geometric
//                     output is unchanged; the ledger pays the honest
//                     recovery price.
//   --fault-report    print the fault counters after the run
//   --threads <int>   host threads for the simulator (0 = all hardware
//                     threads; overrides DYNCG_THREADS; default 1).  Never
//                     changes the reported rounds/messages/local_ops — see
//                     docs/PARALLELISM.md.
//   --trace-out <file>  record a span trace of the run and write it to
//                     <file> on exit: Chrome trace_event JSON (load in
//                     chrome://tracing or ui.perfetto.dev), or a flat JSONL
//                     metrics stream when <file> ends in ".jsonl".  Also
//                     accepts --trace-out=<file>.  The DYNCG_TRACE env var
//                     does the same without a flag (docs/OBSERVABILITY.md).
//
// Exit codes (docs/ROBUSTNESS.md): 0 success; 1 I/O error; 2 usage error
// (unknown flags, malformed values); 3 invalid argument; 4 failed
// precondition (machine too small for the workload); 5 parse error
// (malformed motion file or fault spec); 6 unsupported input; 7
// unrecoverable fault.  Library input validation is surfaced as returned
// Status errors, never aborts.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "dyncg/motion_io.hpp"
#include "envelope/parallel_envelope.hpp"
#include "machine/faults.hpp"
#include "serve/engine.hpp"
#include "support/fatal.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace {

using namespace dyncg;

struct Options {
  std::string command;
  std::size_t n = 8;
  int k = 2;
  std::size_t d = 2;
  bool has_d = false;  // --d given
  std::uint64_t seed = 1;
  std::string machine = "mesh";
  std::size_t query = 0;
  bool farthest = false;
  bool adaptive = false;
  std::vector<double> box;
  std::string file;  // load the system from a dyncg-motion file instead
  std::string faults;       // --faults spec (overrides DYNCG_FAULTS)
  bool fault_report = false;
  std::string trace_out;  // write a span trace here on exit
};

// Fault plan attached to every machine the commands build (set from
// --faults; the DYNCG_FAULTS plan is picked up by the Machine constructor
// on its own), and whether to print the counters afterwards.
const FaultPlan* g_cli_faults = nullptr;
bool g_fault_report = false;
// --trace-out path, visible to the fatal-flush hook.
std::string g_trace_out;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <neighbor|pairs|collisions|hullwhen|contain|steady|"
               "envelope|topo> [--n N] [--k K] [--d D] [--seed S] "
               "[--machine mesh|hypercube|ccc|shuffle] [--query Q] "
               "[--farthest] [--adaptive] [--box w,h,...] [--file PATH] "
               "[--threads T] [--faults SPEC] "
               "[--fault-report] [--trace-out FILE]\n",
               argv0);
  std::exit(2);
}

[[noreturn]] void flag_error(const char* argv0, const std::string& flag,
                             const std::string& what,
                             const std::string& got) {
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag.c_str(),
               what.c_str(), got.c_str());
  usage(argv0);
}

// Strict numeric parsing: the whole token must be a number in range.  A
// typo like `--n 1O24` or `--k ""` is a hard error, never a silent zero.
long parse_long(const char* argv0, const std::string& flag, const char* tok,
                long min_value, long max_value) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(tok, &end, 10);
  if (end == tok || *end != '\0' || errno == ERANGE || v < min_value ||
      v > max_value) {
    flag_error(argv0, flag, "an integer in [" + std::to_string(min_value) +
                                ", " + std::to_string(max_value) + "]",
               tok);
  }
  return v;
}

double parse_double(const char* argv0, const std::string& flag,
                    const std::string& tok) {
  char* end = nullptr;
  double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    flag_error(argv0, flag, "a number", tok);
  }
  return v;
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Options o;
  o.command = argv[1];
  constexpr long kMaxSize = 1L << 40;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    // --flag=value is accepted everywhere a value flag is.
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
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (a == "--n") {
      o.n = static_cast<std::size_t>(
          parse_long(argv[0], a, next().c_str(), 1, kMaxSize));
    } else if (a == "--k") {
      o.k = static_cast<int>(parse_long(argv[0], a, next().c_str(), 0, 64));
    } else if (a == "--d") {
      o.d = static_cast<std::size_t>(
          parse_long(argv[0], a, next().c_str(), 1, 64));
      o.has_d = true;
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(
          parse_long(argv[0], a, next().c_str(), 0, kMaxSize));
    } else if (a == "--machine") {
      o.machine = next();
      if (o.machine != "mesh" && o.machine != "hypercube" &&
          o.machine != "ccc" && o.machine != "shuffle") {
        flag_error(argv[0], a, "mesh|hypercube|ccc|shuffle", o.machine);
      }
    } else if (a == "--query") {
      o.query = static_cast<std::size_t>(
          parse_long(argv[0], a, next().c_str(), 0, kMaxSize));
    } else if (a == "--farthest") {
      o.farthest = true;
    } else if (a == "--adaptive") {
      o.adaptive = true;
    } else if (a == "--file") {
      o.file = next();
      if (o.file.empty()) flag_error(argv[0], a, "a path", "");
    } else if (a == "--faults") {
      o.faults = next();
      if (o.faults.empty()) flag_error(argv[0], a, "a fault spec", "");
    } else if (a == "--fault-report") {
      o.fault_report = true;
    } else if (a == "--trace-out") {
      o.trace_out = next();
      if (o.trace_out.empty()) flag_error(argv[0], a, "a path", "");
    } else if (a == "--threads") {
      std::string t = next();
      long v = parse_long(argv[0], a, t.c_str(), 0, 1024);
      set_host_threads(static_cast<unsigned>(v));
    } else if (a == "--box") {
      std::string spec = next();
      if (spec.empty()) flag_error(argv[0], a, "w,h,...", "");
      std::size_t pos = 0;
      while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        std::size_t len =
            (comma == std::string::npos ? spec.size() : comma) - pos;
        o.box.push_back(
            parse_double(argv[0], a, spec.substr(pos, len)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      usage(argv[0]);
    }
  }
  return o;
}

// Print a library Status error and return its process exit code.
int fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
  return st.exit_code();
}

void report_cost(const Machine& m, const CostSnapshot& cost) {
  std::printf("[%s, %zu PEs] %s\n", m.topology().name().c_str(), m.size(),
              cost.to_string().c_str());
  if (g_fault_report) std::fputs(m.fault_report().c_str(), stdout);
}

StatusOr<MotionSystem> make_system(const Options& o) {
  if (!o.file.empty()) return try_load_motion_system(o.file);
  Rng rng(o.seed);
  return random_motion_system(rng, o.n, o.d, o.k);
}

// The six query commands answer through the serving engine, so CLI stdout
// and served results are the same text (serve/engine.hpp).
int cmd_query(const Options& o, serve::Op op) {
  serve::Request req;
  req.op = op;
  req.machine = o.machine;
  req.query = o.query;
  req.farthest = o.farthest;
  if (op == serve::Op::kSteady) {
    // The survey builds its own diverging motion: a motion file or a
    // dimension is refused, as the server refuses them.
    if (!o.file.empty() || o.has_d) {
      return fail(Status::invalid_argument(serve::kSteadyGeneratorOnly));
    }
    Rng rng(o.seed);
    req.system = diverging_motion_system(rng, o.n, std::max(1, o.k));
  } else {
    StatusOr<MotionSystem> sys = make_system(o);
    if (!sys.is_ok()) return fail(sys.status());
    req.system = std::move(sys).value();
  }
  if (op == serve::Op::kContain && !o.box.empty()) {
    req.has_box = true;
    req.box = serve::fit_box(o.box, req.system->dimension());
  }
  if (g_cli_faults != nullptr) {
    req.has_faults = true;
    req.faults = *g_cli_faults;
  }
  StatusOr<Machine> m = serve::query_machine(req);
  if (!m.is_ok()) return fail(m.status());
  CostMeter meter(m.value().ledger());
  StatusOr<std::string> text = serve::answer_query(m.value(), req);
  if (!text.is_ok()) return fail(text.status());
  std::fputs(text.value().c_str(), stdout);
  report_cost(m.value(), meter.elapsed());
  return 0;
}

int cmd_envelope(const Options& o) {
  Rng rng(o.seed);
  std::vector<Polynomial> fns;
  for (std::size_t i = 0; i < o.n; ++i) {
    std::vector<double> c(static_cast<std::size_t>(o.k) + 1);
    for (double& x : c) x = rng.uniform(-2, 2);
    fns.push_back(Polynomial(c));
  }
  PolyFamily fam(std::move(fns));
  const std::size_t pes = lambda_upper_bound(ceil_pow2(o.n), o.k);
  if (Status st = serve::check_machine_size("envelope", o.machine, pes);
      !st.is_ok()) {
    return fail(st);
  }
  Machine m = serve::make_machine(o.machine, pes);
  if (g_cli_faults != nullptr) m.set_fault_plan(g_cli_faults);
  m.record_unrecoverable_faults();
  CostMeter meter(m.ledger());
  StatusOr<PiecewiseFn> env =
      try_parallel_envelope(m, fam, std::max(1, o.k),
                            /*take_min=*/!o.farthest, nullptr, o.adaptive);
  // As in serve::answer_query: the run would have aborted at the recorded
  // event, so it outranks whatever the envelope returned.
  if (!m.fault_status().is_ok()) return fail(m.fault_status());
  if (!env.is_ok()) return fail(env.status());
  std::printf("%s envelope, %zu pieces:\n  %s\n",
              o.farthest ? "upper" : "lower", env.value().piece_count(),
              env.value().to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_topo(const Options& o) {
  if (Status st = serve::check_machine_size("topo", o.machine, o.n);
      !st.is_ok()) {
    return fail(st);
  }
  Machine m = serve::make_machine(o.machine, o.n);
  const Topology& t = m.topology();
  std::printf("%s: %zu PEs, diameter %zu, unit shift %u rounds\n",
              t.name().c_str(), t.size(), t.diameter(), t.shift_rounds());
  std::printf("offset-exchange rounds:");
  for (int k = 0; (std::size_t{2} << k) <= t.size(); ++k) {
    std::printf(" k=%d:%u", k, t.exchange_rounds(static_cast<unsigned>(k)));
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int run_command(const Options& o, const char* argv0) {
  for (serve::Op op : serve::kAllOps) {
    if (serve::is_admin_op(op) || serve::is_fleet_op(op)) continue;
    if (o.command == serve::op_name(op)) return cmd_query(o, op);
  }
  if (o.command == "envelope") return cmd_envelope(o);
  if (o.command == "topo") return cmd_topo(o);
  std::fprintf(stderr, "error: unknown command '%s'\n", o.command.c_str());
  usage(argv0);
}

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  static FaultPlan cli_plan;  // static: outlives every Machine in the cmds
  if (!o.faults.empty()) {
    StatusOr<FaultPlan> parsed = FaultPlan::parse(o.faults);
    if (!parsed.is_ok()) return fail(parsed.status());
    cli_plan = std::move(parsed).value();
    g_cli_faults = &cli_plan;
  }
  g_fault_report = o.fault_report;
  if (!o.trace_out.empty()) {
    trace::enable();
    // Also flush the trace if the run dies on a DYNCG_ASSERT.
    g_trace_out = o.trace_out;
    fatal::register_flush([] {
      if (!g_trace_out.empty()) trace::write(g_trace_out);
    });
  }
  int rc = run_command(o, argv[0]);
  if (!o.trace_out.empty()) {
    if (!trace::write(o.trace_out)) {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   o.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", trace::event_count(),
                 o.trace_out.c_str());
  }
  return rc;
}
