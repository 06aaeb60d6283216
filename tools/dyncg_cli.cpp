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
//   steady      Section 5: steady-state survey
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
#include <cstring>
#include <string>

#include "dyncg/allpairs.hpp"
#include "dyncg/collision.hpp"
#include "dyncg/motion_io.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/proximity.hpp"
#include "envelope/parallel_envelope.hpp"
#include "machine/faults.hpp"
#include "machine/other_topologies.hpp"
#include "pieces/envelope_serial.hpp"
#include "steady/machine_geometry.hpp"
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
// --faults), and whether to print the counters afterwards.
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

Machine make_machine(const Options& o, std::size_t capacity) {
  if (o.machine == "mesh") return Machine(make_mesh_for(capacity));
  if (o.machine == "hypercube") return Machine(make_hypercube_for(capacity));
  if (o.machine == "ccc") return Machine(make_ccc_for(capacity));
  if (o.machine == "shuffle") {
    return Machine(make_shuffle_exchange_for(capacity));
  }
  std::fprintf(stderr, "unknown machine '%s'\n", o.machine.c_str());
  std::exit(2);
}

// Attach the --faults plan (the DYNCG_FAULTS env plan is picked up by the
// Machine constructor on its own).
void arm(Machine& m) {
  if (g_cli_faults != nullptr) m.set_fault_plan(g_cli_faults);
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

int cmd_neighbor(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  int s = std::max(1, 2 * sys.value().motion_degree());
  Machine m =
      make_machine(o, lambda_upper_bound(ceil_pow2(sys.value().size()), s));
  arm(m);
  CostMeter meter(m.ledger());
  StatusOr<NeighborSequence> seq =
      try_neighbor_sequence(m, sys.value(), o.query, o.farthest);
  if (!seq.is_ok()) return fail(seq.status());
  std::printf("%s\n", seq.value().to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_pairs(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = o.machine == "mesh" ? allpairs_machine_mesh(sys.value())
                                  : allpairs_machine_hypercube(sys.value());
  arm(m);
  CostMeter meter(m.ledger());
  PairSequence seq = closest_pair_sequence(m, sys.value(), o.farthest);
  std::printf("%s\n", seq.to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_collisions(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = make_machine(o, sys.value().size());
  arm(m);
  CostMeter meter(m.ledger());
  StatusOr<CollisionReport> rep = try_collision_times(m, sys.value(), o.query);
  if (!rep.is_ok()) return fail(rep.status());
  if (rep.value().events.empty()) {
    std::printf("no collisions for P%zu\n", o.query);
  }
  for (const CollisionEvent& e : rep.value().events) {
    std::printf("t = %10.4f  P%zu <-> P%zu\n", e.time, o.query, e.other);
  }
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_hullwhen(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = o.machine == "mesh"
                  ? hull_membership_machine_mesh(sys.value())
                  : hull_membership_machine_hypercube(sys.value());
  arm(m);
  CostMeter meter(m.ledger());
  StatusOr<IntervalSet> hit =
      try_hull_membership_intervals(m, sys.value(), o.query);
  if (!hit.is_ok()) return fail(hit.status());
  std::printf("P%zu is a hull vertex during %s\n", o.query,
              hit.value().to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_contain(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = o.machine == "mesh"
                  ? containment_machine_mesh(sys.value())
                  : containment_machine_hypercube(sys.value());
  arm(m);
  CostMeter meter(m.ledger());
  if (!o.box.empty()) {
    std::vector<double> dims = o.box;
    dims.resize(sys.value().dimension(), o.box.back());
    StatusOr<IntervalSet> J = try_containment_intervals(m, sys.value(), dims);
    if (!J.is_ok()) return fail(J.status());
    std::printf("fits the box during %s\n", J.value().to_string().c_str());
  } else {
    SmallestCube cube = smallest_enclosing_cube(m, sys.value());
    std::printf("smallest enclosing cube: edge %.4f at t = %.4f\n", cube.edge,
                cube.time);
  }
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_steady(const Options& o) {
  Rng rng(o.seed);
  MotionSystem sys = diverging_motion_system(rng, o.n, std::max(1, o.k));
  Machine m = make_machine(o, o.n);
  arm(m);
  CostMeter meter(m.ledger());
  std::printf("steady NN of P%zu: P%zu\n", o.query,
              machine_steady_neighbor(m, sys, o.query, o.farthest));
  auto hull = machine_steady_hull_ids(m, sys);
  std::printf("steady hull: ");
  for (std::size_t id : hull) std::printf("P%zu ", id);
  std::printf("\n");
  auto far = machine_steady_farthest_pair(m, sys);
  std::printf("steady farthest pair: (P%zu, P%zu)\n", far.a, far.b);
  report_cost(m, meter.elapsed());
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
  Machine m = make_machine(o, lambda_upper_bound(ceil_pow2(o.n), o.k));
  arm(m);
  CostMeter meter(m.ledger());
  StatusOr<PiecewiseFn> env =
      try_parallel_envelope(m, fam, std::max(1, o.k),
                            /*take_min=*/!o.farthest, nullptr, o.adaptive);
  if (!env.is_ok()) return fail(env.status());
  std::printf("%s envelope, %zu pieces:\n  %s\n",
              o.farthest ? "upper" : "lower", env.value().piece_count(),
              env.value().to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_topo(const Options& o) {
  Machine m = make_machine(o, o.n);
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
  if (o.command == "neighbor") return cmd_neighbor(o);
  if (o.command == "pairs") return cmd_pairs(o);
  if (o.command == "collisions") return cmd_collisions(o);
  if (o.command == "hullwhen") return cmd_hullwhen(o);
  if (o.command == "contain") return cmd_contain(o);
  if (o.command == "steady") return cmd_steady(o);
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
