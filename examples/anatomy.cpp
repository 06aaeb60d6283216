// Anatomy of a Theorem 4.5 run: where do the rounds go?
//
// Traces one hull-membership computation per machine, a mesh and a
// hypercube, and prints the per-span totals (trace::totals): the four
// Theorem 3.4 partial envelopes (envelope.parallel, one envelope.level per
// merge level), the Table 1 operations underneath (ops.*), and the driver's
// own indicator-and-pack work (the dyncg.hull_membership self line).  Self
// costs partition the ledger, so the example fails unless they sum to it
// exactly.
//
//   $ ./anatomy [n]
#include <cstdio>
#include <cstdlib>

#include "dyncg/hull_membership.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

int main(int argc, char** argv) {
  using namespace dyncg;
  std::size_t n = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 64;

  Rng rng(2026);
  MotionSystem sys = random_motion_system(rng, n, 2, 2);
  trace::enable();

  for (int which = 0; which < 2; ++which) {
    Machine m = which == 0 ? hull_membership_machine_mesh(sys)
                           : hull_membership_machine_hypercube(sys);
    std::printf("=== %s (%zu PEs, n = %zu, k = %d) ===\n",
                m.topology().name().c_str(), m.size(), n, sys.motion_degree());
    trace::clear();
    IntervalSet result = hull_membership_intervals(m, sys, 0);
    const CostSnapshot ledger = m.ledger().snapshot();

    std::printf("  %-26s %5s %11s %6s %12s %10s %11s %9s\n", "span", "calls",
                "self rounds", "share", "self msgs", "self local",
                "incl rounds", "self ms");
    CostSnapshot self;
    for (const trace::Total& t : trace::totals(trace::snapshot())) {
      self += t.self_cost;
      double share = ledger.rounds == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(t.self_cost.rounds) /
                               static_cast<double>(ledger.rounds);
      std::printf("  %-26s %5llu %11llu %5.1f%% %12llu %10llu %11llu %9.2f\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.calls),
                  static_cast<unsigned long long>(t.self_cost.rounds), share,
                  static_cast<unsigned long long>(t.self_cost.messages),
                  static_cast<unsigned long long>(t.self_cost.local_ops),
                  static_cast<unsigned long long>(t.inclusive_cost.rounds),
                  static_cast<double>(t.self_ns) / 1e6);
    }
    std::printf("  ledger: %s\n", ledger.to_string().c_str());
    if (self != ledger) {
      std::fprintf(stderr, "anatomy: self costs sum to %s, not the ledger\n",
                   self.to_string().c_str());
      return 1;
    }
    std::printf("P0 is a hull vertex during %s\n\n", result.to_string().c_str());
  }
  return 0;
}
