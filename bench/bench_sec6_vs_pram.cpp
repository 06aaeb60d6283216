// Section 6 — native algorithms vs direct PRAM simulation.
//
// The paper's closing comparison: simulating the O(log n) CREW PRAM
// envelope algorithm of [Chandran and Mount 1989] costs
//   mesh:      Theta(n^(1/2) log n)   vs native Theta(lambda^(1/2)(n, k))
//   hypercube: Theta(log^3 n)         vs native Theta(log^2 n)
// because every PRAM step pays one emulated concurrent-read/write round.
// This bench measures all four curves (plus our measured O(log^2 n) PRAM
// implementation as a pessimistic-PRAM variant) and reports who wins and by
// what factor — the "shape" reproduction of Section 6.
#include "common.hpp"
#include "envelope/parallel_envelope.hpp"
#include "pram/pram.hpp"
#include "pram/pram_envelope.hpp"

namespace dyncg {
namespace bench {
namespace {

void print_comparison() {
  std::printf("=== Section 6: native envelope vs direct PRAM simulation "
              "===\n");
  std::printf(
      "%8s | %12s %14s %14s | %12s %14s %14s\n", "n", "mesh native",
      "mesh sim(CM)", "mesh sim(ours)", "cube native", "cube sim(CM)",
      "cube sim(ours)");
  std::vector<double> ns, mesh_native, mesh_sim, cube_native, cube_sim;
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    PolyFamily fam = random_poly_family(n, n, 1);

    Machine mesh = envelope_machine_mesh(n, 1);
    CostMeter m1(mesh.ledger());
    parallel_envelope(mesh, fam, 1);
    std::uint64_t native_mesh = m1.elapsed().rounds;

    Machine cube = envelope_machine_hypercube(n, 1);
    CostMeter m2(cube.ledger());
    parallel_envelope(cube, fam, 1);
    std::uint64_t native_cube = m2.elapsed().rounds;

    // Direct simulation: PRAM steps x emulated CRCW cost on each host.
    std::uint64_t cm = chandran_mount_steps(n);
    std::uint64_t ours = pram_envelope(fam).steps;
    Machine mesh_host = envelope_machine_mesh(n, 1);
    std::uint64_t mesh_step = crcw_step_rounds(mesh_host);
    Machine cube_host = envelope_machine_hypercube(n, 1);
    std::uint64_t cube_step = crcw_step_rounds(cube_host);

    std::printf("%8zu | %12llu %14llu %14llu | %12llu %14llu %14llu\n", n,
                static_cast<unsigned long long>(native_mesh),
                static_cast<unsigned long long>(cm * mesh_step),
                static_cast<unsigned long long>(ours * mesh_step),
                static_cast<unsigned long long>(native_cube),
                static_cast<unsigned long long>(cm * cube_step),
                static_cast<unsigned long long>(ours * cube_step));
    ns.push_back(static_cast<double>(n));
    mesh_native.push_back(static_cast<double>(native_mesh));
    mesh_sim.push_back(static_cast<double>(cm * mesh_step));
    cube_native.push_back(static_cast<double>(native_cube));
    cube_sim.push_back(static_cast<double>(cm * cube_step));
  }
  // Recorded rows: the paper's closing comparison as four pinned curves
  // (tools/dyncg_bench_diff fails on any model-cost drift here).
  print_table("Section 6 native vs PRAM simulation",
              {Row{"envelope, mesh native", ns, mesh_native,
                   "Theta(lambda^1/2(n,k))"},
               Row{"envelope, mesh PRAM-sim", ns, mesh_sim,
                   "Theta(n^1/2 log n)"},
               Row{"envelope, hypercube native", ns, cube_native,
                   "Theta(log^2 n)"},
               Row{"envelope, hypercube PRAM-sim", ns, cube_sim,
                   "Theta(log^3 n)"}});
  std::printf("\nwho wins at the largest n:\n");
  std::printf("  mesh:      native is %.1fx cheaper than simulating the "
              "idealized CM PRAM\n",
              mesh_sim.back() / mesh_native.back());
  std::printf("  hypercube: native is %.1fx cheaper\n",
              cube_sim.back() / cube_native.back());
  std::printf("growth exponents (log-log slope): mesh native %.2f vs sim "
              "%.2f; cube native %.2f vs sim %.2f\n",
              loglog_slope(ns, mesh_native), loglog_slope(ns, mesh_sim),
              loglog_slope(ns, cube_native), loglog_slope(ns, cube_sim));

  // Serial baseline, for the speedup narrative.
  std::printf("\nserial [Atallah 1985]-style baseline piece operations:\n");
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    PolyFamily fam = random_poly_family(n, n, 1);
    PramEnvelopeResult res = pram_envelope(fam);
    std::printf("  n = %5zu: %8llu piece ops, %zu envelope pieces\n", n,
                static_cast<unsigned long long>(res.piece_ops),
                res.envelope.piece_count());
  }
}

void BM_NativeVsSim(benchmark::State& state) {
  bool mesh = state.range(0) == 0;
  bool native = state.range(1) == 1;
  std::size_t n = static_cast<std::size_t>(state.range(2));
  PolyFamily fam = random_poly_family(n, n, 1);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    Machine m = mesh ? envelope_machine_mesh(n, 1)
                     : envelope_machine_hypercube(n, 1);
    if (native) {
      CostMeter meter(m.ledger());
      parallel_envelope(m, fam, 1);
      rounds = meter.elapsed().rounds;
    } else {
      rounds = chandran_mount_steps(n) * crcw_step_rounds(m);
    }
  }
  state.counters["sim_rounds"] = static_cast<double>(rounds);
  state.SetLabel(std::string(mesh ? "mesh " : "hypercube ") +
                 (native ? "native" : "PRAM-sim"));
}

}  // namespace
}  // namespace bench
}  // namespace dyncg

int main(int argc, char** argv) {
  dyncg::bench::print_comparison();
  for (long mesh = 0; mesh < 2; ++mesh) {
    for (long native = 0; native < 2; ++native) {
      benchmark::RegisterBenchmark("Sec6/envelope", dyncg::bench::BM_NativeVsSim)
          ->Args({mesh, native, 256})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
