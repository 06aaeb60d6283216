// Figure 4 — "The pieces of min{f(t), g(t), h(t)}".
//
// Regenerates the figure's three-function example as an explicit piece
// list, then sweeps random families to chart how envelope piece counts
// track the Davenport-Schinzel bound lambda(n, s) of Lemma 2.2 / Theorem
// 2.3, and benchmarks envelope construction on both machines.
#include <chrono>

#include "common.hpp"
#include "envelope/parallel_envelope.hpp"
#include "pieces/envelope_serial.hpp"
#include "support/ackermann.hpp"
#include "support/ds_sequence.hpp"

namespace dyncg {
namespace bench {
namespace {

void print_figure4() {
  std::printf("=== Figure 4: pieces of min{f, g, h} ===\n");
  // g below first, then h, then f — the figure's shape.
  PolyFamily fam({Polynomial({6.0, -0.5}),   // f: eventually smallest
                  Polynomial({0.0, 1.0}),    // g: smallest first
                  Polynomial({2.0})});       // h: smallest in between
  const char* names[] = {"f", "g", "h"};
  PiecewiseFn env = envelope_serial(fam);
  for (const Piece& p : env.pieces) {
    std::printf("  (%s(t), %s)\n", names[p.id], p.iv.to_string().c_str());
  }
  std::printf("  [paper: (g,[0,a]); (h,[a,b]); (f,[b,inf))]\n");
}

void print_piece_count_sweep() {
  std::printf("\n=== Envelope piece counts vs lambda(n, s) ===\n");
  std::printf("%6s %3s %12s %14s %16s %s\n", "n", "s", "pieces(avg)",
              "pieces(max)", "lambda bound", "DS-valid");
  for (int s : {1, 2, 3}) {
    for (std::size_t n : {16u, 64u, 256u, 1024u}) {
      const int trials = 5;
      // Independent repetitions fan out over host threads; per-trial results
      // land in their own slot and the floating-point average is folded
      // serially in index order, so the printed figures are identical for
      // every DYNCG_THREADS.
      struct Trial {
        std::size_t pieces = 0;
        bool ds_ok = true;
      };
      std::vector<Trial> res(trials);
      parallel_for(static_cast<std::size_t>(trials), [&](std::size_t t) {
        PolyFamily fam = random_poly_family(n * 100 + t, n, s);
        PiecewiseFn env = envelope_serial(fam);
        res[t] = Trial{env.piece_count(),
                       is_davenport_schinzel(env.origin_sequence(),
                                             static_cast<int>(n), s)};
      });
      double avg = 0;
      std::size_t mx = 0;
      bool ds_ok = true;
      for (const Trial& t : res) {
        avg += static_cast<double>(t.pieces) / trials;
        mx = std::max(mx, t.pieces);
        ds_ok &= t.ds_ok;
      }
      std::printf("%6zu %3d %12.1f %14zu %16llu %s\n", n, s, avg, mx,
                  static_cast<unsigned long long>(lambda_upper_bound(n, s)),
                  ds_ok ? "yes" : "NO");
    }
  }
}

void print_machine_scaling() {
  std::printf("\n=== Theorem 3.2 machine cost (the engine behind Fig. 4) "
              "===\n");
  Row mesh_row{"envelope, mesh", {}, {}, "Theta(lambda^1/2)"};
  Row cube_row{"envelope, hypercube", {}, {}, "Theta(log^2 n)"};
  auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t n : {32u, 128u, 512u, 2048u, 8192u, 32768u}) {
    PolyFamily fam = random_poly_family(n, n, 2);
    // Fixed total work per sweep point (reps * n functions), so the host
    // timing reflects the envelope engine's per-function throughput rather
    // than one short build.  The machines are built once per point and the
    // ledger deltas metered per build: repetitions charge identical rounds,
    // and the recorded figure is the first repetition's.
    const std::size_t reps = std::max<std::size_t>(1, 262144 / n);
    Machine mesh = envelope_machine_mesh(n, 2);
    Machine cube = envelope_machine_hypercube(n, 2);
    for (std::size_t r = 0; r < reps; ++r) {
      CostMeter m1(mesh.ledger());
      parallel_envelope(mesh, fam, 2);
      if (r == 0) {
        mesh_row.n.push_back(static_cast<double>(mesh.size()));
        mesh_row.rounds.push_back(static_cast<double>(m1.elapsed().rounds));
      }
      CostMeter m2(cube.ledger());
      parallel_envelope(cube, fam, 2);
      if (r == 0) {
        cube_row.n.push_back(static_cast<double>(cube.size()));
        cube_row.rounds.push_back(static_cast<double>(m2.elapsed().rounds));
      }
    }
  }
  std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  print_table("Theorem 3.2 scaling", {mesh_row, cube_row});
  // Host-side figure only: the simulated rounds above are identical for
  // every thread count (the determinism contract of docs/PARALLELISM.md).
  std::printf("[host execution: %u thread(s), %.1f ms wall for the sweep]\n",
              host_threads(), wall.count() * 1e3);
}

void BM_Envelope(benchmark::State& state) {
  bool mesh = state.range(0) == 0;
  std::size_t n = static_cast<std::size_t>(state.range(1));
  PolyFamily fam = random_poly_family(n, n, 2);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    Machine m = mesh ? envelope_machine_mesh(n, 2)
                     : envelope_machine_hypercube(n, 2);
    CostMeter meter(m.ledger());
    parallel_envelope(m, fam, 2);
    rounds = meter.elapsed().rounds;
  }
  state.counters["sim_rounds"] = static_cast<double>(rounds);
  state.SetLabel(mesh ? "mesh" : "hypercube");
}

}  // namespace
}  // namespace bench
}  // namespace dyncg

int main(int argc, char** argv) {
  dyncg::bench::print_figure4();
  dyncg::bench::print_piece_count_sweep();
  dyncg::bench::print_machine_scaling();
  for (long mesh = 0; mesh < 2; ++mesh) {
    benchmark::RegisterBenchmark("Fig4/envelope", dyncg::bench::BM_Envelope)
        ->Args({mesh, 512})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
