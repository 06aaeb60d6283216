// Figure 6 — lines of support, antipodal pairs, and the sector mapping.
//
// Regenerates Figure 6's construction for a small convex polygon: the
// antipodal pairs (6a) and the edge-ray sector diagram (6b), computed by
// the Lemma 5.5 machine algorithm.  Then verifies, over random polygons,
// that every PE ends with at most four antipodal pairs and that the
// diameter extracted from the pairs matches brute force; finally measures
// the Lemma 5.5 cost scaling on both machines.
#include "common.hpp"
#include "steady/machine_geometry.hpp"

namespace dyncg {
namespace bench {
namespace {

std::vector<Point2<double>> regular_polygon(std::size_t h, double jitter,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2<double>> pts;
  for (std::size_t i = 0; i < h; ++i) {
    double a = 2 * M_PI * static_cast<double>(i) / static_cast<double>(h);
    double r = 10.0 + rng.uniform(-jitter, jitter);
    pts.push_back(Point2<double>{r * std::cos(a), r * std::sin(a), i});
  }
  return convex_hull(pts);
}

void print_figure6() {
  std::printf("=== Figure 6a: antipodal pairs of a convex pentagon ===\n");
  auto hull = regular_polygon(5, 1.0, 3);
  Machine m = Machine::mesh_for(hull.size());
  auto pairs = machine_antipodal_pairs(m, hull);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [a, b] : pairs) {
    std::printf("  antipodal: v%zu -- v%zu\n", a, b);
  }

  std::printf("\n=== Figure 6b: edge-ray sectors ===\n");
  std::size_t h = hull.size();
  for (std::size_t i = 0; i < h; ++i) {
    const auto& prev = hull[(i + h - 1) % h];
    const auto& cur = hull[i];
    const auto& next = hull[(i + 1) % h];
    double a_in = std::atan2(cur.y - prev.y, cur.x - prev.x);
    double a_out = std::atan2(next.y - cur.y, next.x - cur.x);
    std::printf("  sector of v%zu: [%6.3f, %6.3f) rad\n", i, a_in, a_out);
  }
}

void print_validation() {
  std::printf("\n=== Lemma 5.5 validation over random polygons ===\n");
  std::printf("%6s %10s %14s %12s\n", "h", "pairs", "pairs per PE",
              "diam OK");
  for (std::size_t h_target : {8u, 16u, 32u, 64u, 128u}) {
    auto hull = regular_polygon(h_target, 2.0, h_target);
    Machine m = Machine::mesh_for(hull.size());
    auto pairs = machine_antipodal_pairs(m, hull);
    // Diameter from the pairs vs brute force over hull vertices.
    double got = 0;
    for (const auto& [a, b] : pairs) got = std::max(got, dist2(hull[a], hull[b]));
    double want = 0;
    for (std::size_t i = 0; i < hull.size(); ++i) {
      for (std::size_t j = i + 1; j < hull.size(); ++j) {
        want = std::max(want, dist2(hull[i], hull[j]));
      }
    }
    double per_pe =
        static_cast<double>(pairs.size()) / static_cast<double>(hull.size());
    std::printf("%6zu %10zu %14.2f %12s\n", hull.size(), pairs.size(), per_pe,
                std::abs(got - want) < 1e-9 ? "yes" : "NO");
  }
}

void print_scaling() {
  std::vector<Row> rows;
  Row mesh_row{"antipodal pairs (Lemma 5.5), mesh", {}, {}, "Theta(n^1/2)"};
  Row cube_row{"antipodal pairs (Lemma 5.5), hypercube", {}, {},
               "Theta(log^2 n)"};
  for (std::size_t h : {64u, 256u, 1024u, 4096u}) {
    auto hull = regular_polygon(h, 0.5, h);
    Machine mm = Machine::mesh_for(hull.size());
    CostMeter m1(mm.ledger());
    machine_antipodal_pairs(mm, hull);
    mesh_row.n.push_back(static_cast<double>(mm.size()));
    mesh_row.rounds.push_back(static_cast<double>(m1.elapsed().rounds));
    Machine mc = Machine::hypercube_for(hull.size());
    CostMeter m2(mc.ledger());
    machine_antipodal_pairs(mc, hull);
    cube_row.n.push_back(static_cast<double>(mc.size()));
    cube_row.rounds.push_back(static_cast<double>(m2.elapsed().rounds));
  }
  print_table("Lemma 5.5 scaling", {mesh_row, cube_row});
}

void BM_Antipodal(benchmark::State& state) {
  bool mesh = state.range(0) == 0;
  std::size_t h = static_cast<std::size_t>(state.range(1));
  auto hull = regular_polygon(h, 0.5, h);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    Machine m = mesh ? Machine::mesh_for(hull.size())
                     : Machine::hypercube_for(hull.size());
    CostMeter meter(m.ledger());
    machine_antipodal_pairs(m, hull);
    rounds = meter.elapsed().rounds;
  }
  state.counters["sim_rounds"] = static_cast<double>(rounds);
  state.SetLabel(mesh ? "mesh" : "hypercube");
}

}  // namespace
}  // namespace bench
}  // namespace dyncg

int main(int argc, char** argv) {
  dyncg::bench::print_figure6();
  dyncg::bench::print_validation();
  dyncg::bench::print_scaling();
  for (long mesh = 0; mesh < 2; ++mesh) {
    benchmark::RegisterBenchmark("Fig6/antipodal", dyncg::bench::BM_Antipodal)
        ->Args({mesh, 1024})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
