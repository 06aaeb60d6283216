// Numeric kernel microbench — batched polynomial evaluation and the
// coefficient updates (src/poly/kernels.hpp).
//
// There is no paper table for this layer: the kernels are implementation
// machinery underneath Lemma 3.1's per-cell winner selection and the
// register-fill setup loops.  The deterministic figure this bench reports
// is a bit-pattern checksum of every kernel's output over a fixed input
// sweep, so the dyncg_bench_diff gate catches any numeric drift
// (docs/PERFORMANCE.md#numeric-kernels) while host_seconds tracks the
// kernels' speed.
#include "common.hpp"
#include "poly/kernels.hpp"

#include <cstring>

namespace dyncg {
namespace bench {
namespace {

// Fold output bits into an integer that survives the %.12g JSON round-trip
// exactly (12 significant digits).  Any single-bit change in any output
// double flips the checksum.
class BitChecksum {
 public:
  void fold(const double* x, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t b = 0;
      std::memcpy(&b, &x[i], sizeof(b));
      acc_ = (acc_ * 1000003u) ^ b;
    }
  }
  double value() const { return static_cast<double>(acc_ % 999999999989ull); }

 private:
  std::uint64_t acc_ = 0x9e3779b97f4a7c15ull;
};

std::vector<double> random_vec(Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

double checksum_horner_many(std::size_t n) {
  Rng rng(n);
  std::vector<double> c = random_vec(rng, 7, -2.0, 2.0);
  std::vector<double> ts = random_vec(rng, n, -10.0, 10.0);
  std::vector<double> out(n);
  kernels::horner_many(c.data(), c.size(), ts.data(), n, out.data());
  BitChecksum sum;
  sum.fold(out.data(), n);
  return sum.value();
}

double checksum_horner_slab(std::size_t n) {
  PolyFamily fam = random_poly_family(n, n, 4);
  std::vector<double> out(n);
  BitChecksum sum;
  for (double t : {-3.0, -0.5, 0.0, 1.25, 8.0}) {
    fam.values_all(t, out.data());
    sum.fold(out.data(), n);
  }
  return sum.value();
}

double checksum_coeff_kernels(std::size_t n) {
  Rng rng(n + 2);
  std::vector<double> a = random_vec(rng, n, -2.0, 2.0);
  std::vector<double> b = random_vec(rng, n / 2 + 1, -2.0, 2.0);
  std::vector<double> out(n);
  BitChecksum sum;
  kernels::diff_coeffs(a.data(), a.size(), b.data(), b.size(), out.data());
  sum.fold(out.data(), n);
  kernels::derivative_coeffs(a.data(), a.size(), out.data());
  sum.fold(out.data(), n - 1);
  std::vector<double> x = a;
  kernels::add_coeffs(x.data(), a.data(), n);
  sum.fold(x.data(), n);
  kernels::sub_coeffs(x.data(), a.data(), n);
  sum.fold(x.data(), n);
  return sum.value();
}

// Fixed-repetition hot loops: enough kernel work that the report's
// host_seconds is dominated by the kernels themselves.  The returned
// checksum folds the final output.
double hot_horner_many(std::size_t n) {
  Rng rng(n ^ 0xbeefu);
  std::vector<double> c = random_vec(rng, 7, -2.0, 2.0);
  std::vector<double> ts = random_vec(rng, n, -10.0, 10.0);
  std::vector<double> out(n);
  const std::size_t reps = (std::size_t{1} << 27) / n;
  for (std::size_t r = 0; r < reps; ++r) {
    kernels::horner_many(c.data(), c.size(), ts.data(), n, out.data());
  }
  BitChecksum sum;
  sum.fold(out.data(), n);
  return sum.value();
}

double hot_horner_slab(std::size_t n) {
  PolyFamily fam = random_poly_family(n ^ 0xf00du, n, 4);
  std::vector<double> out(n);
  const std::size_t reps = (std::size_t{1} << 27) / n;
  for (std::size_t r = 0; r < reps; ++r) {
    fam.values_all(1.625, out.data());
  }
  BitChecksum sum;
  sum.fold(out.data(), n);
  return sum.value();
}

void print_tables() {
  const std::vector<std::size_t> sizes{64, 256, 1024, 4096, 16384};
  struct Kernel {
    const char* name;
    double (*fn)(std::size_t);
  };
  const Kernel kKernels[] = {
      {"horner_many (one poly, many t)", checksum_horner_many},
      {"horner_slab (family slab, one t)", checksum_horner_slab},
      {"diff/derivative/add/sub coeffs", checksum_coeff_kernels},
  };
  std::vector<Row> rows;
  for (const Kernel& k : kKernels) {
    Row r{k.name, {}, {}, "dispatch-invariant checksum"};
    for (std::size_t n : sizes) {
      r.n.push_back(static_cast<double>(n));
      r.rounds.push_back(k.fn(n));
    }
    rows.push_back(std::move(r));
  }
  print_table("Poly kernels / output bit checksums (mode-independent)", rows);

  const Kernel kHot[] = {
      {"horner_many hot loop (2^27 elements)", hot_horner_many},
      {"horner_slab hot loop (2^27 elements)", hot_horner_slab},
  };
  std::vector<Row> hot_rows;
  for (const Kernel& k : kHot) {
    Row r{k.name, {}, {}, "dispatch-invariant checksum"};
    for (std::size_t n : {std::size_t{1024}, std::size_t{4096},
                          std::size_t{16384}}) {
      r.n.push_back(static_cast<double>(n));
      r.rounds.push_back(k.fn(n));
    }
    hot_rows.push_back(std::move(r));
  }
  print_table("Poly kernels / hot-loop checksums (throughput sweep)",
              hot_rows);
}

// Timed sweeps.  The kernels inline into these loops, so each iteration
// clobbers memory to keep its writes from being folded across iterations.
void BM_HornerMany(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> c = random_vec(rng, 7, -2.0, 2.0);
  std::vector<double> ts = random_vec(rng, 4096, -10.0, 10.0);
  std::vector<double> out(ts.size());
  for (auto _ : state) {
    kernels::horner_many(c.data(), c.size(), ts.data(), ts.size(),
                         out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ts.size()));
}

void BM_HornerSlab(benchmark::State& state) {
  PolyFamily fam = random_poly_family(11, 4096, 4);
  std::vector<double> out(fam.size());
  double t = 0.375;
  for (auto _ : state) {
    fam.values_all(t, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    t += 1e-6;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fam.size()));
}

void BM_DiffCoeffs(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> a = random_vec(rng, 4096, -2.0, 2.0);
  std::vector<double> b = random_vec(rng, 4000, -2.0, 2.0);
  std::vector<double> out(a.size());
  for (auto _ : state) {
    kernels::diff_coeffs(a.data(), a.size(), b.data(), b.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.size()));
}

}  // namespace
}  // namespace bench
}  // namespace dyncg

int main(int argc, char** argv) {
  dyncg::bench::print_tables();
  struct Case {
    const char* name;
    void (*fn)(benchmark::State&);
  };
  const Case kCases[] = {
      {"PolyKernels/horner_many", dyncg::bench::BM_HornerMany},
      {"PolyKernels/horner_slab", dyncg::bench::BM_HornerSlab},
      {"PolyKernels/diff_coeffs", dyncg::bench::BM_DiffCoeffs},
  };
  for (const Case& c : kCases) {
    benchmark::RegisterBenchmark(c.name, c.fn)->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
