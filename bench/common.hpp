#pragma once

// Shared helpers for the bench harness.
//
// Every bench binary regenerates one table or figure of the paper.  The
// quantity the paper's tables report is asymptotic *parallel time*; our
// measurable stand-in is the simulator's round count, so each bench prints
// a paper-style table of measured rounds over a sweep of n, plus the fitted
// log-log slope against the claimed growth law, and then registers the same
// runs as google-benchmark cases (rounds exposed as counters, wall time
// measuring the simulator itself).
// Every table printed through print_table() is additionally recorded and,
// at process exit, written as a versioned machine-readable report
// BENCH_<name>.json (config, ledger figures, host timings, git rev) — the
// perf trajectory consumed by docs/OBSERVABILITY.md's tooling.  Set
// DYNCG_BENCH_JSON=<dir> to redirect the report, or =0 to disable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <errno.h>  // program_invocation_short_name
#endif

#include "dyncg/motion.hpp"
#include "machine/faults.hpp"
#include "machine/machine.hpp"
#include "pieces/piecewise.hpp"
#include "support/build_info.hpp"
#include "support/fatal.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dyncg {
namespace bench {

namespace detail {
// Captured at static initialization of the bench binary, so host_seconds
// covers the whole run — including all the simulation work that happens
// before the first print_table() call (the old lazy-singleton timestamp
// missed everything before the first table and under-reported by orders of
// magnitude on compute-heavy benches).
inline const std::chrono::steady_clock::time_point process_start =
    std::chrono::steady_clock::now();
}  // namespace detail

// Least-squares slope of log(y) against log(x): the measured growth
// exponent.
inline double loglog_slope(const std::vector<double>& x,
                           const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    double lx = std::log(x[i]), ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  double denom = static_cast<double>(n) * sxx - sx * sx;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

// Ratio y / f(x) at the largest x, a "constant factor" probe.
inline double tail_ratio(const std::vector<double>& x,
                         const std::vector<double>& y, double (*f)(double)) {
  return y.back() / f(x.back());
}

struct Row {
  std::string label;
  std::vector<double> n;
  std::vector<double> rounds;
  std::string claimed;  // the paper's Theta(...)
};

// Schema version of the BENCH_<name>.json reports; bump on layout changes
// and document them in docs/OBSERVABILITY.md.
// v2: added the "faults" section (active DYNCG_FAULTS spec + process-wide
// fault counters).
inline constexpr int kBenchJsonSchemaVersion = 2;

// Process-wide recorder behind print_table(): collects every table and
// writes BENCH_<name>.json at exit.
class BenchReport {
 public:
  static BenchReport& instance() {
    static BenchReport* r = new BenchReport;  // leaked; written via atexit
    return *r;
  }

  void record(const std::string& title, const std::vector<Row>& rows) {
    tables_.push_back(Table{title, rows});
    if (!atexit_registered_) {
      atexit_registered_ = true;
      std::atexit([] { BenchReport::instance().write(); });
      // A DYNCG_ASSERT abort skips atexit hooks; flush the report from the
      // fatal path too so a crashed sweep still leaves its rows on disk.
      fatal::register_flush([] { BenchReport::instance().write(); });
    }
  }

  // Bench binary name with the "bench_" prefix stripped ("table1_ops").
  static std::string bench_name() {
#if defined(__GLIBC__)
    std::string name = program_invocation_short_name;
#else
    std::string name = "bench";
#endif
    const std::string prefix = "bench_";
    if (name.compare(0, prefix.size(), prefix) == 0) {
      name = name.substr(prefix.size());
    }
    return name;
  }

  void write() {
    if (written_ || tables_.empty()) return;
    written_ = true;
    std::string dir = ".";
    if (const char* d = std::getenv("DYNCG_BENCH_JSON")) {
      std::string v = d;
      if (v == "0" || v == "off") return;
      if (!v.empty()) dir = v;
    }
    const std::string path = dir + "/BENCH_" + bench_name() + ".json";

    json::Writer w;
    w.begin_object();
    w.key("schema_version");
    w.value(std::int64_t{kBenchJsonSchemaVersion});
    w.key("kind");
    w.value("dyncg-bench");
    w.key("name");
    w.value(bench_name());
    w.key("git_rev");
    w.value(git_revision());
    w.key("config");
    w.begin_object();
    w.key("threads");
    w.value(std::uint64_t{host_threads()});
    w.end_object();
    w.key("faults");
    w.begin_object();
    {
      const char* spec = std::getenv("DYNCG_FAULTS");
      w.key("spec");
      w.value(spec != nullptr ? spec : "");
      FaultCountersSnapshot fc = faults_global::snapshot();
      w.key("link_down_hits");
      w.value(fc.link_down_hits);
      w.key("pe_down_hits");
      w.value(fc.pe_down_hits);
      w.key("words_dropped");
      w.value(fc.words_dropped);
      w.key("retries");
      w.value(fc.retries);
      w.key("detour_rounds");
      w.value(fc.detour_rounds);
      w.key("remaps");
      w.value(fc.remaps);
    }
    w.end_object();
    w.key("host_seconds");
    w.value(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          detail::process_start)
                .count());
    w.key("unix_time");
    w.value(static_cast<std::int64_t>(std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::system_clock::now().time_since_epoch()).count()));
    w.key("tables");
    w.begin_array();
    for (const Table& t : tables_) {
      w.begin_object();
      w.key("title");
      w.value(t.title);
      w.key("rows");
      w.begin_array();
      for (const Row& r : t.rows) {
        w.begin_object();
        w.key("problem");
        w.value(r.label);
        w.key("claim");
        w.value(r.claimed);
        w.key("slope");
        w.value(r.n.size() >= 2 ? loglog_slope(r.n, r.rounds) : 0.0);
        w.key("points");
        w.begin_array();
        for (std::size_t i = 0; i < r.n.size(); ++i) {
          w.begin_object();
          w.key("n");
          w.value(r.n[i]);
          w.key("rounds");
          w.value(r.rounds[i]);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();

    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(w.str().data(), 1, w.str().size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "dyncg bench: cannot write %s\n", path.c_str());
    }
  }

 private:
  struct Table {
    std::string title;
    std::vector<Row> rows;
  };

  std::vector<Table> tables_;
  bool atexit_registered_ = false;
  bool written_ = false;
};

inline void print_table(const std::string& title,
                        const std::vector<Row>& rows) {
  BenchReport::instance().record(title, rows);
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-44s %-18s %-10s  measured rounds over n sweep\n", "problem",
              "paper claims", "slope");
  for (const Row& r : rows) {
    double slope = loglog_slope(r.n, r.rounds);
    std::printf("%-44s %-18s %-10.3f ", r.label.c_str(), r.claimed.c_str(),
                slope);
    for (std::size_t i = 0; i < r.n.size(); ++i) {
      std::printf(" %g:%g", r.n[i], r.rounds[i]);
    }
    std::printf("\n");
  }
  // Machine-readable dump for downstream plotting: set DYNCG_BENCH_CSV to a
  // directory and every table lands there as <slug>.csv.
  if (const char* dir = std::getenv("DYNCG_BENCH_CSV")) {
    std::string slug;
    for (char c : title) {
      slug += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                  ? static_cast<char>(std::tolower(c))
                  : '_';
    }
    std::string path = std::string(dir) + "/" + slug + ".csv";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "problem,claim,n,rounds\n");
      for (const Row& r : rows) {
        for (std::size_t i = 0; i < r.n.size(); ++i) {
          std::fprintf(f, "\"%s\",\"%s\",%g,%g\n", r.label.c_str(),
                       r.claimed.c_str(), r.n[i], r.rounds[i]);
        }
      }
      std::fclose(f);
    }
  }
}

inline MotionSystem workload(std::uint64_t seed, std::size_t n,
                             std::size_t dim, int k) {
  Rng rng(seed);
  return random_motion_system(rng, n, dim, k);
}

inline PolyFamily random_poly_family(std::uint64_t seed, std::size_t n,
                                     int max_deg) {
  Rng rng(seed);
  std::vector<Polynomial> fns;
  fns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    int deg = rng.uniform_int(1, max_deg);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-2.0, 2.0);
    fns.push_back(Polynomial(c));
  }
  return PolyFamily(std::move(fns));
}

}  // namespace bench
}  // namespace dyncg
