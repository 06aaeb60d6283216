// dyncg_bench_diff — perf-regression gate over BENCH_<name>.json reports.
//
//   dyncg_bench_diff [--host-tolerance R] [--require] BASELINE CURRENT
//
// Compares a freshly produced bench report against a committed baseline
// (baseline/BENCH_<name>.json) and exits non-zero on drift:
//
//   * model-cost figures — every table title, row label, claim, and
//     (n, rounds) point — must match the baseline EXACTLY.  The simulated
//     round counts are deterministic for every DYNCG_THREADS and every
//     recoverable fault plan (docs/PARALLELISM.md, docs/ROBUSTNESS.md), so
//     any difference is a real change to the machine model or the
//     algorithms and must be acknowledged by refreshing the baseline;
//   * fault counters (link_down_hits, retries, ...) are model-cost too and
//     compare exactly;
//   * serve reports: sim_rounds_p50/p99 (exact simulated-cost percentiles)
//     compare exactly, and every stability=deterministic entry of the
//     embedded metrics registry must match canonically — same entry set,
//     same values/buckets (stability=host-noisy entries are ignored);
//   * host_seconds is noise — wall-clock on a shared host — so it only
//     fails when CURRENT exceeds BASELINE by more than the --host-tolerance
//     factor (default 3.0; pass 0 to skip the host check entirely).
//
// schema_version must match (both v2); name must match (comparing fig4
// against table2 is a harness bug, not a perf delta).  git_rev and
// config.threads are informational: required, never compared.
//
// This tool is also the reader that checks the report schema
// (bench/common.hpp writes it; docs/OBSERVABILITY.md documents it): every
// field it compares, and of both reports also kind == "dyncg-bench",
// config.threads, each row's slope, a non-empty tables array and, for
// name == "serve", the ten numbers of the serve section and a metrics
// object.  A report without a baseline (a faulted run) is checked by
// passing it as both arguments with --host-tolerance 0.
//
// Exit 0 on match, 1 on drift (with one diagnostic line per difference),
// 2 on usage / unreadable / malformed input.  --require upgrades a missing
// or unreadable BASELINE from exit 2 to exit 1: a bench that is supposed to
// be gated but has no committed baseline is a regression (the gate would
// otherwise silently pass for ever), not a harness typo.  Used by the
// bench_diff ctest fixtures (bench/CMakeLists.txt) and the baseline-refresh
// workflow in docs/PERFORMANCE.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace {

using dyncg::json::Value;

int g_drift = 0;

void drift(const std::string& msg) {
  std::fprintf(stderr, "bench-diff: %s\n", msg.c_str());
  ++g_drift;
}

std::string num_str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Fetch obj[key] with the given type; malformed reports abort the diff
// (exit 2).
const Value& get(const Value& obj, const char* key, Value::Type type,
                 const std::string& where) {
  const Value* v = obj.find(key);
  if (v == nullptr || v->type != type) {
    std::fprintf(stderr, "bench-diff: %s: missing or mistyped \"%s\"\n",
                 where.c_str(), key);
    std::exit(2);
  }
  return *v;
}

double get_num(const Value& obj, const char* key, const std::string& where) {
  return get(obj, key, Value::Type::kNumber, where).number;
}

const std::string& get_str(const Value& obj, const char* key,
                           const std::string& where) {
  return get(obj, key, Value::Type::kString, where).string;
}

// The fields of one report that no comparison below reads.
void check_schema(const Value& doc, const std::string& side) {
  if (get_str(doc, "kind", side) != "dyncg-bench") {
    std::fprintf(stderr, "bench-diff: %s: kind is not \"dyncg-bench\"\n",
                 side.c_str());
    std::exit(2);
  }
  get_num(get(doc, "config", Value::Type::kObject, side), "threads",
          side + ".config");
  const Value& tables = get(doc, "tables", Value::Type::kArray, side);
  if (tables.array.empty()) {
    std::fprintf(stderr, "bench-diff: %s: tables is empty\n", side.c_str());
    std::exit(2);
  }
  for (std::size_t t = 0; t < tables.array.size(); ++t) {
    std::string where = side + ".tables[" + std::to_string(t) + "]";
    const Value& rows =
        get(tables.array[t], "rows", Value::Type::kArray, where);
    for (std::size_t r = 0; r < rows.array.size(); ++r) {
      get_num(rows.array[r], "slope",
              where + ".rows[" + std::to_string(r) + "]");
    }
  }
  if (get_str(doc, "name", side) != "serve") return;
  const Value& serve = get(doc, "serve", Value::Type::kObject, side);
  for (const char* key : {"requests", "rps", "p50_ms", "p99_ms", "hits",
                          "misses", "evictions", "batches", "sim_rounds_p50",
                          "sim_rounds_p99"}) {
    get_num(serve, key, side + ".serve");
  }
  get(doc, "metrics", Value::Type::kObject, side);
}

void diff_exact_num(double base, double cur, const std::string& what) {
  if (base != cur) {
    drift(what + ": baseline " + num_str(base) + ", current " + num_str(cur));
  }
}

void diff_exact_str(const std::string& base, const std::string& cur,
                    const std::string& what) {
  if (base != cur) {
    drift(what + ": baseline \"" + base + "\", current \"" + cur + "\"");
  }
}

// The ledger figures: tables -> rows -> points, all exact.
void diff_tables(const Value& base, const Value& cur) {
  const Value& bt = get(base, "tables", Value::Type::kArray, "baseline");
  const Value& ct = get(cur, "tables", Value::Type::kArray, "current");
  if (bt.array.size() != ct.array.size()) {
    drift("table count: baseline " + std::to_string(bt.array.size()) +
          ", current " + std::to_string(ct.array.size()));
    return;
  }
  for (std::size_t t = 0; t < bt.array.size(); ++t) {
    std::string where = "tables[" + std::to_string(t) + "]";
    diff_exact_str(get_str(bt.array[t], "title", where),
                   get_str(ct.array[t], "title", where), where + ".title");
    const Value& br = get(bt.array[t], "rows", Value::Type::kArray, where);
    const Value& cr = get(ct.array[t], "rows", Value::Type::kArray, where);
    if (br.array.size() != cr.array.size()) {
      drift(where + ": row count: baseline " +
            std::to_string(br.array.size()) + ", current " +
            std::to_string(cr.array.size()));
      continue;
    }
    for (std::size_t r = 0; r < br.array.size(); ++r) {
      std::string rw = where + ".rows[" + std::to_string(r) + "]";
      diff_exact_str(get_str(br.array[r], "problem", rw),
                     get_str(cr.array[r], "problem", rw), rw + ".problem");
      diff_exact_str(get_str(br.array[r], "claim", rw),
                     get_str(cr.array[r], "claim", rw), rw + ".claim");
      const Value& bp = get(br.array[r], "points", Value::Type::kArray, rw);
      const Value& cp = get(cr.array[r], "points", Value::Type::kArray, rw);
      if (bp.array.size() != cp.array.size()) {
        drift(rw + ": point count: baseline " +
              std::to_string(bp.array.size()) + ", current " +
              std::to_string(cp.array.size()));
        continue;
      }
      for (std::size_t p = 0; p < bp.array.size(); ++p) {
        std::string pw = rw + ".points[" + std::to_string(p) + "]";
        diff_exact_num(get_num(bp.array[p], "n", pw),
                       get_num(cp.array[p], "n", pw), pw + ".n");
        diff_exact_num(get_num(bp.array[p], "rounds", pw),
                       get_num(cp.array[p], "rounds", pw), pw + ".rounds");
      }
    }
  }
}

// Fault counters are deterministic model costs, not host noise.
void diff_faults(const Value& base, const Value& cur) {
  const Value& bf = get(base, "faults", Value::Type::kObject, "baseline");
  const Value& cf = get(cur, "faults", Value::Type::kObject, "current");
  diff_exact_str(get_str(bf, "spec", "baseline.faults"),
                 get_str(cf, "spec", "current.faults"), "faults.spec");
  for (const char* key : {"link_down_hits", "pe_down_hits", "words_dropped",
                          "retries", "detour_rounds", "remaps"}) {
    diff_exact_num(get_num(bf, key, "baseline.faults"),
                   get_num(cf, key, "current.faults"),
                   std::string("faults.") + key);
  }
}

// Serve reports: the exact simulated-cost percentiles gate like ledger
// figures; the rest of the `serve` section (rps, latency) is host noise.
void diff_serve(const Value& base, const Value& cur) {
  const Value* bs = base.find("serve");
  const Value* cs = cur.find("serve");
  if (bs == nullptr && cs == nullptr) return;
  if (bs == nullptr || cs == nullptr || !bs->is_object() ||
      !cs->is_object()) {
    drift("serve section present in only one report");
    return;
  }
  for (const char* key : {"sim_rounds_p50", "sim_rounds_p99"}) {
    diff_exact_num(get_num(*bs, key, "baseline.serve"),
                   get_num(*cs, key, "current.serve"),
                   std::string("serve.") + key);
  }
}

// Deterministic half of an embedded metrics registry
// (docs/OBSERVABILITY.md#metrics): kind-qualified name -> canonical dump of
// the whole entry, so values, bucket vectors, help text, and bounds all
// participate in the exact compare.
void collect_deterministic(const Value& doc,
                           std::vector<std::pair<std::string, std::string>>*
                               out) {
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const Value* arr = doc.find(section);
    if (arr == nullptr || !arr->is_array()) continue;
    for (const Value& e : arr->array) {
      if (!e.is_object()) continue;
      const Value* stability = e.find("stability");
      if (stability == nullptr || !stability->is_string() ||
          stability->string != "deterministic") {
        continue;
      }
      const Value* name = e.find("name");
      std::string label = std::string(section) + "/" +
                          (name != nullptr && name->is_string() ? name->string
                                                                : "?");
      out->emplace_back(label, dyncg::json::dump(e));
    }
  }
}

void diff_metrics(const Value& base, const Value& cur) {
  const Value* bm = base.find("metrics");
  const Value* cm = cur.find("metrics");
  if (bm == nullptr && cm == nullptr) return;
  if (bm == nullptr || cm == nullptr || !bm->is_object() ||
      !cm->is_object()) {
    drift("metrics registry present in only one report");
    return;
  }
  std::vector<std::pair<std::string, std::string>> be, ce;
  collect_deterministic(*bm, &be);
  collect_deterministic(*cm, &ce);
  std::size_t bi = 0, ci = 0;
  // Both registries are name-sorted per kind, so a single merge walk finds
  // added, removed, and changed entries.
  while (bi < be.size() || ci < ce.size()) {
    if (ci >= ce.size() || (bi < be.size() && be[bi].first < ce[ci].first)) {
      drift("metrics." + be[bi].first + ": missing from current");
      ++bi;
    } else if (bi >= be.size() || ce[ci].first < be[bi].first) {
      drift("metrics." + ce[ci].first + ": missing from baseline");
      ++ci;
    } else {
      if (be[bi].second != ce[ci].second) {
        drift("metrics." + be[bi].first + ": baseline " + be[bi].second +
              ", current " + ce[ci].second);
      }
      ++bi;
      ++ci;
    }
  }
}

bool read_file(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: dyncg_bench_diff [--host-tolerance R] [--require] "
               "BASELINE CURRENT\n"
               "  R: current host_seconds may be at most R x baseline "
               "(default 3.0; 0 skips)\n"
               "  --require: a missing/unreadable BASELINE is drift (exit 1)"
               " instead of\n"
               "  a usage error (exit 2) -- for benches whose baseline must "
               "be committed\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double host_tolerance = 3.0;
  bool require_baseline = false;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    if (std::strcmp(argv[arg], "--host-tolerance") == 0) {
      if (arg + 1 >= argc) return usage();
      char* end = nullptr;
      host_tolerance = std::strtod(argv[arg + 1], &end);
      if (end == argv[arg + 1] || *end != '\0' || host_tolerance < 0.0) {
        return usage();
      }
      arg += 2;
    } else if (std::strcmp(argv[arg], "--require") == 0) {
      require_baseline = true;
      ++arg;
    } else {
      return usage();
    }
  }
  if (argc - arg != 2) return usage();
  const char* base_path = argv[arg];
  const char* cur_path = argv[arg + 1];

  Value base, cur;
  for (auto [path, doc] : {std::pair{base_path, &base}, {cur_path, &cur}}) {
    std::string text, err;
    if (!read_file(path, &text)) {
      if (require_baseline && path == base_path) {
        std::fprintf(stderr,
                     "bench-diff: %s: baseline missing (--require: a gated "
                     "bench must have a committed baseline)\n",
                     path);
        return 1;
      }
      std::fprintf(stderr, "bench-diff: %s: cannot read\n", path);
      return 2;
    }
    if (!dyncg::json::parse(text, doc, &err) || !doc->is_object()) {
      std::fprintf(stderr, "bench-diff: %s: %s\n", path,
                   err.empty() ? "not a JSON object" : err.c_str());
      return 2;
    }
  }

  check_schema(base, "baseline");
  check_schema(cur, "current");
  diff_exact_num(get_num(base, "schema_version", "baseline"),
                 get_num(cur, "schema_version", "current"), "schema_version");
  diff_exact_str(get_str(base, "name", "baseline"),
                 get_str(cur, "name", "current"), "name");
  diff_tables(base, cur);
  diff_faults(base, cur);
  diff_serve(base, cur);
  diff_metrics(base, cur);

  double base_host = get_num(base, "host_seconds", "baseline");
  double cur_host = get_num(cur, "host_seconds", "current");
  std::printf("bench-diff: %s: host %.3fs vs baseline %.3fs (%.2fx), rev %s "
              "vs %s\n",
              get_str(cur, "name", "current").c_str(), cur_host, base_host,
              base_host > 0.0 ? cur_host / base_host : 0.0,
              get_str(cur, "git_rev", "current").c_str(),
              get_str(base, "git_rev", "baseline").c_str());
  if (host_tolerance > 0.0 && cur_host > base_host * host_tolerance) {
    drift("host_seconds regression: " + num_str(cur_host) + " > " +
          num_str(host_tolerance) + " x baseline " + num_str(base_host));
  }

  if (g_drift > 0) {
    std::fprintf(stderr, "bench-diff: %d difference(s) vs %s\n", g_drift,
                 base_path);
    return 1;
  }
  std::printf("bench-diff: ok (ledger figures identical)\n");
  return 0;
}
