// dyncg_json_check — schema validator for the observability outputs.
//
//   dyncg_json_check --trace FILE          Chrome trace_event JSON
//                                          (dyncg_cli --trace-out /
//                                          DYNCG_TRACE)
//   dyncg_json_check --jsonl FILE          flat JSONL span metrics stream
//   dyncg_json_check --bench FILE          BENCH_<name>.json bench report
//   dyncg_json_check --serve-request FILE  dyncg_serve request lines
//                                          (JSONL; validated by the same
//                                          parser the server runs)
//   dyncg_json_check --serve-response FILE dyncg_serve response lines
//                                          (JSONL)
//   dyncg_json_check --metrics FILE        metrics registry snapshot
//                                          (dyncg_serve --metrics-out *.json
//                                          or the `metrics` op's payload)
//   dyncg_json_check --metrics-deterministic FILE
//                                          validate like --metrics, then
//                                          print one canonical line per
//                                          stability=deterministic entry —
//                                          diff two runs' outputs to assert
//                                          the deterministic half of the
//                                          registry is byte-identical
//
// Exit 0 when the file parses and carries every required field with the
// right type; exit 1 with a diagnostic otherwise.  Used by the ctest
// fixtures (tools/CMakeLists.txt, bench/CMakeLists.txt) so a schema
// regression fails the default test target; the schemas themselves are
// documented in docs/OBSERVABILITY.md and docs/SERVING.md.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/protocol.hpp"
#include "support/json.hpp"

namespace {

using dyncg::json::Value;

bool g_ok = true;
const char* g_file = "";

void fail(const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", g_file, msg.c_str());
  g_ok = false;
}

// Require obj[key] with the given type; returns nullptr on failure.
const Value* require(const Value& obj, const std::string& key,
                     Value::Type type, const std::string& where) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    fail(where + ": missing key \"" + key + "\"");
    return nullptr;
  }
  if (v->type != type) {
    fail(where + ": key \"" + key + "\" has the wrong type");
    return nullptr;
  }
  return v;
}

void check_metrics(const Value& doc);  // shared by --bench and --metrics

void check_cost_args(const Value& args, const std::string& where) {
  require(args, "rounds", Value::Type::kNumber, where);
  require(args, "messages", Value::Type::kNumber, where);
  require(args, "local_ops", Value::Type::kNumber, where);
}

void check_trace(const Value& doc) {
  if (!doc.is_object()) {
    fail("top level is not an object");
    return;
  }
  const Value* events =
      require(doc, "traceEvents", Value::Type::kArray, "trace");
  if (events == nullptr) return;
  std::size_t i = 0;
  for (const Value& e : events->array) {
    std::string where = "traceEvents[" + std::to_string(i++) + "]";
    if (!e.is_object()) {
      fail(where + " is not an object");
      continue;
    }
    require(e, "name", Value::Type::kString, where);
    const Value* ph = require(e, "ph", Value::Type::kString, where);
    if (ph != nullptr && ph->string != "X") {
      fail(where + ": expected complete events (ph == \"X\")");
    }
    require(e, "ts", Value::Type::kNumber, where);
    require(e, "dur", Value::Type::kNumber, where);
    require(e, "pid", Value::Type::kNumber, where);
    require(e, "tid", Value::Type::kNumber, where);
    const Value* args = require(e, "args", Value::Type::kObject, where);
    if (args != nullptr) check_cost_args(*args, where + ".args");
  }
}

void check_jsonl_line(const Value& doc, std::size_t lineno) {
  std::string where = "line " + std::to_string(lineno);
  if (!doc.is_object()) {
    fail(where + " is not an object");
    return;
  }
  require(doc, "name", Value::Type::kString, where);
  require(doc, "tid", Value::Type::kNumber, where);
  require(doc, "depth", Value::Type::kNumber, where);
  require(doc, "start_us", Value::Type::kNumber, where);
  require(doc, "dur_us", Value::Type::kNumber, where);
  check_cost_args(doc, where);
}

void check_bench(const Value& doc) {
  if (!doc.is_object()) {
    fail("top level is not an object");
    return;
  }
  require(doc, "schema_version", Value::Type::kNumber, "bench");
  const Value* kind = require(doc, "kind", Value::Type::kString, "bench");
  if (kind != nullptr && kind->string != "dyncg-bench") {
    fail("bench: kind is not \"dyncg-bench\"");
  }
  require(doc, "name", Value::Type::kString, "bench");
  require(doc, "git_rev", Value::Type::kString, "bench");
  require(doc, "host_seconds", Value::Type::kNumber, "bench");
  const Value* config = require(doc, "config", Value::Type::kObject, "bench");
  if (config != nullptr) {
    require(*config, "threads", Value::Type::kNumber, "bench.config");
  }
  // v2: the fault-injection section — active spec + process-wide counters.
  const Value* faults = require(doc, "faults", Value::Type::kObject, "bench");
  if (faults != nullptr) {
    require(*faults, "spec", Value::Type::kString, "bench.faults");
    for (const char* key : {"link_down_hits", "pe_down_hits", "words_dropped",
                            "retries", "detour_rounds", "remaps"}) {
      require(*faults, key, Value::Type::kNumber, "bench.faults");
    }
  }
  // A report named "serve" comes from dyncg_load and must carry the
  // host-side serving metrics section (docs/SERVING.md#bench).
  const Value* name = doc.find("name");
  if (name != nullptr && name->is_string() && name->string == "serve") {
    const Value* serve = require(doc, "serve", Value::Type::kObject, "bench");
    if (serve != nullptr) {
      for (const char* key : {"requests", "rps", "p50_ms", "p99_ms", "hits",
                              "misses", "evictions", "batches",
                              "sim_rounds_p50", "sim_rounds_p99"}) {
        require(*serve, key, Value::Type::kNumber, "bench.serve");
      }
    }
    // dyncg_load embeds the server's end-of-run metrics registry; it must
    // itself be a valid snapshot (its deterministic entries are gated).
    const Value* m = require(doc, "metrics", Value::Type::kObject, "bench");
    if (m != nullptr) check_metrics(*m);
  }
  const Value* tables = require(doc, "tables", Value::Type::kArray, "bench");
  if (tables == nullptr) return;
  if (tables->array.empty()) fail("bench: tables is empty");
  std::size_t ti = 0;
  for (const Value& t : tables->array) {
    std::string where = "tables[" + std::to_string(ti++) + "]";
    if (!t.is_object()) {
      fail(where + " is not an object");
      continue;
    }
    require(t, "title", Value::Type::kString, where);
    const Value* rows = require(t, "rows", Value::Type::kArray, where);
    if (rows == nullptr) continue;
    std::size_t ri = 0;
    for (const Value& r : rows->array) {
      std::string rwhere = where + ".rows[" + std::to_string(ri++) + "]";
      if (!r.is_object()) {
        fail(rwhere + " is not an object");
        continue;
      }
      require(r, "problem", Value::Type::kString, rwhere);
      require(r, "claim", Value::Type::kString, rwhere);
      require(r, "slope", Value::Type::kNumber, rwhere);
      const Value* pts = require(r, "points", Value::Type::kArray, rwhere);
      if (pts == nullptr) continue;
      std::size_t pi = 0;
      for (const Value& p : pts->array) {
        std::string pwhere = rwhere + ".points[" + std::to_string(pi++) + "]";
        if (!p.is_object()) {
          fail(pwhere + " is not an object");
          continue;
        }
        require(p, "n", Value::Type::kNumber, pwhere);
        require(p, "rounds", Value::Type::kNumber, pwhere);
      }
    }
  }
}

// Metrics registry snapshot (docs/OBSERVABILITY.md#metrics): shared entry
// prefix, then per-kind payload.  Returns true when the entry's stability
// field says "deterministic" (the caller may not care).
bool check_metric_entry(const Value& e, const std::string& where) {
  require(e, "name", Value::Type::kString, where);
  require(e, "help", Value::Type::kString, where);
  bool deterministic = false;
  const Value* stability =
      require(e, "stability", Value::Type::kString, where);
  if (stability != nullptr) {
    if (stability->string != "deterministic" &&
        stability->string != "host-noisy") {
      fail(where + ": stability is neither \"deterministic\" nor "
                   "\"host-noisy\"");
    }
    deterministic = stability->string == "deterministic";
  }
  return deterministic;
}

void check_metrics(const Value& doc) {
  if (!doc.is_object()) {
    fail("top level is not an object");
    return;
  }
  const Value* version =
      require(doc, "schema_version", Value::Type::kNumber, "metrics");
  if (version != nullptr && version->number != 1) {
    fail("metrics: schema_version is not 1");
  }
  const Value* kind = require(doc, "kind", Value::Type::kString, "metrics");
  if (kind != nullptr && kind->string != "dyncg-metrics") {
    fail("metrics: kind is not \"dyncg-metrics\"");
  }
  for (const char* section : {"counters", "gauges"}) {
    const Value* arr = require(doc, section, Value::Type::kArray, "metrics");
    if (arr == nullptr) continue;
    std::string prev;
    std::size_t i = 0;
    for (const Value& e : arr->array) {
      std::string where =
          std::string(section) + "[" + std::to_string(i++) + "]";
      if (!e.is_object()) {
        fail(where + " is not an object");
        continue;
      }
      check_metric_entry(e, where);
      require(e, "value", Value::Type::kNumber, where);
      if (const Value* name = e.find("name")) {
        if (name->is_string()) {
          if (!prev.empty() && !(prev < name->string)) {
            fail(where + ": names are not strictly ascending");
          }
          prev = name->string;
        }
      }
    }
  }
  const Value* hists =
      require(doc, "histograms", Value::Type::kArray, "metrics");
  if (hists == nullptr) return;
  std::string prev;
  std::size_t i = 0;
  for (const Value& e : hists->array) {
    std::string where = "histograms[" + std::to_string(i++) + "]";
    if (!e.is_object()) {
      fail(where + " is not an object");
      continue;
    }
    check_metric_entry(e, where);
    const Value* bounds = require(e, "bounds", Value::Type::kArray, where);
    const Value* buckets = require(e, "buckets", Value::Type::kArray, where);
    require(e, "sum", Value::Type::kNumber, where);
    const Value* count = require(e, "count", Value::Type::kNumber, where);
    if (bounds != nullptr) {
      double last = -1;
      for (const Value& b : bounds->array) {
        if (!b.is_number() || b.number <= last) {
          fail(where + ": bounds are not strictly ascending numbers");
          break;
        }
        last = b.number;
      }
      if (bounds->array.empty()) fail(where + ": bounds is empty");
    }
    if (bounds != nullptr && buckets != nullptr) {
      if (buckets->array.size() != bounds->array.size() + 1) {
        fail(where + ": buckets.size() != bounds.size() + 1 (overflow)");
      }
      double total = 0;
      bool numeric = true;
      for (const Value& b : buckets->array) {
        if (!b.is_number()) {
          numeric = false;
          break;
        }
        total += b.number;
      }
      if (!numeric) {
        fail(where + ": buckets holds a non-number");
      } else if (count != nullptr && count->number != total) {
        fail(where + ": count != sum of buckets");
      }
    }
    if (const Value* name = e.find("name")) {
      if (name->is_string()) {
        if (!prev.empty() && !(prev < name->string)) {
          fail(where + ": names are not strictly ascending");
        }
        prev = name->string;
      }
    }
  }
}

// --metrics-deterministic: one canonical (json::dump) line per entry whose
// stability is "deterministic", prefixed with its kind.  Two runs of the
// same request script must produce byte-identical output here no matter
// the thread count — the serve_metrics.sh fixture diffs exactly that.
void print_deterministic(const Value& doc) {
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
      std::printf("%s %s\n", section, dyncg::json::dump(e).c_str());
    }
  }
}

// One dyncg_serve request line: run it through the server's own parser, so
// this check accepts exactly what the daemon accepts — never a lookalike
// schema that can drift.
void check_serve_request(const std::string& line, std::size_t lineno) {
  dyncg::StatusOr<dyncg::serve::Request> req =
      dyncg::serve::parse_request(line);
  if (!req.is_ok()) {
    fail("line " + std::to_string(lineno) + ": " +
         req.status().to_string());
  }
}

// One dyncg_serve response line (docs/SERVING.md#responses).
void check_serve_response(const Value& doc, std::size_t lineno) {
  std::string where = "line " + std::to_string(lineno);
  if (!doc.is_object()) {
    fail(where + " is not an object");
    return;
  }
  const Value* status = require(doc, "status", Value::Type::kString, where);
  if (status == nullptr) return;
  if (status->string != "OK") {
    require(doc, "error", Value::Type::kString, where);
    return;
  }
  const Value* op = require(doc, "op", Value::Type::kString, where);
  if (op == nullptr) return;
  if (op->string == "ping") {
    require(doc, "result", Value::Type::kString, where);
    return;
  }
  if (op->string == "stats") {
    const Value* stats = require(doc, "stats", Value::Type::kObject, where);
    if (stats != nullptr) {
      const Value* version = require(*stats, "schema_version",
                                     Value::Type::kNumber, where + ".stats");
      if (version != nullptr &&
          version->number !=
              static_cast<double>(dyncg::serve::kServeSchemaVersion)) {
        fail(where + ".stats: schema_version mismatch");
      }
      require(*stats, "git_rev", Value::Type::kString, where + ".stats");
      require(*stats, "uptime_seconds", Value::Type::kNumber,
              where + ".stats");
      for (const char* key :
           {"connections", "requests", "errors", "rejected", "shed",
            "deadline_exceeded", "batches", "hits", "misses", "evictions",
            "entries", "fleets"}) {
        require(*stats, key, Value::Type::kNumber, where + ".stats");
      }
    }
    return;
  }
  if (op->string == "metrics") {
    const Value* m = require(doc, "metrics", Value::Type::kObject, where);
    if (m != nullptr) check_metrics(*m);
    return;
  }
  if (op->string == "flush_trace") {
    require(doc, "spans", Value::Type::kNumber, where);
    require(doc, "path", Value::Type::kString, where);
    return;
  }
  if (op->string == "fleet_open" || op->string == "fleet_update" ||
      op->string == "fleet_query" || op->string == "fleet_close") {
    // Stateful fleet-session responses (docs/SERVING.md#fleet-sessions):
    // no cache/machine members; t and next_event are %.17g strings so the
    // session time round-trips exactly (and "inf" stays representable).
    require(doc, "fleet", Value::Type::kString, where);
    if (op->string == "fleet_open") {
      for (const char* k : {"d", "k", "max_members"}) {
        require(doc, k, Value::Type::kNumber, where);
      }
      require(doc, "result", Value::Type::kString, where);
      return;
    }
    require(doc, "members", Value::Type::kNumber, where);
    if (op->string == "fleet_close") {
      require(doc, "result", Value::Type::kString, where);
      return;
    }
    require(doc, "t", Value::Type::kString, where);
    require(doc, "next_event", Value::Type::kString, where);
    const Value* fcost = require(doc, "cost", Value::Type::kObject, where);
    if (fcost != nullptr) {
      check_cost_args(*fcost, where + ".cost");
      require(*fcost, "time", Value::Type::kNumber, where + ".cost");
    }
    if (op->string == "fleet_update") {
      for (const char* k : {"inserted", "deduped", "erased"}) {
        require(doc, k, Value::Type::kNumber, where);
      }
      return;
    }
    const Value* fkey = require(doc, "key", Value::Type::kString, where);
    if (fkey != nullptr && fkey->string.size() != 16) {
      fail(where + ": key is not a 16-hex-digit fingerprint");
    }
    require(doc, "result", Value::Type::kString, where);
    return;
  }
  const Value* cache = require(doc, "cache", Value::Type::kString, where);
  if (cache != nullptr && cache->string != "hit" &&
      cache->string != "miss") {
    fail(where + ": cache is neither \"hit\" nor \"miss\"");
  }
  const Value* key = require(doc, "key", Value::Type::kString, where);
  if (key != nullptr && key->string.size() != 16) {
    fail(where + ": key is not a 16-hex-digit fingerprint");
  }
  const Value* machine = require(doc, "machine", Value::Type::kObject, where);
  if (machine != nullptr) {
    require(*machine, "topology", Value::Type::kString, where + ".machine");
    require(*machine, "pes", Value::Type::kNumber, where + ".machine");
  }
  const Value* cost = require(doc, "cost", Value::Type::kObject, where);
  if (cost != nullptr) {
    check_cost_args(*cost, where + ".cost");
    require(*cost, "time", Value::Type::kNumber, where + ".cost");
  }
  require(doc, "result", Value::Type::kString, where);
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
               "usage: dyncg_json_check --trace|--jsonl|--bench|"
               "--serve-request|--serve-response|--metrics|"
               "--metrics-deterministic FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return usage();
  const std::string mode = argv[1];
  g_file = argv[2];
  std::string text;
  if (!read_file(argv[2], &text)) {
    std::fprintf(stderr, "%s: cannot read\n", argv[2]);
    return 1;
  }

  if (mode == "--jsonl" || mode == "--serve-request" ||
      mode == "--serve-response") {
    std::istringstream lines(text);
    std::string line;
    std::size_t lineno = 0;
    std::size_t parsed = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (line.empty()) continue;
      if (mode == "--serve-request") {
        check_serve_request(line, lineno);
        ++parsed;
        continue;
      }
      Value v;
      std::string err;
      if (!dyncg::json::parse(line, &v, &err)) {
        fail("line " + std::to_string(lineno) + ": " + err);
        continue;
      }
      if (mode == "--serve-response") {
        check_serve_response(v, lineno);
      } else {
        check_jsonl_line(v, lineno);
      }
      ++parsed;
    }
    if (parsed == 0) fail("no records");
  } else if (mode == "--trace" || mode == "--bench" || mode == "--metrics" ||
             mode == "--metrics-deterministic") {
    Value v;
    std::string err;
    if (!dyncg::json::parse(text, &v, &err)) {
      fail("parse error: " + err);
    } else if (mode == "--trace") {
      check_trace(v);
    } else if (mode == "--bench") {
      check_bench(v);
    } else {
      check_metrics(v);
      // The deterministic dump IS the output — no trailing "ok" line, so
      // two runs' outputs can be diffed byte-for-byte.
      if (mode == "--metrics-deterministic" && g_ok) {
        print_deterministic(v);
        return 0;
      }
    }
  } else {
    return usage();
  }

  if (g_ok) std::printf("%s: ok\n", g_file);
  return g_ok ? 0 : 1;
}
