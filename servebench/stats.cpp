#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>

#include "support/json.hpp"

namespace servebench {

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"throughput_rps", "req/s"}, {"latency_p50_ms", "ms"},
      {"setup_s", "s"},            {"server_rss_mb", "MiB"},
      {"sim_rounds_per_req", "rounds"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"wire.ping_rtt_us", "us"},
      {"wire.req_bytes_mean", "bytes"},
      {"wire.resp_bytes_mean", "bytes"},
      {"protocol.parse_us", "us"},
      {"protocol.render_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.lookup_us", "us"},
      {"cache.evictions", "count"},
      {"sched.batch_size_mean", "req/batch"},
      {"sched.batches_per_req", "batch/req"},
      {"engine.query_ms.neighbor", "ms"},
      {"engine.query_ms.pairs", "ms"},
      {"engine.query_ms.collisions", "ms"},
      {"engine.query_ms.hullwhen", "ms"},
      {"engine.query_ms.contain", "ms"},
      {"engine.query_ms.steady", "ms"},
      {"engine.server_query_ms_mean", "ms"},
      {"machine.build_us", "us"},
      {"machine.ns_per_sim_round", "ns/round"},
      {"machine.sim_messages_per_req", "msg/req"},
      {"machine.fault_retries_per_req", "count/req"},
      {"machine.fault_detour_rounds_per_req", "rounds/req"},
      {"dyncg.algo_ms.neighbor", "ms"},
      {"dyncg.algo_ms.pairs", "ms"},
      {"dyncg.algo_ms.collisions", "ms"},
      {"dyncg.algo_ms.hullwhen", "ms"},
      {"dyncg.algo_ms.contain", "ms"},
      {"dyncg.algo_ms.steady", "ms"},
      {"envelope.parallel_self_ms", "ms/req"},
      {"ops.self_ms", "ms/req"},
      {"fault.recover_self_ms", "ms/req"},
      {"dynenv.insert_us", "us"},
      {"dynenv.erase_us", "us"},
      {"dynenv.advance_us", "us"},
      {"dynenv.query_us", "us"},
      {"dynenv.recombines_per_update", "count/update"},
      {"fleet.handle_us.update", "us"},
      {"fleet.handle_us.query", "us"},
      {"kernels.horner_elems_per_req", "elems/req"},
      {"kernels.compare_elems_per_req", "elems/req"},
      {"kernels.horner_ns_per_elem", "ns/elem"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note) {
  std::printf("  %-36s %14.6g %-12s %s\n", name.c_str(), value, unit,
              note.c_str());
}

void Report::add(const std::string& name, double value,
                 const std::string& note) {
  const char* unit = "?";
  for (const MetricSpec& m : *expected_) {
    if (name == m.name) unit = m.unit;
  }
  print_metric(name, value, unit, note);
  entries_.push_back(Entry{name, value});
}

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::set<std::string> want;
  for (const MetricSpec& m : *expected_) want.insert(m.name);
  std::set<std::string> got;
  for (const Entry& e : entries_) {
    if (!want.count(e.name) || !got.insert(e.name).second) {
      std::fprintf(stderr, "servebench: unexpected metric '%s'\n",
                   e.name.c_str());
      return "";
    }
  }
  if (got != want) {
    std::fprintf(stderr, "servebench: %zu of %zu metrics missing\n",
                 want.size() - got.size(), want.size());
    return "";
  }
  dyncg::json::Writer w;
  w.begin_object();
  w.key("correct");
  w.value(correct);
  w.key("attempted");
  w.value(attempted);
  w.key("failed");
  w.value(failed);
  w.key("metrics");
  w.begin_object();
  for (const MetricSpec& m : *expected_) {
    for (const Entry& e : entries_) {
      if (e.name != m.name) continue;
      w.key(e.name);
      w.begin_object();
      w.key("value");
      // A failed request makes a latency +inf; JSON has no infinity.
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(e.value) ? e.value : 1e12);
      w.value_raw(buf);
      w.key("unit");
      w.value(m.unit);
      w.end_object();
    }
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace servebench
