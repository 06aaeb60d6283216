// Tests of the benchmark's own plumbing: generator determinism, percentile
// arithmetic, and the metric names against BENCHMARK.json.  Exit 0 when all
// pass; each failure prints one line.
//
//   .bench_build/servebench_test [path/to/BENCHMARK.json]
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "stats.hpp"
#include "support/json.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

// The first `n` lines of every connection's timed stream, fleet fill
// included — exactly what the daemon would receive.
std::vector<std::string> lines(Workload w, std::uint64_t seed, std::size_t n) {
  std::vector<std::string> out;
  HotPool pool(seed);
  for (std::size_t conn = 0; conn < 3; ++conn) {
    std::function<Item()> next;
    std::shared_ptr<FleetStream> fleet;
    std::shared_ptr<ColdMixStream> cold;
    std::shared_ptr<HotStream> hot;
    switch (w) {
      case Workload::kColdMix:
        cold = std::make_shared<ColdMixStream>(seed, conn);
        next = [cold] { return cold->next(); };
        break;
      case Workload::kHotRepeat:
        for (std::size_t r = 0; r < pool.size(); ++r) out.push_back(pool.line(r));
        hot = std::make_shared<HotStream>(seed, conn, &pool);
        next = [hot] { return hot->next(); };
        break;
      case Workload::kFleetChurn:
        fleet = std::make_shared<FleetStream>(seed, conn);
        fleet->set_fleet("fleet-" + std::to_string(conn + 1));
        for (std::string& l : fleet->fill_lines()) out.push_back(l);
        next = [fleet] { return fleet->next(); };
        break;
    }
    for (std::size_t i = 0; i < n; ++i) out.push_back(next().line);
  }
  return out;
}

void test_generators() {
  for (Workload w :
       {Workload::kColdMix, Workload::kHotRepeat, Workload::kFleetChurn}) {
    const std::string name = workload_name(w);
    const std::vector<std::string> a = lines(w, 1, 300);
    expect(a == lines(w, 1, 300), name + ": same seed, same lines");
    expect(a != lines(w, 2, 300), name + ": another seed, other lines");
    // Every generated line is a request the server accepts.
    std::size_t rejected = 0;
    for (const std::string& l : a) {
      rejected += !dyncg::serve::parse_request(l).is_ok();
    }
    expect(rejected == 0, name + ": " + std::to_string(rejected) +
                              " generated lines fail to parse");
  }
  // cold_mix: every scenario seed fresh, so the cache never hits.
  const std::vector<std::string> cold = lines(Workload::kColdMix, 7, 400);
  std::set<std::string> keys;
  for (const std::string& l : cold) {
    keys.insert(dyncg::serve::parse_request(l).value().key);
  }
  expect(keys.size() == cold.size(), "cold_mix: every request is distinct");
  // hot_repeat: one request in 20 is fresh; lines span ~1-30 KB.
  HotPool pool(3);
  std::size_t lo = ~std::size_t{0}, hi = 0;
  for (std::size_t r = 0; r < pool.size(); ++r) {
    lo = std::min(lo, pool.line(r).size());
    hi = std::max(hi, pool.line(r).size());
  }
  expect(lo >= 700 && lo <= 2000 && hi >= 20000 && hi <= 40000,
         "hot_repeat: pool lines span ~1-30 KB (got " + std::to_string(lo) +
             ".." + std::to_string(hi) + ")");
  std::set<std::string> pool_lines;
  for (std::size_t r = 0; r < pool.size(); ++r) pool_lines.insert(pool.line(r));
  HotStream hot(3, 0, &pool);
  std::set<std::string> fresh;
  std::size_t rank0 = 0;
  for (int i = 0; i < 20000; ++i) {
    Item it = hot.next();
    rank0 += it.line == pool.line(0);
    if (!pool_lines.count(it.line)) fresh.insert(it.line);
  }
  expect(fresh.size() == 1000, "hot_repeat: one request in 20 is fresh (got " +
                                   std::to_string(fresh.size()) + ")");
  // Zipf(1.0) over 256: the head rank has probability 1/H(256) ~ 0.163.
  const double share = static_cast<double>(rank0) / 19000.0;
  expect(share > 0.14 && share < 0.19,
         "hot_repeat: Zipf head share " + std::to_string(share));
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 0.50) == 50, "p50 of 1..100 is 50");
  expect(percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  std::vector<double> w = {5, 1, 3};
  expect(percentile(w, 0.50) == 3, "p50 of {1,3,5} is 3");
  expect(percentile(w, 0.99) == 5, "p99 of {1,3,5} is 5");
  std::vector<double> one = {7};
  expect(percentile(one, 0.99) == 7, "p99 of one sample is that sample");
  std::vector<double> inf = {1, 2, 1.0 / 0.0};
  expect(percentile(inf, 0.99) > 1e300, "a failed request is +inf");
  expect(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
}

void test_metric_names(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  dyncg::json::Value doc;
  if (!dyncg::json::parse(ss.str(), &doc) || !doc.is_object()) {
    expect(false, "cannot parse " + path);
    return;
  }
  auto check = [&](const char* section, const std::vector<MetricSpec>& want) {
    const dyncg::json::Value* list = doc.find(section);
    std::set<std::string> in_json, in_code;
    if (list == nullptr || !list->is_array()) {
      expect(false, std::string(section) + " missing from BENCHMARK.json");
      return;
    }
    for (const dyncg::json::Value& m : list->array) {
      const dyncg::json::Value* name = m.find("name");
      const dyncg::json::Value* unit = m.find("unit");
      if (name == nullptr || unit == nullptr) {
        expect(false, std::string(section) + ": entry without name/unit");
        continue;
      }
      in_json.insert(name->string + " [" + unit->string + "]");
    }
    for (const MetricSpec& m : want) {
      expect(valid_metric_name(m.name), std::string("bad name ") + m.name);
      in_code.insert(std::string(m.name) + " [" + m.unit + "]");
    }
    for (const std::string& n : in_code) {
      expect(in_json.count(n) == 1, std::string(section) + ": printed " + n +
                                        " is not in BENCHMARK.json");
    }
    for (const std::string& n : in_json) {
      expect(in_code.count(n) == 1, std::string(section) + ": " + n +
                                        " in BENCHMARK.json is never printed");
    }
  };
  check("end_to_end", end_to_end_metrics());
  check("per_layer", per_layer_metrics());
  std::set<std::string> workloads;
  if (const dyncg::json::Value* ws = doc.find("workloads")) {
    for (const dyncg::json::Value& w : ws->array) {
      if (const dyncg::json::Value* n = w.find("name")) workloads.insert(n->string);
    }
  }
  for (const char* w : {"cold_mix", "hot_repeat", "fleet_churn"}) {
    expect(workloads.count(w) == 1, std::string("workload ") + w +
                                        " missing from BENCHMARK.json");
  }
}

}  // namespace

int main(int argc, char** argv) {
  test_generators();
  test_percentiles();
  test_metric_names(argc > 1 ? argv[1] : SERVEBENCH_JSON_PATH);
  std::printf("servebench_test: %s (%d failures)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
