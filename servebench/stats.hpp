#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// Percentiles, the metric name tables BENCHMARK.json mirrors, and the
// result line.
namespace servebench {

// Nearest-rank percentile: the ceil(p * n)-th smallest sample (p in (0, 1]).
// Sorts `v` in place; 0 for an empty sample.  +inf samples (failed
// requests) sort last, so they count as missing any latency limit.
double percentile(std::vector<double>& v, double p);
// Samples strictly above the nearest-rank p-percentile position.
std::size_t samples_beyond(std::size_t n, double p);

struct MetricSpec {
  const char* name;
  const char* unit;
};
// Reported with --trace 0, in this order.  Two more end-to-end figures are
// printed but kept out of the result line: error_rate, because the line
// carries only metrics that are never 0 (failures travel in "failed" and
// "attempted"), and latency_p99_ms, because on a shared host its run-to-run
// spread exceeds the largest bound a gated metric may have (README.md).
const std::vector<MetricSpec>& end_to_end_metrics();
// One human-readable metric line: name, value, unit and a note.
void print_metric(const std::string& name, double value, const char* unit,
                  const std::string& note);
// Reported with --trace 1.
const std::vector<MetricSpec>& per_layer_metrics();
// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 characters.
bool valid_metric_name(const std::string& name);

// Collects one run's metrics.  Every add() also prints a human-readable line
// with the unit and a note (sample counts, bases, probe markers); the result
// line carries exactly the names of `expected`, or the run fails.
class Report {
 public:
  explicit Report(const std::vector<MetricSpec>* expected)
      : expected_(expected) {}
  void add(const std::string& name, double value, const std::string& note);
  // The last stdout line of the benchmark; "" (and a message on stderr)
  // when a metric of the table is missing, duplicated or unknown.
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
  };
  const std::vector<MetricSpec>* expected_;
  std::vector<Entry> entries_;
};

}  // namespace servebench
