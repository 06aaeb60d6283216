#include "machine/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/json.hpp"

namespace dyncg {

std::uint64_t FabricTelemetry::busiest_link() const {
  if (link_messages.empty()) return 0;
  return static_cast<std::uint64_t>(
      std::max_element(link_messages.begin(), link_messages.end()) -
      link_messages.begin());
}

std::uint64_t FabricTelemetry::max_link_messages() const {
  if (link_messages.empty()) return 0;
  return *std::max_element(link_messages.begin(), link_messages.end());
}

double FabricTelemetry::mean_link_messages() const {
  if (link_messages.empty()) return 0.0;
  std::uint64_t sum = 0;
  for (std::uint64_t c : link_messages) sum += c;
  return static_cast<double>(sum) / static_cast<double>(link_messages.size());
}

std::string FabricTelemetry::report() const {
  std::ostringstream os;
  os << "fabric: " << messages << " words over " << rounds << " rounds, "
     << link_messages.size() << " directed links";
  if (!link_messages.empty()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " (link load mean %.2f, max %llu)",
                  mean_link_messages(),
                  static_cast<unsigned long long>(max_link_messages()));
    os << buf;
  }
  os << "\n  in-flight/round histogram: max " << max_in_flight << "\n";
  for (std::size_t b = 0; b < round_histogram.size(); ++b) {
    if (round_histogram[b] == 0) continue;
    std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
    std::uint64_t hi = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    os << "    [" << lo << ".." << hi << "] words: " << round_histogram[b]
       << " rounds\n";
  }
  if (faults_encountered() > 0 || fault_retries > 0 || fault_remaps > 0) {
    os << "  faults: " << fault_link_down_hits << " link-down, "
       << fault_pe_down_hits << " pe-down, " << fault_words_dropped
       << " dropped; " << fault_retries << " retries, " << fault_remaps
       << " remaps, " << fault_detour_rounds << " detour rounds\n";
  }
  return os.str();
}

std::string FabricTelemetry::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("rounds");
  w.value(rounds);
  w.key("messages");
  w.value(messages);
  w.key("max_in_flight");
  w.value(max_in_flight);
  w.key("links");
  w.value(std::uint64_t{link_messages.size()});
  w.key("link_load_mean");
  w.value(mean_link_messages());
  w.key("link_load_max");
  w.value(max_link_messages());
  w.key("busiest_link");
  w.value(busiest_link());
  w.key("round_histogram");
  w.begin_array();
  for (std::uint64_t c : round_histogram) w.value(c);
  w.end_array();
  w.key("faults");
  w.begin_object();
  w.key("link_down_hits");
  w.value(fault_link_down_hits);
  w.key("pe_down_hits");
  w.value(fault_pe_down_hits);
  w.key("words_dropped");
  w.value(fault_words_dropped);
  w.key("retries");
  w.value(fault_retries);
  w.key("detour_rounds");
  w.value(fault_detour_rounds);
  w.key("remaps");
  w.value(fault_remaps);
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace dyncg
