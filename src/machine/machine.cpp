#include "machine/machine.hpp"

#include <cstdio>
#include <sstream>

#include "support/assert.hpp"
#include "support/trace.hpp"

namespace dyncg {

// Charging rules (docs/ROBUSTNESS.md).  The window [r0, r1) is the span of
// ledger rounds the just-charged pattern occupies; an event whose fault
// window overlaps it was "live" while the pattern ran and must be paid for:
//
//   link-down: every word crossing the link takes the shortest live detour
//     instead — the pattern stretches by the detour's extra hops.  A link
//     whose loss partitions the machine is unrecoverable.
//   pe-down:   the first pattern that meets the event pays a one-time state
//     migration (the downed PE's registers walk to the spare, one hop per
//     round), and every overlapping pattern pays the same distance again as
//     dilation, because words addressed to the displaced logical rank
//     travel the extra leg to the spare.  A machine with no live spare is
//     unrecoverable.
//   word-drop: the sender times out and retransmits: two extra rounds.
//
// All penalties land on the ledger under a "fault.recover" trace span and
// are mirrored into the telemetry's fault counters and the process-global
// counters that feed the bench reports.
void Machine::apply_fault_penalty(std::uint64_t r0, std::uint64_t r1) {
  TRACE_SPAN_COST("fault.recover", ledger_);
  const std::vector<FaultEvent>& events = faults_->events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (!e.overlaps(r0, r1)) continue;
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown: {
        std::uint64_t round = e.from_round > r0 ? e.from_round : r0;
        // Cached detour: same result as detour_extra_rounds, but the BFS
        // reruns only when the active fault set changes.
        const std::vector<std::size_t>& path =
            route_cache_.route(*topo_, e.a, e.b, round);
        if (path.empty()) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "unrecoverable fault: downed link %zu-%zu partitions "
                        "the machine (pattern rounds %llu..%llu)",
                        e.a, e.b, static_cast<unsigned long long>(r0),
                        static_cast<unsigned long long>(r1));
          unrecoverable(buf);
          break;
        }
        std::size_t extra = path.size() - 2;
        ledger_.add_rounds(extra);
        ++telemetry_.fault_link_down_hits;
        telemetry_.fault_detour_rounds += extra;
        faults_global::count_link_down_hit();
        faults_global::count_detour_rounds(extra);
        break;
      }
      case FaultEvent::Kind::kPeDown: {
        std::uint64_t round = e.from_round > r0 ? e.from_round : r0;
        std::size_t spare = remap_spare(*topo_, *faults_, e.a, round);
        if (spare == kUnreachable) {
          unrecoverable(
              "unrecoverable fault: every PE is down, no spare to remap onto");
          break;
        }
        std::uint64_t dist = topo_->shortest_path(e.a, spare);
        if (!remapped_events_[i]) {
          // One-time migration: the downed PE's register state walks to
          // the spare, one hop per round.
          remapped_events_[i] = true;
          ledger_.add_rounds(dist);
          ledger_.add_messages(dist);
          ++telemetry_.fault_remaps;
          faults_global::count_remap();
        }
        // Dilation: words for the displaced rank travel the extra leg.
        ledger_.add_rounds(dist);
        ++telemetry_.fault_pe_down_hits;
        telemetry_.fault_detour_rounds += dist;
        faults_global::count_pe_down_hit();
        faults_global::count_detour_rounds(dist);
        break;
      }
      case FaultEvent::Kind::kWordDrop: {
        // Timeout plus retransmission.
        ledger_.add_rounds(2);
        ledger_.add_messages(1);
        ++telemetry_.fault_words_dropped;
        ++telemetry_.fault_retries;
        faults_global::count_word_dropped();
        faults_global::count_retry();
        break;
      }
    }
  }
}

void Machine::unrecoverable(const char* what) {
  DYNCG_ASSERT(record_unrecoverable_, what);
  if (fault_status_.is_ok()) fault_status_ = Status::unrecoverable(what);
}

std::string Machine::fault_report() const {
  std::ostringstream os;
  if (faults_ == nullptr) {
    os << "fault report: no faults injected\n";
    return os.str();
  }
  os << "fault report: plan \"" << faults_->to_string() << "\" ("
     << faults_->events().size() << " events)\n";
  os << "  link-down hits:  " << telemetry_.fault_link_down_hits << "\n";
  os << "  pe-down hits:    " << telemetry_.fault_pe_down_hits << "\n";
  os << "  words dropped:   " << telemetry_.fault_words_dropped << "\n";
  os << "  retries:         " << telemetry_.fault_retries << "\n";
  os << "  detour rounds:   " << telemetry_.fault_detour_rounds << "\n";
  os << "  remaps:          " << telemetry_.fault_remaps << "\n";
  return os.str();
}

}  // namespace dyncg
