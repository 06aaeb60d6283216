#pragma once

#include <cstdint>
#include <string>
#include <vector>

// Machine-level observability: fabric link utilisation and fault counters.
//
// The ledger answers "how much" and trace spans answer "where in the
// algorithm" (support/trace.hpp); this module adds the Layer A view: which
// physical links a hop-by-hop replay actually loaded, how congested the
// rounds were, and what fault recovery paid.  Everything here is plain
// counters — no locking, no global state — so a FabricTelemetry can be
// attached to any Fabric (they are per-machine objects, driven from one
// thread), and one rides inside each Machine.  See docs/OBSERVABILITY.md for
// the JSON schema.
namespace dyncg {

// Counters for one Fabric run (Layer A, hop-by-hop).  Attach with
// Fabric::set_telemetry(&machine.telemetry()); every send() bumps the
// directed link's counter and every deliver() records the round's in-flight
// load.
struct FabricTelemetry {
  std::uint64_t rounds = 0;         // deliver() calls observed
  std::uint64_t messages = 0;       // total words moved
  std::uint64_t max_in_flight = 0;  // max words delivered in one round
  // Per-directed-link word counts, indexed by the fabric's CSR link index
  // (sorted neighbors per node, nodes ascending).
  std::vector<std::uint64_t> link_messages;
  // Congestion histogram over rounds: bucket 0 counts empty rounds, bucket
  // b >= 1 counts rounds that moved m words with floor(log2(m)) == b - 1
  // (i.e. m in [2^(b-1), 2^b)).
  std::vector<std::uint64_t> round_histogram;

  // Fault handling (machine/faults.hpp): injected events encountered and
  // what the reroute-and-retry path paid to absorb them.  Bumped by the
  // fault-aware Fabric delivery, the hop-by-hop reference router, and the
  // Machine's analytic detour charges.
  std::uint64_t fault_link_down_hits = 0;  // sends that met a downed link
  std::uint64_t fault_pe_down_hits = 0;    // words that met a downed PE
  std::uint64_t fault_words_dropped = 0;   // in-flight words lost
  std::uint64_t fault_retries = 0;         // retransmissions / waits
  std::uint64_t fault_detour_rounds = 0;   // extra rounds paid for reroutes
  std::uint64_t fault_remaps = 0;          // logical-to-physical PE remaps

  std::uint64_t faults_encountered() const {
    return fault_link_down_hits + fault_pe_down_hits + fault_words_dropped;
  }

  void reset(std::size_t links) {
    *this = FabricTelemetry{};
    link_messages.assign(links, 0);
  }

  // Record paths, called by Fabric.
  void record_send(std::size_t link) {
    if (link < link_messages.size()) ++link_messages[link];
  }
  void record_round(std::uint64_t moved) {
    ++rounds;
    messages += moved;
    if (moved > max_in_flight) max_in_flight = moved;
    std::size_t bucket = 0;
    while ((std::uint64_t{1} << bucket) <= moved) ++bucket;  // 0 -> 0, m -> floor(log2 m)+1
    if (round_histogram.size() <= bucket) round_histogram.resize(bucket + 1, 0);
    ++round_histogram[bucket];
  }

  std::uint64_t busiest_link() const;        // index of the max-count link
  std::uint64_t max_link_messages() const;   // its count (0 when unused)
  double mean_link_messages() const;         // over all links

  // Human-readable congestion summary (one line per histogram bucket).
  std::string report() const;
  std::string to_json() const;
};

}  // namespace dyncg
