#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

// The traced run's in-process half: replays a seeded request stream through
// each layer's public entry points — serve::parse_request, ResultCache,
// serve::run_query, the machine constructors and Section 4/5 algorithms the
// engine calls, render_*, FleetRegistry::handle, and a standalone
// DynamicEnvelope fed the same fleet updates — with nothing inside the
// program changed.
//
// Each call is wrapped in a trace::Span recorded by this code, and
// trace::enable() also turns on the spans the program already has
// (serve.query, dyncg.*, envelope.*, ops.*, fault.recover, steady.*), so a
// span tree gives every layer's self time.  The replay runs on fresh state
// once untraced, for per-call host times and exact counts, then traced and
// untraced in lockstep, for self times and the tracing overhead.  Host
// threads are pinned to 1 so self times partition the wall time.
namespace servebench {

struct ReplayResult {
  std::size_t items = 0;  // replayed (timed) requests
  // Per-call host microseconds by layer key, from the first pass:
  // parse, render, cache.find, engine.<op>, machine.build, dyncg.<op>,
  // fleet.update, fleet.query, dynenv.{insert,erase,advance,query}.
  std::map<std::string, std::vector<double>> us;
  // Traced pass: self time and call count per span name ("#tag" stripped).
  struct SpanSelf {
    std::uint64_t count = 0;
    double self_ns = 0.0;
  };
  std::map<std::string, SpanSelf> spans;
  double traced_s = 0.0;    // summed per-item wall time, traced pass
  double untraced_s = 0.0;  // the same items, untraced, in lockstep
  // Exact counts from the first pass (deterministic for a fixed stream).
  std::uint64_t sim_messages = 0;   // simulated messages of served work
  std::uint64_t horner_elems = 0;   // kernels.horner.elements delta
  std::uint64_t compare_elems = 0;  // kernels.compare.elements delta
  std::uint64_t fault_retries = 0;
  std::uint64_t fault_detour_rounds = 0;
  std::uint64_t algo_rounds = 0;  // simulated rounds of the algorithm calls
  double algo_ns = 0.0;           // host ns of the same calls
  std::uint64_t dynenv_updates = 0;
  std::uint64_t dynenv_recombines = 0;
  // Empty when every re-rendered response matched and no call failed.
  std::string error;
};

// `setup` lines run first, untimed, on each pass's fresh state (cache warm-up,
// fleet open + fill); `items` are replayed and measured.
ReplayResult replay(const std::vector<std::string>& setup,
                    const std::vector<Item>& items);

// kernels::horner_many on degree-4 polynomials (the score/distance shape of
// every workload: d = 2, k = 2) in batches of 64; median ns per element of
// five timed repetitions.
double horner_ns_per_elem();

}  // namespace servebench
