#include <cstddef>
#include <cstdint>
#include <string>

#include "envelope/scenario_key.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "support/status.hpp"

// libFuzzer harness for the serving wire protocol (docs/ROBUSTNESS.md
// #serving-resilience).  One input = one request line, exactly what a
// hostile client can put on the socket; the invariant under test is that
// parse_request, the engine and the error-rendering path never crash,
// never trip a sanitizer, and never loop — for ANY byte string.  Accepted
// requests also exercise the canonical-key machinery (system
// materialization, key rendering, fingerprinting), since that code runs on
// attacker-controlled input before any admission decision beyond the
// line-length cap.  The server's two stages must agree with parse_request:
// read_request accepts exactly the lines it accepts, with the same status
// otherwise, and finish_request gives the same key, fingerprint and
// system.  Accepted scenarios of at most kMaxEnginePoints points then run
// through run_query, fault plans included, so fuzzed lines reach the
// numeric core and must end in an answer or a Status; larger ones on the
// capped topologies (ccc, shuffle) go through the engine's admission.
//
// Build the fuzzer with Clang via -DDYNCG_FUZZ=ON; every build replays the
// committed seed corpus (tests/fuzz/corpus) through this same entry point
// as the fuzz_protocol_replay ctest — see fuzz_replay.cpp.

namespace {

std::string system_bytes(const dyncg::serve::Request& r) {
  std::string out;
  if (r.system.has_value()) dyncg::append_scenario_key(out, *r.system);
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string line(reinterpret_cast<const char*>(data), size);
  dyncg::StatusOr<dyncg::serve::Request> r =
      dyncg::serve::parse_request(line);
  dyncg::StatusOr<dyncg::serve::Request> read =
      dyncg::serve::read_request(line);
  if (read.is_ok() != r.is_ok()) __builtin_trap();
  if (!r.is_ok() && (read.status().code() != r.status().code() ||
                     read.status().message() != r.status().message())) {
    __builtin_trap();
  }
  if (r.is_ok()) {
    dyncg::serve::Request& stages = read.value();
    dyncg::serve::finish_request(&stages);
    const dyncg::serve::Request& req = r.value();
    if (stages.key != req.key || stages.fingerprint != req.fingerprint ||
        system_bytes(stages) != system_bytes(req)) {
      __builtin_trap();
    }
    // The key must be renderable and consistent with its fingerprint for
    // any accepted request (admin ops carry neither; fleet ops are stateful
    // session traffic and bypass the cache, so they carry no key either).
    if (!dyncg::serve::is_admin_op(req.op) &&
        !dyncg::serve::is_fleet_op(req.op) && req.key.empty()) {
      __builtin_trap();
    }
    volatile std::size_t sink = req.key.size() + req.id_json.size();
    (void)sink;
    // Small scenarios only, so one input stays fast enough to fuzz.
    constexpr std::size_t kMaxEnginePoints = 16;
    if (req.system.has_value() && req.system->size() <= kMaxEnginePoints) {
      dyncg::StatusOr<dyncg::serve::CachedResult> answer =
          dyncg::serve::run_query(req);
      if (answer.is_ok() && answer.value().text.empty()) __builtin_trap();
    } else if (req.system.has_value() &&
               (req.machine == "ccc" || req.machine == "shuffle")) {
      // Refused before anything is built when the machine would outgrow
      // the simulable limit; otherwise a machine of at most 4,096 PEs.
      (void)dyncg::serve::query_machine(req);
    }
  } else {
    // The rejection must render into a well-formed single-line response.
    std::string err = dyncg::serve::render_error("1", r.status());
    if (err.empty() || err.find('\n') != std::string::npos) __builtin_trap();
  }
  return 0;
}
