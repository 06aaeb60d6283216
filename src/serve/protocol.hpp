#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dyncg/motion.hpp"
#include "machine/cost.hpp"
#include "machine/faults.hpp"
#include "support/status.hpp"

// Wire protocol of dyncg_serve: line-delimited JSON over a stream socket.
//
// Each request is one JSON object on one line; each response is one JSON
// object on one line, in request order per connection.  The complete field
// reference lives in docs/SERVING.md; this header is the single
// implementation of both directions, shared by the server, the client and
// its oracles (serve/client.hpp), and the protocol tests, which pin each
// response's exact form — so the documented grammar and the accepted
// grammar cannot drift apart.
//
// Parsing is strict: unknown fields, wrong types, out-of-range values, and
// mixed scenario forms are errors, not warnings.  A rejected request costs
// the server one read of its line — no machine is ever built for it
// (admission control, docs/SERVING.md#admission).
namespace dyncg {
namespace serve {

enum class Op {
  kNeighbor,    // Theorem 4.1: nearest/farthest sequence for a query point
  kPairs,       // Section 6 ext.: closest/farthest pair sequence
  kCollisions,  // Theorem 4.2: collision times for a query point
  kHullwhen,    // Theorem 4.5: when is the query a hull vertex
  kContain,     // Theorem 4.6/4.8: containment intervals / smallest cube
  kSteady,      // Section 5: steady-state survey (generator scenarios only)
  kStats,       // server counters snapshot; no scenario
  kPing,        // liveness probe; no scenario
  kMetrics,     // admin: full metrics registry snapshot; no scenario
  kFlushTrace,  // admin: write-and-clear the trace buffer; no scenario
  kFleetOpen,   // stateful fleet session: create (server names it)
  kFleetUpdate, // batched inserts/erases + time advance on a session
  kFleetQuery,  // render the session's maintained envelope
  kFleetClose,  // destroy a session
};
const char* op_name(Op op);

// Every protocol op, in enum order.  `dyncg_serve --list-ops` prints these
// so tools/dyncg_doc_check.sh can verify docs/SERVING.md documents each.
inline constexpr Op kAllOps[] = {
    Op::kNeighbor,   Op::kPairs,       Op::kCollisions, Op::kHullwhen,
    Op::kContain,    Op::kSteady,      Op::kStats,      Op::kPing,
    Op::kMetrics,    Op::kFlushTrace,  Op::kFleetOpen,  Op::kFleetUpdate,
    Op::kFleetQuery, Op::kFleetClose,
};

// Version of the response surface, reported by the `stats` op.  Bumped when
// a response schema gains or reorders fields (docs/SERVING.md#versioning).
// v3 added the `shed` and `deadline_exceeded` stats counters; v4 added the
// fleet-session ops and the `fleets` stats counter.
inline constexpr std::uint64_t kServeSchemaVersion = 4;

// Ops that carry no scenario: liveness, stats, and admin requests.  They
// never reach the engine or the cache.
constexpr bool is_admin_op(Op op) {
  return op == Op::kPing || op == Op::kStats || op == Op::kMetrics ||
         op == Op::kFlushTrace;
}

// Stateful fleet-session ops (serve/fleet.hpp).  They carry fleet fields
// instead of a scenario, mutate per-session state, and bypass the result
// cache — Request.key stays empty for them.
constexpr bool is_fleet_op(Op op) {
  return op == Op::kFleetOpen || op == Op::kFleetUpdate ||
         op == Op::kFleetQuery || op == Op::kFleetClose;
}

// Admission caps on scenario size, enforced at parse time so one request
// can never ask the server to build an outsized machine.  dyncg_cli accepts
// larger values; the serving caps are part of the protocol contract
// (docs/SERVING.md#limits).
inline constexpr std::size_t kMaxPoints = 4096;
inline constexpr std::size_t kMaxDimension = 16;
inline constexpr int kMaxDegree = 16;
// Largest per-request deadline budget ("deadline_ms"); one hour, matching
// the upper bound of the server's --deadline-ms flag.
inline constexpr std::uint64_t kMaxDeadlineMs = 3'600'000;

// A validated request, in two stages (docs/SERVING.md#request-stages).
// read_request validates everything and builds `key`; generator scenarios
// are expanded into `system` on the way, because their key is the system's
// bits, but inline scenarios exist only as key bytes.  finish_request then
// builds `system` from those bytes and computes `fingerprint`.  The server
// finishes only the requests its cache cannot answer; everything else
// (parse_request, the CLI, the oracles) gets finished requests.  Either way
// the engine works from bits, never from the request's surface form.
struct Request {
  Op op = Op::kPing;
  // The "id" member rendered back by json::dump ("\"a\"" or "7"); empty =
  // absent.
  std::string id_json;
  std::string machine = "mesh";
  std::size_t query = 0;
  bool farthest = false;
  bool has_box = false;
  std::vector<double> box;  // fitted to the system dimension (fit_box)
  bool has_faults = false;
  FaultPlan faults;
  std::string faults_spec;  // canonical FaultPlan::to_string() form
  // Per-request deadline budget in milliseconds, measured from the line's
  // arrival at the server; 0 = inherit the server's --deadline-ms default.
  // Like "id", it shapes scheduling, not the answer — excluded from `key`.
  std::uint64_t deadline_ms = 0;
  // Absent for admin and fleet ops, and for inline scenarios until
  // finish_request.
  std::optional<MotionSystem> system;
  // Exact cache key (empty for admin and fleet ops): the text
  // "op|machine|q<query>|f<0|1>[|b<hex box>][|x<faults>]|s", then, from
  // byte `scenario_at` on, the system as raw coefficient bytes behind
  // per-coordinate counts (append_scenario_key, envelope/scenario_key.hpp),
  // 8 bytes per coefficient.  Binary: it never leaves the process.
  // `fingerprint` (set by finish_request) is FNV-1a over the same text with
  // every coefficient as 16 hex digits, the `key` field of responses
  // (docs/SERVING.md#cache).
  std::string key;
  std::size_t scenario_at = 0;
  std::uint64_t fingerprint = 0;
  // Fleet-session fields (fleet_* ops only; serve/fleet.hpp validates the
  // parts that need session state, e.g. point arity vs the session's
  // dimension).  `fleet` is the session name: required for
  // update/query/close, forbidden for open (the server names sessions).
  std::string fleet;
  std::size_t fleet_d = 2;              // fleet_open "d"
  int fleet_k = 2;                      // fleet_open "k" (max motion degree)
  std::optional<Trajectory> fleet_ref;  // fleet_open "ref" (default origin)
  std::vector<std::pair<std::uint64_t, Trajectory>> fleet_insert;
  std::vector<std::uint64_t> fleet_erase;
  bool fleet_has_advance = false;
  double fleet_advance = 0.0;
};

// Why `steady` refuses an inline scenario or a dimension, shared by the
// parser and dyncg_cli (which refuses --file and --d the same way): the
// survey builds its own planar diverging motion.
inline constexpr char kSteadyGeneratorOnly[] =
    "op \"steady\" takes generator scenarios only ('seed'/'n'/'k'; the "
    "survey builds diverging motion itself)";

// The --box rule shared by the parser and dyncg_cli: a box with fewer
// dimensions than the system repeats its last one, and extra dimensions
// are dropped.  `box` must be non-empty.
std::vector<double> fit_box(std::vector<double> box, std::size_t dimension);

// Read and validate one request line in one pass: every check, and `key`.
// Error statuses map onto the repo's pinned codes: kParseError for
// malformed JSON or fault specs, kInvalidArgument for unknown, ill-typed or
// out-of-range fields.  When a line has several errors, the one reported
// follows the precedence in docs/SERVING.md#request-stages.
StatusOr<Request> read_request(const std::string& line);
// Completes an accepted request: builds an inline scenario's `system` from
// its key and computes `fingerprint`.  Nothing to do for admin and fleet
// ops; idempotent.
void finish_request(Request* r);
// read_request then finish_request.
StatusOr<Request> parse_request(const std::string& line);

// One computed answer, exactly what the cache stores: the CLI's stdout for
// the same scenario minus its trailing cost line (trailing '\n' kept), plus
// the simulated ledger figures, the machine it ran on, and the request's
// fingerprint, so a hit renders its `key` without computing it.
struct CachedResult {
  std::string text;
  CostSnapshot cost;
  std::string topology;
  std::size_t pes = 0;
  std::uint64_t fingerprint = 0;
};

// Counters the `stats` op reports and the shutdown summary prints.  The
// rendered field order is pinned in docs/SERVING.md#the-stats-op.
struct ServeStats {
  std::uint64_t schema_version = kServeSchemaVersion;
  std::string git_rev = "unknown";   // resolved on the first `stats` op
  double uptime_seconds = 0.0;       // host-noisy
  std::uint64_t connections = 0;  // accepted
  std::uint64_t requests = 0;     // lines parsed (including errors)
  std::uint64_t errors = 0;       // error responses (parse or compute)
  std::uint64_t rejected = 0;     // admission rejections (UNAVAILABLE)
  std::uint64_t shed = 0;         // oldest-first overload/drain sheds
  std::uint64_t deadline_exceeded = 0;  // expired before the engine ran
  std::uint64_t batches = 0;      // batches processed
  std::uint64_t hits = 0;         // cache hits
  std::uint64_t misses = 0;       // cache misses
  std::uint64_t evictions = 0;    // cache evictions (FIFO)
  std::uint64_t entries = 0;      // current cache size
  std::uint64_t fleets = 0;       // currently open fleet sessions (v4)
};

// Response rendering (single line, no trailing newline).  Hit and miss
// responses for the same key are byte-identical except the "cache" value —
// the protocol-level statement of the determinism contract.
std::string render_result(const std::string& id_json, Op op,
                          const CachedResult& r, bool hit,
                          std::uint64_t fingerprint);
// `draining` adds "draining":true after the status — the server's signal
// that it is refusing work because SIGTERM started a graceful drain, not
// because of overload (docs/SERVING.md#draining).
std::string render_error(const std::string& id_json, const Status& st,
                         bool draining = false);
std::string render_pong(const std::string& id_json);
std::string render_stats(const std::string& id_json, const ServeStats& s);
// `registry_json` is metrics::to_json() output, embedded verbatim under the
// "metrics" key.
std::string render_metrics(const std::string& id_json,
                           const std::string& registry_json);
// `spans` = events written, `path` = the trace file they went to.
std::string render_flush_trace(const std::string& id_json,
                               std::uint64_t spans, const std::string& path);

// Fleet-session responses (serve/fleet.hpp fills these).  `t` and
// `next_event` are rendered as %.17g strings ("inf" when the envelope
// never changes again) so the values round-trip exactly and infinity stays
// valid JSON; the counters are plain numbers.
std::string exact_double(double v);  // the %.17g form (fleet error text too)
struct FleetOpenInfo {
  std::string fleet;
  std::size_t d = 2;
  int k = 2;
  std::size_t max_members = 0;
};
struct FleetUpdateInfo {
  std::string fleet;
  std::uint64_t inserted = 0;  // new leaves
  std::uint64_t deduped = 0;   // aliased to an identical live member
  std::uint64_t erased = 0;
  std::uint64_t members = 0;   // live members after the update
  double t = 0.0;
  double next_event = 0.0;
  CostSnapshot cost;           // simulated ledger delta of this update
};
struct FleetQueryInfo {
  std::string fleet;
  std::uint64_t fingerprint = 0;  // state fingerprint, the `key` field
  std::uint64_t members = 0;
  double t = 0.0;
  double next_event = 0.0;
  CostSnapshot cost;
  std::string result;  // DynamicEnvelope::result_string()
};
std::string render_fleet_open(const std::string& id_json,
                              const FleetOpenInfo& info);
std::string render_fleet_update(const std::string& id_json,
                                const FleetUpdateInfo& info);
std::string render_fleet_query(const std::string& id_json,
                               const FleetQueryInfo& info);
std::string render_fleet_close(const std::string& id_json,
                               const std::string& fleet,
                               std::uint64_t members);

}  // namespace serve
}  // namespace dyncg
