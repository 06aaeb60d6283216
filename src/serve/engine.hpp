#pragma once

#include <string>

#include "machine/machine.hpp"
#include "serve/protocol.hpp"
#include "support/status.hpp"

// Query execution: the one path from a validated request to its answer.
// dyncg_cli prints answer_query's text and then its cost line; the server
// calls run_query.  Served results and CLI stdout are therefore the same
// bytes.
//
// All three are pure functions of the request: each builds its own Machine,
// arms the request's own fault plan, and writes no shared state, so the
// server may execute distinct requests of a batch concurrently
// (docs/SERVING.md#batching).
namespace dyncg {
namespace serve {

// A machine of the named topology (mesh, hypercube, ccc, shuffle) with at
// least `capacity` PEs.
Machine make_machine(const std::string& name, std::size_t capacity);

// INVALID_ARGUMENT, naming `op`, when `capacity` PEs exceed what the named
// topology simulates (kMaxCccPes, kMaxShuffleExchangePes; mesh and
// hypercube have no cap), where make_machine would abort.
Status check_machine_size(const std::string& op, const std::string& name,
                          std::size_t capacity);

// The machine req.op runs on, with req's fault plan attached (the machine
// points into req, so req must outlive it) and unrecoverable fault events
// recorded rather than aborted on (Machine::record_unrecoverable_faults).
// Rejects, before any machine is built, scenarios the algorithms cannot
// take: pairs, contain and steady need at least two points, and steady's
// query must index one.  Requires req.system (callers never pass admin or
// fleet ops).
StatusOr<Machine> query_machine(const Request& req);

// Runs req.op on `m` and renders the answer: what dyncg_cli prints minus
// its trailing cost line, trailing '\n' kept.  Errors are the algorithms' own
// validation statuses, exactly what the CLI exits with, or UNRECOVERABLE
// when m recorded a fault event its plan cannot recover from (a partition,
// no live spare).
StatusOr<std::string> answer_query(Machine& m, const Request& req);

// query_machine + answer_query under a `serve.query` span, recording the
// `serve.query.*` metrics: the text, ledger delta and machine of one answer.
StatusOr<CachedResult> run_query(const Request& req);

}  // namespace serve
}  // namespace dyncg
