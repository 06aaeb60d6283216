#pragma once

#include <memory>
#include <string>
#include <vector>

#include "machine/cost.hpp"
#include "machine/faults.hpp"
#include "machine/telemetry.hpp"
#include "machine/topology.hpp"

// Layer B: the machine the algorithm library runs on.
//
// A Machine is a topology plus a cost ledger.  Operations in src/ops
// manipulate per-PE registers (std::vector slots indexed by rank) and charge
// the ledger the topology's true round price for each communication pattern
// they perform.  The fabric tests (Layer A) verify hop-by-hop that those
// prices are achievable on the physical links.
//
// Fault tolerance (machine/faults.hpp, docs/ROBUSTNESS.md).  A Machine may
// carry a FaultPlan — attached explicitly with set_fault_plan() or picked up
// from the DYNCG_FAULTS environment variable at construction.  The plan
// never touches register contents, so every algorithm's geometric output is
// byte-identical to the fault-free run; what changes is the *price*: each
// pattern charge computes the window of ledger rounds the pattern spans and
// adds the honest recovery cost of every fault event overlapping that
// window (detour rounds around downed links, a one-time state migration
// plus per-pattern dilation for downed PEs, a timeout-and-retransmit round
// pair per dropped word).  The penalties appear in the ledger, in the
// telemetry's fault counters, and as "fault.recover" trace spans.
namespace dyncg {

class Machine {
 public:
  explicit Machine(std::shared_ptr<const Topology> topo)
      : topo_(std::move(topo)) {
    set_fault_plan(env_fault_plan());
  }

  std::size_t size() const { return topo_->size(); }
  const Topology& topology() const { return *topo_; }

  CostLedger& ledger() { return ledger_; }
  const CostLedger& ledger() const { return ledger_; }

  // Fabric link/congestion and fault counters: the machine's pattern charges
  // bump the fault counters, and a Fabric replaying hop by hop fills the
  // rest once attached with set_telemetry(&telemetry()).  Cost per scope is
  // what trace spans record (support/trace.hpp).  See docs/OBSERVABILITY.md.
  FabricTelemetry& telemetry() { return telemetry_; }
  const FabricTelemetry& telemetry() const { return telemetry_; }

  // Attach a fault schedule (nullptr detaches).  The plan must outlive the
  // machine.  Rounds already on the ledger are unaffected; subsequent
  // pattern charges pay recovery penalties for overlapping events.
  void set_fault_plan(const FaultPlan* plan) {
    faults_ = (plan != nullptr && !plan->empty()) ? plan : nullptr;
    remapped_events_.assign(
        faults_ != nullptr ? faults_->events().size() : 0, false);
    route_cache_.attach(faults_);
  }
  const FaultPlan* fault_plan() const { return faults_; }

  // An unrecoverable event (a downed link that partitions the machine, a
  // downed PE with no live spare) aborts the run by default.  After
  // record_unrecoverable_faults() the machine instead records the first
  // such event as an UNRECOVERABLE status, charges nothing for it and runs
  // on.  The answer is then meaningless: the caller must check
  // fault_status() before using it, as serve::answer_query does.
  void record_unrecoverable_faults() { record_unrecoverable_ = true; }
  const Status& fault_status() const { return fault_status_; }

  // Human-readable summary of the faults this machine absorbed (one line
  // per counter; "no faults injected" without a plan).  Used by
  // dyncg_cli --fault-report.
  std::string fault_report() const;

  // Pattern charges.  Width-limited variants charge the same price as the
  // full-machine pattern: disjoint strings operate in parallel, so the cost
  // is the maximum over strings, which equals the single-string cost.
  void charge_exchange(unsigned k) {
    std::uint64_t r0 = ledger_.snapshot().rounds;
    ledger_.add_rounds(topo_->exchange_rounds(k));
    ledger_.add_messages(size());
    if (faults_ != nullptr) apply_fault_penalty(r0, ledger_.snapshot().rounds);
  }
  void charge_shift(std::uint64_t distance = 1) {
    std::uint64_t r0 = ledger_.snapshot().rounds;
    ledger_.add_rounds(distance * topo_->shift_rounds());
    ledger_.add_messages(size());
    if (faults_ != nullptr) apply_fault_penalty(r0, ledger_.snapshot().rounds);
  }
  // Per-PE local work: charged as the maximum over PEs (SIMD model).
  void charge_local(std::uint64_t ops = 1) { ledger_.add_local_ops(ops); }

  // Convenience: make a machine of the paper's canonical size for n items.
  static Machine mesh_for(std::size_t n,
                          MeshOrder order = MeshOrder::kProximity) {
    return Machine(make_mesh_for(n, order));
  }
  static Machine hypercube_for(std::size_t n,
                               CubeOrder order = CubeOrder::kGray) {
    return Machine(make_hypercube_for(n, order));
  }

 private:
  // Charge the recovery price of every fault event overlapping the pattern
  // window [r0, r1) on the ledger's round clock.  Defined in machine.cpp.
  void apply_fault_penalty(std::uint64_t r0, std::uint64_t r1);
  // Aborts with `what`, or records it when record_unrecoverable_ is set.
  void unrecoverable(const char* what);

  std::shared_ptr<const Topology> topo_;
  CostLedger ledger_;
  FabricTelemetry telemetry_;
  const FaultPlan* faults_ = nullptr;
  // Memoizes the per-event detour BFS across pattern charges (the detour
  // for a given event changes only when the active fault set does).
  RouteCache route_cache_;
  // One flag per plan event: has this machine already paid the one-time
  // state migration for that PE-down event?
  std::vector<bool> remapped_events_;
  bool record_unrecoverable_ = false;
  Status fault_status_;  // the first recorded unrecoverable event
};

}  // namespace dyncg
