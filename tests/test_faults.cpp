#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/motion_io.hpp"
#include "dyncg/proximity.hpp"
#include "envelope/parallel_envelope.hpp"
#include "machine/fabric.hpp"
#include "machine/faults.hpp"
#include "machine/machine.hpp"
#include "poly/rational_germ.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"

namespace dyncg {
namespace {

// --- fault-spec grammar ------------------------------------------------------

TEST(FaultSpec, RoundTripsThroughToString) {
  const std::string spec = "link:5-6@0..,pe:2@4..9,drop:0-1@3";
  StatusOr<FaultPlan> plan = FaultPlan::parse(spec);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_EQ(plan.value().to_string(), spec);
  StatusOr<FaultPlan> again = FaultPlan::parse(plan.value().to_string());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().to_string(), spec);
  ASSERT_EQ(plan.value().events().size(), 3u);
}

TEST(FaultSpec, WindowForms) {
  FaultPlan single = FaultPlan::parse("link:1-2@7").value();
  EXPECT_EQ(single.events()[0].from_round, 7u);
  EXPECT_EQ(single.events()[0].to_round, 7u);
  FaultPlan open = FaultPlan::parse("pe:3@7..").value();
  EXPECT_EQ(open.events()[0].from_round, 7u);
  EXPECT_EQ(open.events()[0].to_round, FaultEvent::kForever);
  FaultPlan closed = FaultPlan::parse("link:1-2@7..9").value();
  EXPECT_EQ(closed.events()[0].from_round, 7u);
  EXPECT_EQ(closed.events()[0].to_round, 9u);
  // Whitespace around events is tolerated.
  EXPECT_TRUE(FaultPlan::parse(" link:1-2@0 , pe:3@1 ").is_ok());
}

TEST(FaultSpec, QueriesMatchTheSchedule) {
  FaultPlan plan = FaultPlan::parse("link:1-2@5..6,pe:3@2..4,drop:0-1@3").value();
  // Link events cover both directions, only inside the window.
  EXPECT_TRUE(plan.link_down(1, 2, 5));
  EXPECT_TRUE(plan.link_down(2, 1, 6));
  EXPECT_FALSE(plan.link_down(1, 2, 4));
  EXPECT_FALSE(plan.link_down(1, 2, 7));
  // A downed PE takes all its incident links with it.
  EXPECT_TRUE(plan.pe_down(3, 2));
  EXPECT_FALSE(plan.pe_down(3, 5));
  EXPECT_TRUE(plan.link_down(3, 7, 2));
  EXPECT_TRUE(plan.link_down(7, 3, 4));
  EXPECT_FALSE(plan.link_down(7, 8, 3));
  // Drops are directed and single-round.
  EXPECT_TRUE(plan.drop_word(0, 1, 3));
  EXPECT_FALSE(plan.drop_word(1, 0, 3));
  EXPECT_FALSE(plan.drop_word(0, 1, 4));
}

TEST(FaultSpec, WindowOverlapPredicate) {
  FaultEvent e;
  e.from_round = 5;
  e.to_round = 9;
  EXPECT_TRUE(e.overlaps(0, 6));    // window start inside
  EXPECT_TRUE(e.overlaps(9, 10));   // window end inside
  EXPECT_TRUE(e.overlaps(6, 8));    // pattern inside the window
  EXPECT_FALSE(e.overlaps(0, 5));   // [0,5) ends before round 5
  EXPECT_FALSE(e.overlaps(10, 20)); // starts after the window closed
}

struct BadSpecCase {
  const char* spec;
  const char* substring;
};

// Names each case by its spec. Without this the case prints as the bytes of
// its two pointers, which address randomisation changes on every run, so the
// discovered ctest names would never be the same twice.
void PrintTo(const BadSpecCase& c, std::ostream* os) {
  *os << '"' << c.spec << '"';
}

class FaultSpecErrors : public ::testing::TestWithParam<BadSpecCase> {};

TEST_P(FaultSpecErrors, RejectedWithParseError) {
  StatusOr<FaultPlan> got = FaultPlan::parse(GetParam().spec);
  ASSERT_FALSE(got.is_ok()) << GetParam().spec;
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  EXPECT_EQ(got.status().exit_code(), 5);
  EXPECT_NE(got.status().message().find(GetParam().substring),
            std::string::npos)
      << got.status().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, FaultSpecErrors,
    ::testing::Values(
        BadSpecCase{"", "empty fault"},
        BadSpecCase{"link:1-2@0,,pe:3@1", "empty fault event"},
        BadSpecCase{"bogus:1@2", "unknown event kind"},
        BadSpecCase{"link:1@4", "expected '-' between the link endpoints"},
        BadSpecCase{"link:1-@4", "expected the second node id"},
        BadSpecCase{"link:1-1@4", "link endpoints are equal"},
        BadSpecCase{"link:1-2", "expected '@' before the round window"},
        BadSpecCase{"link:1-2@", "expected a round number after '@'"},
        BadSpecCase{"link:1-2@3;4", "expected '..' in the round window"},
        BadSpecCase{"link:1-2@9..3", "window ends before it starts"},
        BadSpecCase{"link:1-2@3..4x", "trailing characters"},
        BadSpecCase{"drop:1-2@3..5", "drop events name a single round"},
        BadSpecCase{"pe:@1", "expected a node id"}));

TEST(FaultSpec, ErrorNamesTheGrammar) {
  StatusOr<FaultPlan> got = FaultPlan::parse("nope");
  ASSERT_FALSE(got.is_ok());
  EXPECT_NE(got.status().message().find("grammar:"), std::string::npos);
}

// --- seeded random plans -----------------------------------------------------

TEST(FaultPlanRandom, DeterministicInSeed) {
  MeshTopology topo(4);
  FaultPlan a = FaultPlan::random(42, topo, 3, 2, 4, 50);
  FaultPlan b = FaultPlan::random(42, topo, 3, 2, 4, 50);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.events().size(), 9u);
  FaultPlan c = FaultPlan::random(43, topo, 3, 2, 4, 50);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultPlanRandom, EventsNameRealHardware) {
  HypercubeTopology topo(3);
  FaultPlan plan = FaultPlan::random(7, topo, 5, 3, 5, 100);
  std::size_t links = 0, pes = 0, drops = 0;
  for (const FaultEvent& e : plan.events()) {
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown:
        ++links;
        EXPECT_TRUE(topo.adjacent(e.a, e.b)) << e.to_string();
        break;
      case FaultEvent::Kind::kPeDown:
        ++pes;
        EXPECT_LT(e.a, topo.size());
        break;
      case FaultEvent::Kind::kWordDrop:
        ++drops;
        EXPECT_TRUE(topo.adjacent(e.a, e.b)) << e.to_string();
        EXPECT_EQ(e.from_round, e.to_round);
        break;
    }
    EXPECT_LT(e.from_round, 100u);
  }
  EXPECT_EQ(links, 5u);
  EXPECT_EQ(pes, 3u);
  EXPECT_EQ(drops, 5u);
}

// --- routing around faults ---------------------------------------------------

TEST(FaultRouting, RouteAvoidingSkipsTheDownedLink) {
  HypercubeTopology topo(2);  // square: 0-1, 0-2, 1-3, 2-3
  FaultPlan plan = FaultPlan::single_link_down(0, 1);
  std::vector<std::size_t> path = route_avoiding(topo, plan, 0, 1, 0);
  ASSERT_EQ(path.size(), 4u);  // 0 -> 2 -> 3 -> 1, smallest-id tie-breaking
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 1u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(topo.adjacent(path[i], path[i + 1]));
    EXPECT_FALSE(plan.link_down(path[i], path[i + 1], 0));
  }
  EXPECT_EQ(detour_extra_rounds(topo, plan, 0, 1, 0), 2u);
  // Outside the fault window the direct hop is restored.
  FaultPlan windowed = FaultPlan::single_link_down(0, 1, 0, 3);
  EXPECT_EQ(detour_extra_rounds(topo, windowed, 0, 1, 4), 0u);
}

TEST(FaultRouting, PartitionIsUnreachable) {
  HypercubeTopology topo(1);  // two nodes, one link
  FaultPlan plan = FaultPlan::single_link_down(0, 1);
  EXPECT_TRUE(route_avoiding(topo, plan, 0, 1, 0).empty());
  EXPECT_EQ(detour_extra_rounds(topo, plan, 0, 1, 0), kUnreachable);
}

TEST(FaultRouting, RemapSpareIsHighestLiveRank) {
  HypercubeTopology topo(2);
  FaultPlan plan = FaultPlan::single_pe_down(topo.node_of_rank(3));
  std::size_t spare = remap_spare(topo, plan, topo.node_of_rank(3), 0);
  // Rank 3's node is down, so the next-highest live rank takes over.
  EXPECT_EQ(spare, topo.node_of_rank(2));
  FaultPlan all;
  for (std::size_t v = 0; v < topo.size(); ++v) {
    all.add(FaultPlan::single_pe_down(v).events()[0]);
  }
  EXPECT_EQ(remap_spare(topo, all, 0, 0), kUnreachable);
}

// --- Fabric (Layer A) recovery ----------------------------------------------

// Drain a fabric until every word and relay packet has landed, collecting
// whatever arrives at `watch`.
std::vector<int> drain(Fabric<int>& fab, std::size_t watch) {
  std::vector<int> received;
  for (int guard = 0; guard < 256 && !fab.idle(); ++guard) {
    fab.deliver();
    for (int v : fab.inbox(watch)) received.push_back(v);
  }
  EXPECT_TRUE(fab.idle());
  return received;
}

TEST(FabricFaults, LinkDownWordDetoursAndArrives) {
  HypercubeTopology topo(2);
  FaultPlan plan = FaultPlan::single_link_down(0, 1);
  Fabric<int> fab(topo);
  FabricTelemetry tel;
  fab.set_telemetry(&tel);
  fab.set_fault_plan(&plan);
  fab.send(0, 1, 42);
  EXPECT_EQ(fab.transits_in_flight(), 1u);
  std::vector<int> got = drain(fab, 1);
  ASSERT_EQ(got, std::vector<int>{42});
  // The detour 0 -> 2 -> 3 -> 1 takes three rounds instead of one.
  EXPECT_EQ(fab.rounds(), 3u);
  EXPECT_EQ(tel.fault_link_down_hits, 1u);
  EXPECT_EQ(tel.fault_detour_rounds, 3u);
  EXPECT_EQ(tel.faults_encountered(), 1u);
}

TEST(FabricFaults, DroppedWordIsRetransmitted) {
  HypercubeTopology topo(2);
  FaultPlan plan = FaultPlan::parse("drop:0-1@0").value();
  Fabric<int> fab(topo);
  FabricTelemetry tel;
  fab.set_telemetry(&tel);
  fab.set_fault_plan(&plan);
  fab.send(0, 1, 7);
  std::vector<int> got = drain(fab, 1);
  ASSERT_EQ(got, std::vector<int>{7});
  EXPECT_EQ(fab.rounds(), 2u);  // the lost round plus the retransmission
  EXPECT_EQ(tel.fault_words_dropped, 1u);
  EXPECT_GE(tel.fault_retries, 1u);
}

TEST(FabricFaults, WordWaitsOutATransientPeDown) {
  HypercubeTopology topo(2);
  // The word is dropped once, and by the time it is retransmitted the
  // receiving PE is inside a one-round down-window: the word must wait it
  // out and land when the PE recovers.
  FaultPlan plan = FaultPlan::parse("drop:0-1@0,pe:1@1..1").value();
  Fabric<int> fab(topo);
  FabricTelemetry tel;
  fab.set_telemetry(&tel);
  fab.set_fault_plan(&plan);
  fab.send(0, 1, 9);
  std::vector<int> got = drain(fab, 1);
  ASSERT_EQ(got, std::vector<int>{9});
  EXPECT_EQ(fab.rounds(), 3u);
  // The downed PE takes its links down with it, so the blocked final hop
  // registers as a link-down hit plus a retry wait.
  EXPECT_GE(tel.faults_encountered(), 2u);
  EXPECT_EQ(tel.fault_words_dropped, 1u);
  EXPECT_GE(tel.fault_retries, 2u);
}

TEST(FabricFaults, FaultFreePlanChangesNothing) {
  HypercubeTopology topo(2);
  FaultPlan plan = FaultPlan::single_link_down(2, 3, 100, 200);  // never hit
  Fabric<int> fab(topo);
  FabricTelemetry tel;
  fab.set_telemetry(&tel);
  fab.set_fault_plan(&plan);
  fab.send(0, 1, 5);
  std::vector<int> got = drain(fab, 1);
  ASSERT_EQ(got, std::vector<int>{5});
  EXPECT_EQ(fab.rounds(), 1u);
  EXPECT_EQ(tel.faults_encountered(), 0u);
}

TEST(FabricFaults, SendDiagnosticsNameTheLink) {
  EXPECT_DEATH(
      {
        HypercubeTopology topo(2);
        Fabric<int> fab(topo);
        fab.send(0, 3, 1);  // 0 and 3 are not adjacent on the square
      },
      "fabric send on a non-link: node 0 -> node 3");
  EXPECT_DEATH(
      {
        HypercubeTopology topo(2);
        Fabric<int> fab(topo);
        fab.send(0, 1, 1);
        fab.send(0, 1, 2);  // second word on the same directed link
      },
      "link capacity exceeded.*node 0 -> node 1");
}

TEST(FabricFaults, PartitionIsUnrecoverable) {
  EXPECT_DEATH(
      {
        HypercubeTopology topo(1);
        FaultPlan plan = FaultPlan::single_link_down(0, 1);
        Fabric<int> fab(topo);
        fab.set_fault_plan(&plan);
        fab.send(0, 1, 1);
      },
      "no route around downed link 0-1");
}

// --- hop-by-hop reference router under faults --------------------------------

TEST(ReferenceFaults, ExchangeByteIdenticalUnderLinkDown) {
  HypercubeTopology topo(3);
  std::vector<long> base(topo.size());
  std::iota(base.begin(), base.end(), 100L);
  std::vector<long> expect(base.size());
  for (std::size_t r = 0; r < base.size(); ++r) expect[r] = base[r ^ 1];
  std::vector<long> clean = base;
  std::uint64_t clean_rounds = fabric_reference::exchange_offset(topo, 0, clean);
  EXPECT_EQ(clean, expect);

  // With Gray order, ranks 0 and 1 live on nodes 0 and 1: downing link 0-1
  // forces exactly that pair onto a three-hop detour.
  FaultPlan plan = FaultPlan::single_link_down(0, 1);
  FabricTelemetry tel;
  std::vector<long> vals = base;
  std::uint64_t rounds =
      fabric_reference::exchange_offset(topo, 0, vals, &plan, &tel);
  EXPECT_EQ(vals, expect) << "payloads must survive the fault byte-for-byte";
  EXPECT_GT(rounds, clean_rounds);
  EXPECT_EQ(tel.fault_link_down_hits, 2u);  // one hit per direction
  EXPECT_EQ(tel.fault_detour_rounds, 4u);   // two extra hops per packet
}

TEST(ReferenceFaults, ExchangeByteIdenticalUnderPeDown) {
  for (int which = 0; which < 2; ++which) {
    std::shared_ptr<const Topology> topo;
    if (which == 0) {
      topo = std::make_shared<MeshTopology>(4, MeshOrder::kProximity);
    } else {
      topo = std::make_shared<HypercubeTopology>(3);
    }
    std::vector<long> base(topo->size());
    std::iota(base.begin(), base.end(), 500L);
    std::vector<long> expect(base.size());
    for (std::size_t r = 0; r < base.size(); ++r) expect[r] = base[r ^ 2];

    FaultPlan plan = FaultPlan::single_pe_down(topo->node_of_rank(0));
    FabricTelemetry tel;
    std::vector<long> vals = base;
    std::uint64_t rounds =
        fabric_reference::exchange_offset(*topo, 1, vals, &plan, &tel);
    EXPECT_EQ(vals, expect) << topo->name();
    EXPECT_GE(rounds, 1u);
    EXPECT_EQ(tel.fault_remaps, 1u) << "exactly rank 0 is displaced";
  }
}

TEST(ReferenceFaults, ShiftByteIdenticalUnderFaults) {
  MeshTopology topo(4, MeshOrder::kProximity);
  std::vector<long> base(topo.size());
  std::iota(base.begin(), base.end(), 0L);
  std::vector<long> clean = base;
  std::uint64_t clean_rounds = fabric_reference::shift_up(topo, clean, -1L);

  // Down the link carrying rank 0 -> rank 1 (Hilbert-adjacent nodes).
  FaultPlan plan = FaultPlan::single_link_down(topo.node_of_rank(0),
                                              topo.node_of_rank(1));
  FabricTelemetry tel;
  std::vector<long> vals = base;
  std::uint64_t rounds = fabric_reference::shift_up(topo, vals, -1L, &plan, &tel);
  EXPECT_EQ(vals, clean);
  EXPECT_GE(rounds, clean_rounds);
  EXPECT_GE(tel.fault_link_down_hits, 1u);
}

// --- Section 4 algorithms: byte-identical output, honest ledger -------------

// Every single-fault plan must leave the geometric answer untouched; only
// the price (ledger rounds) and the fault counters may move.  This is the
// acceptance criterion of the robustness work.
struct AlgoFaultCase {
  bool mesh;
  bool pe_down;  // false: link-down
};

class SectionFourUnderFaults : public ::testing::TestWithParam<AlgoFaultCase> {};

TEST_P(SectionFourUnderFaults, NeighborSequenceByteIdentical) {
  Rng rng(11);
  MotionSystem sys = random_motion_system(rng, 6, 2, 1);
  auto make = [&] {
    return GetParam().mesh ? proximity_machine_mesh(sys)
                           : proximity_machine_hypercube(sys);
  };
  Machine clean = make();
  clean.set_fault_plan(nullptr);  // shield from any ambient DYNCG_FAULTS
  NeighborSequence base = neighbor_sequence(clean, sys, 0);
  std::uint64_t clean_rounds = clean.ledger().snapshot().rounds;

  Machine faulty = make();
  FaultPlan plan =
      GetParam().pe_down
          ? FaultPlan::single_pe_down(0)
          : FaultPlan::single_link_down(0, faulty.topology().neighbors(0)[0]);
  faulty.set_fault_plan(&plan);
  NeighborSequence got = neighbor_sequence(faulty, sys, 0);

  EXPECT_EQ(got.to_string(), base.to_string());
  EXPECT_GT(faulty.ledger().snapshot().rounds, clean_rounds)
      << "recovery rounds must be charged, not hidden";
  const FabricTelemetry& fab = faulty.telemetry();
  EXPECT_GT(fab.fault_detour_rounds, 0u);
  if (GetParam().pe_down) {
    EXPECT_GT(fab.fault_pe_down_hits, 0u);
    EXPECT_EQ(fab.fault_remaps, 1u) << "state migration is one-time";
  } else {
    EXPECT_GT(fab.fault_link_down_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshAndCube, SectionFourUnderFaults,
    ::testing::Values(AlgoFaultCase{false, false}, AlgoFaultCase{false, true},
                      AlgoFaultCase{true, false}, AlgoFaultCase{true, true}));

TEST(SectionFourFaults, ContainmentByteIdenticalUnderLinkDown) {
  Rng rng(13);
  MotionSystem sys = random_motion_system(rng, 5, 2, 1);
  Machine clean = containment_machine_mesh(sys);
  clean.set_fault_plan(nullptr);
  IntervalSet base = containment_intervals(clean, sys, {6.0, 6.0});
  std::uint64_t clean_rounds = clean.ledger().snapshot().rounds;

  Machine faulty = containment_machine_mesh(sys);
  FaultPlan plan =
      FaultPlan::single_link_down(0, faulty.topology().neighbors(0)[0]);
  faulty.set_fault_plan(&plan);
  IntervalSet got = containment_intervals(faulty, sys, {6.0, 6.0});
  EXPECT_EQ(got.to_string(), base.to_string());
  EXPECT_GT(faulty.ledger().snapshot().rounds, clean_rounds);
}

TEST(SectionFourFaults, CollisionTimesByteIdenticalUnderPeDown) {
  Rng rng(17);
  MotionSystem sys = random_motion_system(rng, 6, 2, 2);
  Machine clean = collision_machine_hypercube(sys);
  clean.set_fault_plan(nullptr);
  CollisionReport base = collision_times(clean, sys, 0);
  std::uint64_t clean_rounds = clean.ledger().snapshot().rounds;

  Machine faulty = collision_machine_hypercube(sys);
  FaultPlan plan = FaultPlan::single_pe_down(1);
  faulty.set_fault_plan(&plan);
  CollisionReport got = collision_times(faulty, sys, 0);
  ASSERT_EQ(got.events.size(), base.events.size());
  for (std::size_t i = 0; i < base.events.size(); ++i) {
    EXPECT_EQ(got.events[i].time, base.events[i].time);
    EXPECT_EQ(got.events[i].other, base.events[i].other);
  }
  EXPECT_GT(faulty.ledger().snapshot().rounds, clean_rounds);
}

TEST(SectionFourFaults, RandomPlanStillByteIdentical) {
  Rng rng(19);
  MotionSystem sys = random_motion_system(rng, 6, 2, 1);
  Machine clean = proximity_machine_mesh(sys);
  clean.set_fault_plan(nullptr);
  NeighborSequence base = neighbor_sequence(clean, sys, 0);

  Machine faulty = proximity_machine_mesh(sys);
  // One link-down plus word drops: a single downed link never partitions
  // the (2-edge-connected) mesh, so any seed yields a recoverable plan.
  FaultPlan plan = FaultPlan::random(3, faulty.topology(), 1, 0, 3, 200);
  faulty.set_fault_plan(&plan);
  NeighborSequence got = neighbor_sequence(faulty, sys, 0);
  EXPECT_EQ(got.to_string(), base.to_string());
}

TEST(SectionFourFaults, FaultReportSummarisesTheCounters) {
  Rng rng(23);
  MotionSystem sys = random_motion_system(rng, 5, 2, 1);
  Machine m = proximity_machine_hypercube(sys);
  m.set_fault_plan(nullptr);
  EXPECT_NE(m.fault_report().find("no faults injected"), std::string::npos);
  FaultPlan plan = FaultPlan::single_link_down(0, m.topology().neighbors(0)[0]);
  m.set_fault_plan(&plan);
  neighbor_sequence(m, sys, 0);
  std::string report = m.fault_report();
  EXPECT_NE(report.find(plan.to_string()), std::string::npos);
  EXPECT_NE(report.find("detour rounds"), std::string::npos);
  EXPECT_NE(report.find("link-down hits"), std::string::npos);
}

// Same workload, same plan, any host thread count: identical output and
// identical charged rounds (replay determinism for the DYNCG_THREADS
// matrix in tests/CMakeLists.txt).
TEST(FaultDeterminism, IdenticalAcrossHostThreadCounts) {
  Rng rng(29);
  MotionSystem sys = random_motion_system(rng, 8, 2, 1);
  std::vector<std::string> outputs;
  std::vector<std::uint64_t> rounds;
  for (unsigned threads : {1u, 4u}) {
    set_host_threads(threads);
    Machine m = proximity_machine_hypercube(sys);
    FaultPlan plan = FaultPlan::parse("link:0-1@0..,drop:0-1@2").value();
    m.set_fault_plan(&plan);
    NeighborSequence seq = neighbor_sequence(m, sys, 0);
    outputs.push_back(seq.to_string());
    rounds.push_back(m.ledger().snapshot().rounds);
  }
  set_host_threads(0);  // back to the hardware/env default
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(rounds[0], rounds[1]);
}

// --- recoverable errors: every StatusCode has a negative path ----------------

TEST(StatusCodes, ExitCodesAreDistinctAndStable) {
  EXPECT_EQ(Status::ok().exit_code(), 0);
  EXPECT_EQ(Status::io_error("x").exit_code(), 1);
  EXPECT_EQ(Status::invalid_argument("x").exit_code(), 3);
  EXPECT_EQ(Status::failed_precondition("x").exit_code(), 4);
  EXPECT_EQ(Status::parse_error("x").exit_code(), 5);
  EXPECT_EQ(Status::unsupported("x").exit_code(), 6);
  EXPECT_EQ(Status::unrecoverable("x").exit_code(), 7);
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_EQ(Status::parse_error("bad").to_string(), "PARSE_ERROR: bad");
}

TEST(StatusCodes, ValueOnErrorAborts) {
  EXPECT_DEATH(
      {
        StatusOr<FaultPlan> bad = FaultPlan::parse("nope");
        bad.value();
      },
      "PARSE_ERROR");
}

TEST(TryNeighborSequence, RejectsBadInput) {
  Rng rng(1);
  MotionSystem sys = random_motion_system(rng, 9, 2, 1);
  Machine big = proximity_machine_mesh(sys);
  StatusOr<NeighborSequence> range = try_neighbor_sequence(big, sys, 9);
  ASSERT_FALSE(range.is_ok());
  EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(range.status().message().find("query index 9 out of range"),
            std::string::npos);

  MotionSystem lonely(2, {Trajectory::fixed({0.0, 0.0})});
  Machine m = Machine::hypercube_for(2);
  StatusOr<NeighborSequence> tiny = try_neighbor_sequence(m, lonely, 0);
  ASSERT_FALSE(tiny.is_ok());
  EXPECT_EQ(tiny.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tiny.status().message().find("at least two points"),
            std::string::npos);

  Machine small = Machine::hypercube_for(2);
  StatusOr<NeighborSequence> cramped = try_neighbor_sequence(small, sys, 0);
  ASSERT_FALSE(cramped.is_ok());
  EXPECT_EQ(cramped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(cramped.status().message().find("machine smaller"),
            std::string::npos);
  EXPECT_EQ(cramped.status().exit_code(), 4);
}

TEST(TryCollisionTimes, RejectsBadInput) {
  Rng rng(2);
  MotionSystem sys = random_motion_system(rng, 6, 2, 1);
  Machine m = collision_machine_mesh(sys);
  StatusOr<CollisionReport> range = try_collision_times(m, sys, 6);
  ASSERT_FALSE(range.is_ok());
  EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument);

  Machine small = Machine::hypercube_for(4);
  StatusOr<CollisionReport> cramped = try_collision_times(small, sys, 0);
  ASSERT_FALSE(cramped.is_ok());
  EXPECT_EQ(cramped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(cramped.status().message().find("machine smaller than the system"),
            std::string::npos);
}

TEST(TryHullMembership, NonPlanarIsUnsupported) {
  Rng rng(3);
  MotionSystem sys3d = random_motion_system(rng, 4, 3, 1);
  Machine m = Machine::mesh_for(16);
  StatusOr<IntervalSet> got = try_hull_membership_intervals(m, sys3d, 0);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(got.status().message().find("planar"), std::string::npos);
  EXPECT_EQ(got.status().exit_code(), 6);

  MotionSystem sys2d = random_motion_system(rng, 4, 2, 1);
  Machine m2 = hull_membership_machine_mesh(sys2d);
  StatusOr<IntervalSet> range = try_hull_membership_intervals(m2, sys2d, 4);
  ASSERT_FALSE(range.is_ok());
  EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument);
}

TEST(TryContainment, RejectsDimensionMismatch) {
  Rng rng(4);
  MotionSystem sys = random_motion_system(rng, 4, 2, 1);
  Machine m = containment_machine_mesh(sys);
  StatusOr<IntervalSet> got = try_containment_intervals(m, sys, {1.0});
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find(
                "one rectangle dimension per coordinate"),
            std::string::npos);
}

TEST(TryParallelEnvelope, RejectsUndersizedMachine) {
  Rng rng(5);
  MotionSystem sys = random_motion_system(rng, 6, 2, 1);
  RelativeMotion rel = RelativeMotion::around(sys, 0);
  AngleFamily fam(&rel, true);
  Machine tiny = Machine::hypercube_for(2);
  StatusOr<PiecewiseFn> got = try_parallel_envelope(tiny, fam, 8, true);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().message().find("machine smaller than the function"),
            std::string::npos);
  Machine any = Machine::hypercube_for(8);
  EXPECT_EQ(validate_envelope_input(any, 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(TryMotionSystem, RejectsInconsistentTrajectories) {
  StatusOr<MotionSystem> nodim = MotionSystem::try_create(0, {});
  ASSERT_FALSE(nodim.is_ok());
  EXPECT_EQ(nodim.status().code(), StatusCode::kInvalidArgument);

  StatusOr<MotionSystem> empty = MotionSystem::try_create(2, {});
  ASSERT_FALSE(empty.is_ok());
  EXPECT_NE(empty.status().message().find("no points"), std::string::npos);

  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory({Polynomial({1.0})}));  // 1-D in a 2-D system
  StatusOr<MotionSystem> mixed = MotionSystem::try_create(2, std::move(pts));
  ASSERT_FALSE(mixed.is_ok());
  EXPECT_NE(mixed.status().message().find("trajectory 1 has dimension 1"),
            std::string::npos);
}

TEST(TryMotionIo, ParseErrorsCarryLineNumbers) {
  StatusOr<MotionSystem> v2 = try_motion_from_text("dyncg-motion 2\n");
  ASSERT_FALSE(v2.is_ok());
  EXPECT_EQ(v2.status().code(), StatusCode::kParseError);
  EXPECT_NE(v2.status().message().find("line 1: unsupported motion file"),
            std::string::npos);

  StatusOr<MotionSystem> nohdr = try_motion_from_text("dim 2\n");
  ASSERT_FALSE(nohdr.is_ok());
  EXPECT_NE(nohdr.status().message().find("line 1: motion file missing header"),
            std::string::npos);

  StatusOr<MotionSystem> badpt = try_motion_from_text(
      "dyncg-motion 1\ndim 2\npoint 1 2 ; 3 ; 4\n");
  ASSERT_FALSE(badpt.is_ok());
  EXPECT_NE(badpt.status().message().find(
                "line 3: wrong coordinate count in motion file point"),
            std::string::npos);

  StatusOr<MotionSystem> junk = try_motion_from_text(
      "dyncg-motion 1\nwobble 3\n");
  ASSERT_FALSE(junk.is_ok());
  EXPECT_NE(junk.status().message().find("unknown directive"),
            std::string::npos);

  StatusOr<MotionSystem> hollow = try_motion_from_text("dyncg-motion 1\ndim 2\n");
  ASSERT_FALSE(hollow.is_ok());
  EXPECT_NE(hollow.status().message().find("no points"), std::string::npos);

  // The happy path still round-trips.
  StatusOr<MotionSystem> ok = try_motion_from_text(
      "dyncg-motion 1\ndim 2\npoint 1 2 ; 3\npoint 0 ; 0 1\n");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().size(), 2u);
}

// Each coefficient token must be one whole finite double.
TEST(TryMotionIo, GarbageCoefficientsAreParseErrors) {
  for (const char* tok : {"zz", "1.5x", "nan", "inf", "-inf", "1e999", "+1",
                          "0x10", "1e-400"}) {
    StatusOr<MotionSystem> got = try_motion_from_text(
        std::string("dyncg-motion 1\ndim 2\npoint 0 1 ; 2\npoint 3 0 ; 1 ") +
        tok + "\n");
    ASSERT_FALSE(got.is_ok()) << tok;
    EXPECT_EQ(got.status().code(), StatusCode::kParseError) << tok;
    EXPECT_NE(got.status().message().find(
                  std::string("line 4: bad coefficient \"") + tok + "\""),
              std::string::npos)
        << got.status().message();
  }
  // Every form to_text writes still loads, bit for bit: negative zero,
  // subnormals, 17 significant digits, large exponents.
  const double values[] = {-0.0, 4.9406564584124654e-324, 0.1, -1e300,
                           2.2250738585072014e-308};
  std::vector<Trajectory> points;
  for (double v : values) {
    points.push_back(Trajectory(
        {Polynomial({1.0, v}), Polynomial::constant(v)}));
  }
  MotionSystem sys(2, points);
  StatusOr<MotionSystem> back = try_motion_from_text(to_text(sys));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(to_text(back.value()), to_text(sys));
}

TEST(TryMotionIo, MissingFilesAreIoErrors) {
  StatusOr<MotionSystem> got =
      try_load_motion_system("/nonexistent/dir/motion.txt");
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
  EXPECT_EQ(got.status().exit_code(), 1);
  EXPECT_NE(got.status().message().find("cannot open motion file"),
            std::string::npos);

  MotionSystem sys(2, {Trajectory::fixed({0.0, 0.0})});
  Status save = try_save_motion_system(sys, "/nonexistent/dir/motion.txt");
  ASSERT_FALSE(save.is_ok());
  EXPECT_EQ(save.code(), StatusCode::kIoError);
  EXPECT_NE(save.message().find("cannot open motion file for writing"),
            std::string::npos);
}

TEST(TryRationalGerm, DegenerateGermsAreInvalid) {
  RationalGerm one(1.0);
  RationalGerm zero(0.0);
  StatusOr<RationalGerm> div = one.try_divide(zero);
  ASSERT_FALSE(div.is_ok());
  EXPECT_EQ(div.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(div.status().message().find("division by the zero germ"),
            std::string::npos);

  StatusOr<RationalGerm> made =
      RationalGerm::try_create(Polynomial({1.0}), Polynomial({0.0}));
  ASSERT_FALSE(made.is_ok());
  EXPECT_NE(made.status().message().find("zero denominator germ"),
            std::string::npos);

  StatusOr<RationalGerm> fine =
      RationalGerm::try_create(Polynomial({1.0}), Polynomial({2.0}));
  ASSERT_TRUE(fine.is_ok());
  StatusOr<RationalGerm> good = one.try_divide(fine.value());
  ASSERT_TRUE(good.is_ok());
}

}  // namespace
}  // namespace dyncg
