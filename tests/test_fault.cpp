/**
 * @file
 * Tests for the fault-injection subsystem: spec parsing, the
 * FaultModel state machine (scheduled faults, repairs, router faults
 * failing incident links), and the Network-level consequences —
 * faulted ports never appear in feasible sets, the detector raises no
 * false verdicts merely because a link died, and stranded worms are
 * killed and either redelivered or abandoned with exact accounting.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/simulation.hh"
#include "detector_fixture.hh"
#include "fault/fault.hh"
#include "topology/torus.hh"

namespace wormnet
{
namespace
{

TEST(FaultSpec, ParsesScheduleAndRate)
{
    const FaultParams p = FaultModel::parseSpec(
        "link:12>13@5000,router:7@20000,rate:1e-6");
    ASSERT_EQ(p.schedule.size(), 2u);
    EXPECT_EQ(p.schedule[0].kind, ScheduledFault::Kind::Link);
    EXPECT_EQ(p.schedule[0].node, 12u);
    EXPECT_EQ(p.schedule[0].peer, 13u);
    EXPECT_EQ(p.schedule[0].at, 5000u);
    EXPECT_EQ(p.schedule[1].kind, ScheduledFault::Kind::Router);
    EXPECT_EQ(p.schedule[1].node, 7u);
    EXPECT_EQ(p.schedule[1].at, 20000u);
    EXPECT_DOUBLE_EQ(p.linkRate, 1e-6);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultModel::parseSpec("link:12"), FatalError);
    EXPECT_THROW(FaultModel::parseSpec("link:12>13"), FatalError);
    EXPECT_THROW(FaultModel::parseSpec("link:a>b@c"), FatalError);
    EXPECT_THROW(FaultModel::parseSpec("router:7"), FatalError);
    EXPECT_THROW(FaultModel::parseSpec("teleport:1@2"), FatalError);
    EXPECT_THROW(FaultModel::parseSpec("rate:1.5"), FatalError);
    EXPECT_THROW(FaultModel::parseSpec("rate:x"), FatalError);
    EXPECT_THROW(FaultModel::parseSpec(""), FatalError);
}

TEST(FaultModel, ScheduledFaultActivatesAndRepairs)
{
    const KAryNCube topo(8, 1);
    RouterParams rp;
    rp.netPorts = topo.numNetPorts();

    FaultParams p = FaultModel::parseSpec("link:1>2@10");
    p.repairDelay = 5;
    FaultModel fm(p);
    fm.init(topo, rp, 42);

    const PortId out = Topology::outPort(0, true); // 1 -> 2
    for (Cycle c = 0; c < 10; ++c) {
        EXPECT_FALSE(fm.tick(c));
        EXPECT_FALSE(fm.linkFaulty(1, out));
    }
    EXPECT_TRUE(fm.tick(10));
    EXPECT_TRUE(fm.linkFaulty(1, out));
    EXPECT_EQ(fm.activeLinkFaults(), 1u);
    EXPECT_EQ(fm.faultsInjected(), 1u);
    ASSERT_EQ(fm.changes().size(), 1u);
    EXPECT_EQ(fm.changes()[0].node, 1u);
    EXPECT_EQ(fm.changes()[0].outPort, out);
    EXPECT_TRUE(fm.changes()[0].faulty);
    // Only the 1->2 direction died; 2->1 still works.
    EXPECT_FALSE(fm.linkFaulty(2, Topology::outPort(0, false)));

    for (Cycle c = 11; c < 15; ++c)
        EXPECT_FALSE(fm.tick(c));
    EXPECT_TRUE(fm.tick(15)); // 10 + repairDelay
    EXPECT_FALSE(fm.linkFaulty(1, out));
    EXPECT_EQ(fm.activeLinkFaults(), 0u);
    EXPECT_EQ(fm.faultsRepaired(), 1u);
}

TEST(FaultModel, RouterFaultFailsAllIncidentLinks)
{
    const KAryNCube topo(4, 2);
    RouterParams rp;
    rp.netPorts = topo.numNetPorts();

    FaultModel fm(FaultModel::parseSpec("router:5@0"));
    fm.init(topo, rp, 1);
    EXPECT_TRUE(fm.tick(0));
    EXPECT_TRUE(fm.routerFaulty(5));
    EXPECT_EQ(fm.activeRouterFaults(), 1u);
    // Every outgoing link of 5 and every neighbour's link toward 5.
    EXPECT_EQ(fm.faultyOutMask(5), (PortMask(1) << rp.netPorts) - 1);
    for (unsigned d = 0; d < topo.numDims(); ++d) {
        for (const bool pos : {true, false}) {
            const NodeId n = topo.neighbor(5, d, pos);
            EXPECT_TRUE(fm.linkFaulty(n, Topology::outPort(d, !pos)));
        }
    }
    // Unrelated links stay healthy.
    EXPECT_FALSE(fm.routerFaulty(0));
    EXPECT_EQ(fm.faultyOutMask(0), 0u);
}

TEST(FaultModel, RejectsLinkAbsentFromTopology)
{
    const KAryNCube topo(8, 1);
    RouterParams rp;
    rp.netPorts = topo.numNetPorts();
    FaultModel fm(FaultModel::parseSpec("link:0>5@1")); // not adjacent
    EXPECT_THROW(fm.init(topo, rp, 7), FatalError);
}

TEST(Fault, StrandedWormKilledAndRedeliveredAfterRepair)
{
    // A long worm straddles link 2->3 when it fails at cycle 20; the
    // worm is killed and re-queued, and once the link self-repairs
    // the retry goes through.
    SimulationConfig cfg = ringFaultConfig();
    cfg.faults = "link:2>3@20";
    cfg.faultRepair = 100;
    Simulation sim(cfg);
    Network &net = sim.net();
    const MsgId id = net.injectMessage(0, 3, 64);
    net.run(3000);
    net.audit();

    const Message &m = net.messages().get(id);
    EXPECT_EQ(m.status, MsgStatus::Delivered);
    EXPECT_GE(m.retries, 1u);
    const SimStats &s = net.stats();
    EXPECT_GE(s.faultKills, 1u);
    EXPECT_GT(s.faultFlitsDropped, 0u);
    EXPECT_EQ(s.abandoned, 0u);
    EXPECT_EQ(s.injected, s.delivered + s.kills);
    // The fault itself produced no deadlock verdicts: nothing here
    // was ever deadlocked, and a dead link must not look like one.
    EXPECT_EQ(s.detections, 0u);
    EXPECT_EQ(s.wFalseDetections, 0u);
}

TEST(Fault, PermanentFaultExhaustsRetriesAndAbandons)
{
    // 0 -> 3 has a unique minimal path through link 2->3; with the
    // link permanently dead every retry is killed at router 2 until
    // the budget runs out and the message is abandoned — without a
    // single (false) deadlock verdict from the NDM.
    SimulationConfig cfg = ringFaultConfig();
    cfg.faults = "link:2>3@5";
    cfg.maxRetries = 3;
    Simulation sim(cfg);
    Network &net = sim.net();
    const MsgId id = net.injectMessage(0, 3, 16);
    net.run(3000);
    net.audit();

    const Message &m = net.messages().get(id);
    EXPECT_EQ(m.status, MsgStatus::Abandoned);
    EXPECT_EQ(m.retries, 3u);
    const SimStats &s = net.stats();
    EXPECT_EQ(s.abandoned, 1u);
    EXPECT_EQ(s.delivered, 0u);
    EXPECT_EQ(s.injected, s.kills + s.abandoned);
    EXPECT_EQ(net.inFlight(), 0u);
    EXPECT_EQ(s.detections, 0u);
    EXPECT_EQ(s.wFalseDetections, 0u);
}

TEST(Fault, RetryExhaustionWhileLinkMidRepairAbandonsExactlyOnce)
{
    // The worm straddles 2->3 when it faults at cycle 20 and is
    // killed; with a budget of one retry the re-injected attempt is
    // killed again at router 2 (link still down) and abandoned —
    // long before the repair lands at cycle 420. The repair must
    // neither resurrect the abandoned worm nor double-count
    // anything: exactly one abandonment, exactly one repair, and the
    // abandoned status is terminal.
    SimulationConfig cfg = ringFaultConfig();
    cfg.faults = "link:2>3@20";
    cfg.faultRepair = 400;
    cfg.maxRetries = 1;
    Simulation sim(cfg);
    Network &net = sim.net();
    const MsgId id = net.injectMessage(0, 3, 64);

    net.run(300); // fault active, retries burned, repair pending
    {
        const Message &m = net.messages().get(id);
        EXPECT_EQ(m.status, MsgStatus::Abandoned);
        EXPECT_EQ(m.retries, 1u);
    }
    EXPECT_EQ(net.stats().abandoned, 1u);
    EXPECT_EQ(net.stats().faultKills, 2u); // strand + failed retry
    EXPECT_EQ(net.stats().faultsRepaired, 0u);

    net.run(2700); // repair at ~420, then a long quiet tail
    net.audit();
    {
        const Message &m = net.messages().get(id);
        EXPECT_EQ(m.status, MsgStatus::Abandoned)
            << "repair resurrected an abandoned worm";
        EXPECT_EQ(m.retries, 1u);
    }
    const SimStats &s = net.stats();
    EXPECT_EQ(s.abandoned, 1u);
    EXPECT_EQ(s.faultKills, 2u);
    EXPECT_EQ(s.faultsRepaired, 1u);
    EXPECT_EQ(s.delivered, 0u);
    EXPECT_EQ(net.inFlight(), 0u);

    // The repaired link carries fresh traffic again.
    const MsgId id2 = net.injectMessage(0, 3, 16);
    net.run(500);
    EXPECT_EQ(net.messages().get(id2).status, MsgStatus::Delivered);
    EXPECT_EQ(net.stats().abandoned, 1u);
}

TEST(Fault, FaultedPortsNeverInFeasibleSetsUnderLoad)
{
    // Random traffic over a torus with a permanent link fault: at
    // every probe point no routed input VC may point at a faulted
    // port and the full structural invariant set must hold.
    SimulationConfig cfg = torusConfig(0.15);
    cfg.detector = "ndm:32";
    cfg.recovery = "regressive:16";
    cfg.faults = "link:5>6@100";
    cfg.seed = 21;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 10; ++chunk) {
        net.run(200);
        net.audit();
        const RouterParams &rp = net.routerParams();
        for (NodeId n = 0; n < net.numNodes(); ++n) {
            for (PortId p = 0; p < rp.numInPorts(); ++p) {
                for (VcId v = 0; v < rp.vcs; ++v) {
                    const InputVc &vc = net.inputVc(n, p, v);
                    if (vc.routed) {
                        EXPECT_FALSE(net.portFaulty(n, vc.outPort));
                    }
                }
            }
        }
    }
    EXPECT_TRUE(net.portFaulty(5, Topology::outPort(0, true)));
    EXPECT_GT(net.stats().delivered, 100u);
}

TEST(Fault, DeadRouterKillsOccupantsAndTrafficDrains)
{
    // Router 5 dies mid-run: its occupants are killed, it stops
    // injecting, and messages addressed to it burn their retries and
    // are abandoned. Everything else keeps flowing and the books
    // balance exactly after the drain.
    SimulationConfig cfg = torusConfig(0.05);
    cfg.detector = "ndm:32";
    cfg.recovery = "regressive:16";
    cfg.faults = "router:5@500";
    cfg.maxRetries = 2;
    cfg.seed = 33;
    Simulation sim(cfg);
    Network &net = sim.net();
    net.run(1500);
    net.setFlitRate(0.0);
    net.run(4000);
    net.audit();

    ASSERT_NE(net.faultModel(), nullptr);
    EXPECT_EQ(net.faultModel()->activeRouterFaults(), 1u);
    const SimStats &s = net.stats();
    EXPECT_GT(s.abandoned, 0u); // messages addressed to the dead node
    EXPECT_EQ(s.injected, s.delivered + s.kills + s.abandoned);
    EXPECT_EQ(net.inFlight(), 0u);
    // The dead router holds nothing.
    const RouterParams &rp = net.routerParams();
    for (PortId p = 0; p < rp.numInPorts(); ++p)
        for (VcId v = 0; v < rp.vcs; ++v)
            EXPECT_TRUE(net.inputVc(5, p, v).free());
}

TEST(Fault, StochasticFaultsWithRepairKeepBooksBalanced)
{
    // Transient random link faults under sustained load: the
    // conservation law injected == delivered + kills + abandoned +
    // in-flight holds at every probe point, and faults both occur
    // and heal.
    SimulationConfig cfg = torusConfig(0.1);
    cfg.detector = "ndm:32";
    cfg.recovery = "regressive:16";
    cfg.faults = "rate:5e-4";
    cfg.faultRepair = 50;
    cfg.seed = 9;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 10; ++chunk) {
        net.run(200);
        net.audit();
        const SimStats &s = net.stats();
        EXPECT_EQ(s.injected, s.delivered + s.kills + s.abandoned +
                                  net.inFlight());
    }
    const SimStats &s = net.stats();
    EXPECT_GT(s.faultsInjected, 0u);
    EXPECT_GT(s.faultsRepaired, 0u);
    EXPECT_GT(s.delivered, 100u);
}

/** Shared scenario for the acceptance test below. */
struct AcceptanceResult
{
    double deliveredFraction = 0.0;
    double fpRate = 0.0;
    std::uint64_t faultKills = 0;
};

AcceptanceResult
runAcceptance(const char *faults)
{
    SimulationConfig cfg;
    cfg.radix = 8;
    cfg.dims = 2;
    cfg.flitRate = 0.2;
    cfg.detector = "ndm:32";
    cfg.recovery = "regressive:16";
    cfg.oraclePeriod = 128;
    cfg.seed = 5;
    cfg.faults = faults;
    Simulation sim(cfg);
    Network &net = sim.net();
    net.run(2000);
    net.startMeasurement();
    for (int chunk = 0; chunk < 20; ++chunk) {
        net.run(500); // fault (if any) strikes at cycle 5000
        net.audit();
    }
    net.setFlitRate(0.0);
    Cycle drained = 0;
    while ((net.inFlight() > 0 || net.totalQueued() > 0) &&
           drained < 6000) {
        net.run(100);
        drained += 100;
    }
    net.audit();

    const SimStats &s = net.stats();
    AcceptanceResult r;
    const std::uint64_t nonAbandoned = s.generated - s.abandoned;
    r.deliveredFraction =
        double(s.delivered) / double(nonAbandoned);
    r.fpRate = s.wDelivered == 0 ? 0.0
                                 : double(s.wFalseDetections) /
                                       double(s.wDelivered);
    r.faultKills = s.faultKills;
    return r;
}

TEST(Fault, AcceptanceScheduledLinkFaultOn8x8Torus)
{
    // The issue's acceptance scenario: a permanent link fault in the
    // middle of a measured 8x8-torus run at 0.2 flits/cycle/node,
    // with the structural invariant checker on. At least 99 % of the
    // non-abandoned messages must still be delivered, and the
    // oracle-labelled false-positive rate must stay within 2x of the
    // fault-free baseline (plus one count of slack so a zero
    // baseline does not make the bound vacuous).
    const AcceptanceResult base = runAcceptance("");
    const AcceptanceResult faulted =
        runAcceptance("link:12>13@5000");
    EXPECT_GE(faulted.deliveredFraction, 0.99);
    EXPECT_LE(faulted.fpRate, 2.0 * base.fpRate + 1e-3);
    EXPECT_GE(faulted.faultKills, 0u);
}

} // namespace
} // namespace wormnet
