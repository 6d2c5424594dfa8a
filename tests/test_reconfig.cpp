/**
 * @file
 * Online reconfiguration tests: plan grammar, bind-time validation,
 * live epoch application (kill/reroute/settle bookkeeping, admin
 * dead-state composition with faults, routing switches under load)
 * and the offline static analysis of plans.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/simulation.hh"
#include "detector_fixture.hh"
#include "detection/timeout.hh"
#include "routing/routing.hh"
#include "sim/network.hh"
#include "sim/reconfig.hh"
#include "topology/mesh.hh"
#include "traffic/length.hh"
#include "traffic/pattern.hh"

namespace wormnet
{
namespace
{

TEST(ReconfigPlanParse, GrammarAndStableOrdering)
{
    const ReconfigPlan plan = ReconfigPlan::parse(
        "link-:0>1@100,router-:5@50,routing:duato@100,"
        "link+:0>1@200,router+:5@150");
    ASSERT_EQ(plan.edits.size(), 5u);

    // Stable-sorted by activation cycle; same-cycle items keep their
    // spec order (link- before routing at cycle 100).
    EXPECT_EQ(plan.edits[0].kind, ReconfigEdit::Kind::RouterDrain);
    EXPECT_EQ(plan.edits[0].node, 5u);
    EXPECT_EQ(plan.edits[0].at, 50u);

    EXPECT_EQ(plan.edits[1].kind, ReconfigEdit::Kind::LinkDown);
    EXPECT_EQ(plan.edits[1].node, 0u);
    EXPECT_EQ(plan.edits[1].peer, 1u);
    EXPECT_EQ(plan.edits[1].at, 100u);

    EXPECT_EQ(plan.edits[2].kind, ReconfigEdit::Kind::RoutingSwitch);
    EXPECT_EQ(plan.edits[2].routingSpec, "duato");
    EXPECT_EQ(plan.edits[2].at, 100u);

    EXPECT_EQ(plan.edits[3].kind, ReconfigEdit::Kind::RouterRestore);
    EXPECT_EQ(plan.edits[3].at, 150u);

    EXPECT_EQ(plan.edits[4].kind, ReconfigEdit::Kind::LinkUp);
    EXPECT_EQ(plan.edits[4].at, 200u);
}

TEST(ReconfigPlanParse, MalformedSpecsAreFatal)
{
    EXPECT_THROW(ReconfigPlan::parse(""), FatalError);
    EXPECT_THROW(ReconfigPlan::parse("link-:0>1"), FatalError);
    EXPECT_THROW(ReconfigPlan::parse("link-:0@100"), FatalError);
    EXPECT_THROW(ReconfigPlan::parse("nuke:3@100"), FatalError);
    EXPECT_THROW(ReconfigPlan::parse("router-:x@100"), FatalError);
    EXPECT_THROW(ReconfigPlan::parse("routing:@100"), FatalError);
}

TEST(ReconfigBind, RejectsBadPlans)
{
    // 0 and 5 are not neighbours on the 4x4 torus.
    {
        SimulationConfig cfg = torusConfig();
        cfg.reconfig = "link-:0>5@100";
        EXPECT_THROW(Simulation sim(cfg), FatalError);
    }
    // Restore without a matching removal.
    {
        SimulationConfig cfg = torusConfig();
        cfg.reconfig = "link+:0>1@100";
        EXPECT_THROW(Simulation sim(cfg), FatalError);
    }
    {
        SimulationConfig cfg = torusConfig();
        cfg.reconfig = "router+:3@100";
        EXPECT_THROW(Simulation sim(cfg), FatalError);
    }
    // Unknown routing function.
    {
        SimulationConfig cfg = torusConfig();
        cfg.reconfig = "routing:zigzag@100";
        EXPECT_THROW(Simulation sim(cfg), FatalError);
    }
    // Node out of range.
    {
        SimulationConfig cfg = torusConfig();
        cfg.reconfig = "router-:99@100";
        EXPECT_THROW(Simulation sim(cfg), FatalError);
    }
}

TEST(ReconfigLive, LinkRemoveAndRestoreRoundTrip)
{
    SimulationConfig cfg = torusConfig();
    cfg.reconfig = "link-:0>1@100,link+:0>1@400";
    Simulation sim(cfg);
    const ReconfigManager *mgr = sim.reconfigManager();
    ASSERT_NE(mgr, nullptr);

    sim.net().run(50);
    EXPECT_EQ(mgr->activeLinkRemovals(), 0u);
    EXPECT_EQ(mgr->epochs().size(), 0u);
    EXPECT_EQ(sim.net().deadOutMask(0), 0u);

    sim.net().run(100); // now = 150: removal epoch applied
    ASSERT_EQ(mgr->epochs().size(), 1u);
    EXPECT_EQ(mgr->activeLinkRemovals(), 1u);
    EXPECT_NE(sim.net().deadOutMask(0), 0u);
    EXPECT_EQ(mgr->epochs()[0].cycle, 100u);
    EXPECT_EQ(mgr->epochs()[0].edits, 1u);
    EXPECT_FALSE(mgr->planExhausted());

    sim.net().run(300); // now = 450: restore epoch applied
    ASSERT_EQ(mgr->epochs().size(), 2u);
    EXPECT_EQ(mgr->activeLinkRemovals(), 0u);
    EXPECT_EQ(sim.net().deadOutMask(0), 0u);
    EXPECT_TRUE(mgr->planExhausted());

    // Transients resolve: every killed worm reaches a terminal state
    // within the bounded-retry budget.
    sim.net().run(2000);
    EXPECT_TRUE(mgr->settled());
    for (const EpochRecord &e : mgr->epochs()) {
        EXPECT_TRUE(e.settled());
        EXPECT_EQ(e.killed, e.redelivered + e.abandonedOfKilled);
    }
    EXPECT_GT(sim.net().stats().delivered, 0u);
}

TEST(ReconfigLive, RouterDrainTakesIncidentLinksDown)
{
    SimulationConfig cfg = torusConfig();
    cfg.reconfig = "router-:5@100,router+:5@500";
    Simulation sim(cfg);
    const ReconfigManager *mgr = sim.reconfigManager();

    sim.net().run(150);
    EXPECT_TRUE(mgr->drained(5));
    EXPECT_EQ(mgr->activeDrains(), 1u);
    EXPECT_TRUE(sim.net().nodeOffline(5));
    // Every network output port of the drained router is dead, and
    // each neighbour's port toward it as well (4 neighbours on the
    // 2D torus: 1, 4, 6, 9).
    EXPECT_NE(sim.net().deadOutMask(5), 0u);
    for (NodeId nbr : {1u, 4u, 6u, 9u})
        EXPECT_NE(sim.net().deadOutMask(nbr), 0u)
            << "neighbour " << nbr << " keeps sending into router 5";

    sim.net().run(400); // past the restore
    EXPECT_FALSE(mgr->drained(5));
    EXPECT_EQ(mgr->activeDrains(), 0u);
    EXPECT_FALSE(sim.net().nodeOffline(5));
    EXPECT_EQ(sim.net().deadOutMask(5), 0u);
    for (NodeId nbr : {1u, 4u, 6u, 9u})
        EXPECT_EQ(sim.net().deadOutMask(nbr), 0u);

    sim.net().run(2000);
    EXPECT_TRUE(mgr->settled());
}

TEST(ReconfigLive, RoutingSwitchUnderLoad)
{
    SimulationConfig cfg = torusConfig();
    cfg.routing = "tfa";
    cfg.reconfig = "routing:duato@200,routing:dor@600";
    Simulation sim(cfg);
    const ReconfigManager *mgr = sim.reconfigManager();

    EXPECT_EQ(sim.net().routing().name(), "tfa");
    sim.net().run(300);
    EXPECT_EQ(sim.net().routing().name(), "duato");
    ASSERT_EQ(mgr->epochs().size(), 1u);
    EXPECT_EQ(mgr->epochs()[0].routingAfter, "duato");
    // A routing switch kills nothing: granted paths are honoured.
    EXPECT_EQ(mgr->epochs()[0].killed, 0u);

    const std::uint64_t delivered_before = sim.net().stats().delivered;
    sim.net().run(500);
    EXPECT_EQ(sim.net().routing().name(), "dor");
    ASSERT_EQ(mgr->epochs().size(), 2u);
    EXPECT_EQ(mgr->epochs()[1].routingAfter, "dor");
    // Traffic keeps flowing across both switches.
    EXPECT_GT(sim.net().stats().delivered, delivered_before);
    EXPECT_TRUE(mgr->settled());
}

/** Records the last routing failure the network reported. */
class FailureSpy : public NullDetector
{
  public:
    bool
    onRoutingFailed(NodeId, PortId, VcId, MsgId msg, PortMask feasible,
                    bool, bool first, Cycle) override
    {
        lastMsg = msg;
        lastFeasible = feasible;
        lastFirst = first;
        ++failures;
        return false;
    }

    MsgId lastMsg = kInvalidMsg;
    PortMask lastFeasible = 0;
    bool lastFirst = false;
    unsigned failures = 0;
};

TEST(ReconfigLive, RoutingSwapReachesBlockedHeadNextCycle)
{
    // 3x3 mesh, one VC per channel. Long worms A (+x) and C (+y) hold
    // node 0's two outputs while head B, bound for the diagonal
    // neighbour, blocks: fully adaptive routing offers it both ports,
    // dimension order only +x.
    KAryNMesh topo(3, 2);
    UniformPattern pattern(topo);
    FixedLength lengths(16);
    NetworkParams np;
    np.vcs = 1;
    np.injPorts = 3;
    np.ejePorts = 1;
    np.injectionLimit = false;
    np.selection = VcSelection::FirstFit;
    RouterParams rp;
    rp.netPorts = topo.numNetPorts();
    rp.injPorts = np.injPorts;
    rp.ejePorts = np.ejePorts;
    rp.vcs = np.vcs;
    rp.bufDepth = np.bufDepth;
    TrueFullyAdaptiveRouting tfa(topo, rp);
    DimensionOrderRouting dor(topo, rp);
    FailureSpy spy;
    Network net(topo, np, tfa, spy, nullptr, pattern, lengths, 0.0, 3);

    const PortId px = Topology::outPort(0, true);
    const PortId py = Topology::outPort(1, true);
    const NodeId east = topo.neighbor(0, 0, true);
    const NodeId north = topo.neighbor(0, 1, true);
    const NodeId diag = topo.neighbor(east, 1, true);
    const MsgId a = net.injectMessage(0, east, 64);
    const MsgId c = net.injectMessage(0, north, 64);
    net.run(4);
    ASSERT_EQ(net.outputVc(0, px, 0).msg, a);
    ASSERT_EQ(net.outputVc(0, py, 0).msg, c);

    const MsgId b = net.injectMessage(0, diag, 8);
    const InputVc *head = nullptr;
    for (int i = 0; i < 8 && !(head && head->attempted); ++i) {
        net.step();
        for (PortId p = rp.netPorts; p < rp.numInPorts(); ++p)
            if (net.inputVc(0, p, 0).msg == b)
                head = &net.inputVc(0, p, 0);
    }
    ASSERT_NE(head, nullptr);
    ASSERT_TRUE(head->attempted);
    const PortMask both = (PortMask(1) << px) | (PortMask(1) << py);
    EXPECT_EQ(head->lastFeasible, both);
    EXPECT_EQ(spy.lastMsg, b);
    EXPECT_EQ(spy.lastFeasible, both);

    net.setRoutingFunction(dor);
    net.resetBlockedHeads();
    EXPECT_FALSE(head->attempted);
    EXPECT_EQ(head->lastFeasible, 0u);

    const unsigned failures = spy.failures;
    net.step();
    // The next attempt is a fresh first try under the new relation.
    ASSERT_FALSE(head->routed);
    EXPECT_TRUE(head->attempted);
    EXPECT_EQ(head->lastFeasible, PortMask(1) << px);
    EXPECT_EQ(spy.failures, failures + 1);
    EXPECT_EQ(spy.lastMsg, b);
    EXPECT_TRUE(spy.lastFirst);
    EXPECT_EQ(spy.lastFeasible, PortMask(1) << px);
    net.audit();
}

TEST(ReconfigLive, SaturatedEpochKillsAndRedeliversWorms)
{
    // Near saturation a removed link is guaranteed to strand worms;
    // the epoch record must account for every one of them.
    SimulationConfig cfg = torusConfig(0.6);
    cfg.reconfig = "link-:0>1@400,link-:1>0@400,link+:0>1@1200,"
                   "link+:1>0@1200";
    Simulation sim(cfg);
    const ReconfigManager *mgr = sim.reconfigManager();

    sim.net().run(500);
    ASSERT_EQ(mgr->epochs().size(), 1u);
    const EpochRecord &removal = mgr->epochs()[0];
    EXPECT_EQ(removal.edits, 2u);
    EXPECT_GT(removal.killed + removal.rerouted, 0u)
        << "removing a saturated link disturbed no worm at all";

    sim.net().run(3000);
    ASSERT_EQ(mgr->epochs().size(), 2u);
    EXPECT_TRUE(mgr->settled());
    EXPECT_EQ(mgr->epochs()[0].killed,
              mgr->epochs()[0].redelivered +
                  mgr->epochs()[0].abandonedOfKilled);
    EXPECT_LE(mgr->epochs()[0].settleCycle, sim.net().now());
    // No worm outlives the oracle as a phantom deadlock.
    EXPECT_TRUE(sim.net().deadlockedNow().empty());
}

TEST(ReconfigLive, AdminAndFaultCausesCompose)
{
    // The same link is both faulted (repairable) and admin-removed;
    // it must stay dead until *both* causes clear.
    SimulationConfig cfg = torusConfig();
    cfg.faults = "link:0>1@100";
    cfg.faultRepair = 300; // fault heals at ~400
    cfg.reconfig = "link-:0>1@200,link+:0>1@800";
    Simulation sim(cfg);
    const ReconfigManager *mgr = sim.reconfigManager();

    sim.net().run(150); // fault only
    EXPECT_NE(sim.net().deadOutMask(0), 0u);
    EXPECT_EQ(mgr->activeLinkRemovals(), 0u);

    sim.net().run(350); // now = 500: fault healed, admin still down
    EXPECT_GE(sim.net().stats().faultsRepaired, 1u);
    EXPECT_EQ(mgr->activeLinkRemovals(), 1u);
    EXPECT_NE(sim.net().deadOutMask(0), 0u)
        << "repair resurrected an admin-removed link";

    sim.net().run(400); // now = 900: admin restore clears last cause
    EXPECT_EQ(mgr->activeLinkRemovals(), 0u);
    EXPECT_EQ(sim.net().deadOutMask(0), 0u);

    sim.net().run(2000);
    EXPECT_TRUE(mgr->settled());
}

TEST(ReconfigStatic, PlanAnalysisTracksEpochs)
{
    SimulationConfig cfg = torusConfig();
    cfg.routing = "dor"; // acyclic on the dateline torus
    Simulation sim(cfg);

    const ReconfigPlan plan = ReconfigPlan::parse(
        "link-:0>1@100,routing:tfa@300,link+:0>1@500");
    const std::vector<EpochStaticResult> results = analyzePlanStatic(
        plan, sim.net().topology(), sim.net().routerParams(), "dor");

    // Initial snapshot + one entry per epoch.
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].cycle, 0u);
    EXPECT_EQ(results[0].edits, 0u);
    EXPECT_EQ(results[0].routing, "dor");

    EXPECT_EQ(results[1].cycle, 100u);
    EXPECT_EQ(results[1].routing, "dor");

    EXPECT_EQ(results[2].cycle, 300u);
    EXPECT_EQ(results[2].routing, "tfa");
    // Unrestricted fully adaptive routing on a torus is cyclic.
    EXPECT_EQ(results[2].report.verdict,
              CdgVerdict::CyclicDependencies);

    EXPECT_EQ(results[3].cycle, 500u);
    EXPECT_EQ(results[3].routing, "tfa");
}

TEST(ReconfigStatic, OfflineAnalysisRejectsBadPlans)
{
    SimulationConfig cfg = torusConfig();
    Simulation sim(cfg);
    const Topology &topo = sim.net().topology();
    const RouterParams &params = sim.net().routerParams();

    EXPECT_THROW(analyzePlanStatic(ReconfigPlan::parse("link-:0>5@1"),
                                   topo, params, "tfa"),
                 FatalError);
    EXPECT_THROW(analyzePlanStatic(ReconfigPlan::parse("link+:0>1@1"),
                                   topo, params, "tfa"),
                 FatalError);
    EXPECT_THROW(
        analyzePlanStatic(ReconfigPlan::parse("routing:zigzag@1"),
                          topo, params, "tfa"),
        FatalError);
}

TEST(ReconfigLive, CrossCheckRecordsStaticVerdicts)
{
    SimulationConfig cfg = torusConfig();
    cfg.reconfig = "link-:0>1@100,link+:0>1@300";
    Simulation sim(cfg);
    sim.net().run(400);

    const ReconfigManager *mgr = sim.reconfigManager();
    ASSERT_EQ(mgr->epochs().size(), 2u);
    for (const EpochRecord &e : mgr->epochs())
        EXPECT_FALSE(e.staticVerdict.empty());

    // Cross-checking off: no verdict is recorded.
    SimulationConfig off = cfg;
    off.reconfigCheck = false;
    Simulation sim2(off);
    sim2.net().run(400);
    for (const EpochRecord &e : sim2.reconfigManager()->epochs())
        EXPECT_TRUE(e.staticVerdict.empty());
}

} // namespace
} // namespace wormnet
