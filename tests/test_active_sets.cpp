/**
 * @file
 * Stress tests for the incrementally maintained activity sets that
 * drive the hot simulation loop (routable input VCs, allocated
 * output VCs, active injectors, detector-active nodes and the
 * running source-queue counter).
 *
 * Every test here constructs its Network with
 * WORMNET_CHECK_ACTIVE_SETS=1, which makes Network::step() run
 * Network::audit() (recompute each structure by brute force) at the
 * end of every cycle and panic on any divergence — so simply running
 * mixed traffic, faults and recovery under the flag is the
 * assertion. The scenarios are chosen
 * to cross every maintenance path: injection, routing grants,
 * tail-flit releases, recovery drains, kills with re-injection and
 * fault-stranded worms.
 */

#include <gtest/gtest.h>

#include "audit_guard.hh"
#include "core/simulation.hh"

namespace wormnet
{
namespace
{

SimulationConfig
baseConfig()
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.vcs = 3;
    cfg.bufDepth = 4;
    cfg.detector = "ndm:32";
    cfg.recovery = "progressive";
    cfg.oraclePeriod = 64;
    cfg.seed = 7;
    return cfg;
}

TEST(ActiveSets, CrossCheckUniformTrafficWithDeadlockRecovery)
{
    // Fully adaptive routing near saturation: routing grants, switch
    // traversals, deadlock verdicts and progressive drains all churn
    // the sets every cycle.
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.45;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 8; ++chunk) {
        net.run(500);
        net.audit();
    }
    EXPECT_GT(net.stats().delivered, 500u);
}

TEST(ActiveSets, CrossCheckFaultsAndRegressiveRecovery)
{
    // Link and router faults with repair plus regressive recovery:
    // exercises stranded-worm kills, whole-worm releases, abandoned
    // messages and killed-then-requeued re-injection, all of which
    // must keep every counter exact.
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.2;
    cfg.recovery = "regressive:16";
    cfg.faults = "link:5>6@200,router:9@800,rate:2e-5";
    cfg.faultRepair = 400;
    cfg.maxRetries = 4;
    cfg.seed = 21;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 8; ++chunk) {
        net.run(400);
        net.audit();
    }
    const SimStats &s = net.stats();
    EXPECT_GE(s.faultsInjected, 2u);
    EXPECT_GT(s.delivered, 100u);
}

TEST(ActiveSets, CrossCheckUngatedPdmFullSweep)
{
    // Ungated PDM is the one detector that is not idle-cycle-end
    // stable, so detectorCycleEnd() must take the exhaustive-sweep
    // path; the occupied mask it feeds still comes from
    // allocOutMask_ and is checked against brute force.
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.detector = "pdm:16";
    cfg.flitRate = 0.35;
    Simulation sim(cfg);
    Network &net = sim.net();
    net.run(2000);
    net.audit();
    EXPECT_GT(net.stats().delivered, 200u);
}

TEST(ActiveSets, CrossCheckDishaRecoveryAndHotspot)
{
    // Hotspot traffic concentrates load (long source queues, busy
    // injectors) while DISHA's token drains consume worms link by
    // link from the head — a different release order than
    // progressive's.
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.pattern = "hotspot:0.3:0";
    cfg.recovery = "disha:1";
    cfg.detector = "ndm:16";
    cfg.flitRate = 0.3;
    cfg.maxSourceQueue = 8;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 6; ++chunk) {
        net.run(400);
        net.audit();
    }
    EXPECT_GT(net.stats().delivered, 100u);
}

TEST(ActiveSets, TotalQueuedMatchesQueueSum)
{
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 2.0; // far past saturation: queues actually fill
    cfg.maxSourceQueue = 16;
    Simulation sim(cfg);
    Network &net = sim.net();
    net.run(1500);
    std::size_t sum = 0;
    for (NodeId n = 0; n < net.numNodes(); ++n)
        sum += net.sourceQueueLength(n);
    EXPECT_EQ(net.totalQueued(), sum);
    EXPECT_GT(net.totalQueued(), 0u);
}

TEST(ActiveSets, CheckFlagDoesNotChangeResults)
{
    // The cross-check must be purely observational: identical stats
    // with and without it.
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.4;
    cfg.faults = "link:1>2@300";
    cfg.faultRepair = 200;

    SimStats with_check;
    {
        AuditEachStepGuard guard;
        Simulation sim(cfg);
        sim.net().run(2500);
        with_check = sim.net().stats();
    }
    Simulation plain(cfg);
    plain.net().run(2500);
    const SimStats &s = plain.net().stats();

    EXPECT_EQ(s.generated, with_check.generated);
    EXPECT_EQ(s.injected, with_check.injected);
    EXPECT_EQ(s.delivered, with_check.delivered);
    EXPECT_EQ(s.detections, with_check.detections);
    EXPECT_EQ(s.kills, with_check.kills);
    EXPECT_EQ(s.flitsDelivered, with_check.flitsDelivered);
    EXPECT_EQ(s.faultKills, with_check.faultKills);
}

} // namespace
} // namespace wormnet
