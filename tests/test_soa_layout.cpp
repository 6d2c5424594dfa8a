/**
 * @file
 * Differential tests for the struct-of-arrays hot-path state.
 *
 * The per-cycle core runs off incrementally maintained flat arrays —
 * the VcStore channel state, the slab-allocated worm paths in the
 * MessageStore and the packed switch-candidate VC masks. Every test
 * here constructs its Network with WORMNET_CHECK_ACTIVE_SETS=1, which
 * makes Network::step() run Network::audit() — recompute that derived
 * state by brute force from the authoritative per-VC structs — at the
 * end of every cycle and panic on any divergence, so simply running
 * the scenario under the flag is the assertion. Scenarios are picked
 * to cross every maintenance site: saturation (allocation, credit exhaustion, worms
 * stretched thin), faults (stranded-worm kills, head retraction),
 * recovery drains and online reconfiguration.
 *
 * The checkpoint tests additionally prove the flat layout round-trips
 * through the v3 image with worms mid-flight: restore rebuilds the
 * derived arrays from the serialized authoritative state, and the
 * byte streams of both simulations must stay equal while the audit
 * keeps checking every subsequent cycle.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "audit_guard.hh"
#include "common/serialize.hh"
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
    cfg.seed = 11;
    return cfg;
}

std::vector<std::uint8_t>
snapshot(const Simulation &sim)
{
    Serializer s;
    sim.net().saveState(s);
    return s.bytes();
}

TEST(SoaLayout, CrossCheckSaturatedTraffic)
{
    // Past saturation every switch-candidate transition fires:
    // allocations, credit stalls, empty-fifo stretched worms,
    // credit-replay re-arms and tail releases.
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.5;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 8; ++chunk) {
        net.run(400);
        net.audit();
    }
    EXPECT_GT(net.stats().delivered, 300u);
}

TEST(SoaLayout, CrossCheckFaultsAndRegressiveRecovery)
{
    // Fault kills retract worm heads (releaseOutputVc on live grants)
    // and regressive recovery replays whole worms — both must leave
    // the candidate masks exactly consistent.
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.25;
    cfg.recovery = "regressive:16";
    cfg.faults = "link:5>6@200,router:9@800,rate:2e-5";
    cfg.faultRepair = 400;
    cfg.maxRetries = 4;
    cfg.seed = 23;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 8; ++chunk) {
        net.run(400);
        net.audit();
    }
    EXPECT_GE(net.stats().faultsInjected, 2u);
    EXPECT_GT(net.stats().delivered, 100u);
}

TEST(SoaLayout, CrossCheckOnlineReconfiguration)
{
    // Draining links/routers out of service and re-adding them walks
    // the same head-retraction and release paths as faults but via
    // the reconfiguration manager's quiesce protocol.
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.3;
    cfg.reconfig = "link-:0>1@300,routing:duato@600,link+:0>1@900";
    Simulation sim(cfg);
    Network &net = sim.net();
    for (int chunk = 0; chunk < 6; ++chunk) {
        net.run(300);
        net.audit();
    }
    EXPECT_GT(net.stats().delivered, 100u);
}

TEST(SoaLayout, CheckpointRoundTripWithWormsMidFlight)
{
    // Save at saturation (worms guaranteed mid-flight), restore into
    // a fresh simulation, and require bitwise-equal state at the save
    // point and again after running both forward — with the SoA
    // cross-check auditing the rebuilt derived arrays every cycle.
    AuditEachStepGuard guard;
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.5;

    Simulation a(cfg);
    a.net().run(300);
    a.net().startMeasurement();
    a.net().run(300);
    ASSERT_GT(a.net().inFlight(), 0u)
        << "scenario must checkpoint with worms mid-flight";

    const std::string path =
        ::testing::TempDir() + "wormnet_soa_ckpt.bin";
    a.saveCheckpoint(path);

    Simulation b(cfg);
    b.loadCheckpoint(path);
    std::remove(path.c_str());
    EXPECT_EQ(snapshot(a), snapshot(b))
        << "restored state diverges at the save point";

    a.net().run(600);
    b.net().run(600);
    EXPECT_EQ(a.net().now(), b.net().now());
    EXPECT_EQ(snapshot(a), snapshot(b))
        << "resumed run diverged after the save point";
}

TEST(SoaLayout, CheckFlagDoesNotChangeResults)
{
    // The cross-check must be purely observational: identical stats
    // with and without it.
    SimulationConfig cfg = baseConfig();
    cfg.flitRate = 0.45;

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
}

} // namespace
} // namespace wormnet
