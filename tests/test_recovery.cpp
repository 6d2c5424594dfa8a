/**
 * @file
 * Tests for the recovery managers: progressive drain semantics
 * (channels freed, delivery latency penalty, blocked neighbours
 * unblocked) and regressive kill/retry semantics (flits removed,
 * credits restored, message re-injected and delivered).
 */

#include <gtest/gtest.h>

#include "core/simulation.hh"
#include "recovery/disha.hh"
#include "recovery/progressive.hh"
#include "recovery/regressive.hh"
#include "sim/oracle.hh"

namespace wormnet
{
namespace
{

/** Ring with an engineered 4-message deadlock (see test_oracle). */
SimulationConfig
ringConfig(const std::string &recovery, const std::string &detector)
{
    SimulationConfig cfg;
    cfg.topology = "torus";
    cfg.radix = 12;
    cfg.dims = 1;
    cfg.vcs = 1;
    cfg.injPorts = 1;
    cfg.ejePorts = 1;
    cfg.flitRate = 0.0;
    cfg.detector = detector;
    cfg.recovery = recovery;
    cfg.injectionLimit = false;
    cfg.oraclePeriod = 16;
    cfg.selection = "firstfit";
    return cfg;
}

void
injectCycle(Network &net)
{
    net.injectMessage(0, 4, 48);
    net.injectMessage(3, 7, 48);
    net.injectMessage(6, 10, 48);
    net.injectMessage(9, 1, 48);
}

TEST(Progressive, ResolvesEngineeredDeadlock)
{
    Simulation sim(ringConfig("progressive", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(3000);
    const SimStats &s = sim.net().stats();
    EXPECT_EQ(s.delivered, 4u);
    EXPECT_GE(s.recoveredDeliveries, 1u);
    EXPECT_EQ(s.kills, 0u);
    EXPECT_EQ(sim.net().inFlight(), 0u);
    EXPECT_TRUE(findDeadlockedMessages(sim.net()).empty());
    // Recovered messages are flagged as such.
    bool any_recovered = false;
    for (MsgId id = 0; id < 4; ++id)
        any_recovered |= sim.net().messages().get(id).recovered;
    EXPECT_TRUE(any_recovered);
}

TEST(Progressive, RecoveredDeliveryPaysLatencyPenalty)
{
    // Recovery spec: 100-cycle software overhead, 10 cycles per hop:
    // the recovered message must be delivered well after drain time.
    Simulation sim(ringConfig("progressive:100:10", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(3000);
    Cycle earliest_recovered = kNever;
    for (MsgId id = 0; id < 4; ++id) {
        const Message &m = sim.net().messages().get(id);
        EXPECT_EQ(m.status, MsgStatus::Delivered);
        if (m.recovered)
            earliest_recovered =
                std::min(earliest_recovered, m.deliverCycle);
    }
    ASSERT_NE(earliest_recovered, kNever);
    // Detection can fire no earlier than t2; drain takes >= length
    // cycles; then the 100-cycle overhead applies.
    EXPECT_GT(earliest_recovered, 16u + 48u + 100u);
}

TEST(Progressive, DrainFreesChannelsCompletely)
{
    // In the simultaneous cycle every member sees its successor
    // still advancing, so all four are marked and absorbed (the
    // paper's acknowledged simultaneous-blocking case); afterwards
    // every VC and credit in the network must be back to idle.
    Simulation sim(ringConfig("progressive:0:0", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(3000);
    EXPECT_EQ(sim.net().stats().delivered, 4u);
    const RouterParams &rp = sim.net().routerParams();
    for (NodeId n = 0; n < sim.net().numNodes(); ++n) {
        for (PortId p = 0; p < rp.numInPorts(); ++p)
            for (VcId v = 0; v < rp.vcs; ++v)
                EXPECT_TRUE(sim.net().inputVc(n, p, v).free());
        for (PortId q = 0; q < rp.numOutPorts(); ++q) {
            for (VcId v = 0; v < rp.vcs; ++v) {
                const OutputVc &out = sim.net().outputVc(n, q, v);
                EXPECT_FALSE(out.allocated());
                EXPECT_EQ(out.credits, rp.bufDepth);
            }
        }
    }
}

TEST(Progressive, StaggeredCycleLeavesNeighboursToProceedNormally)
{
    // A staggered tree (Figure-2 style) whose interior is falsely
    // marked by a crude timeout: recovery absorbs the marked worms,
    // and the messages waiting behind them acquire the freed
    // channels and finish through the network, not via recovery.
    Simulation sim(ringConfig("progressive:0:0", "timeout:24"));
    Network &net = sim.net();
    const MsgId a = net.injectMessage(4, 8, 120); // advancing root
    net.run(6);
    const MsgId b = net.injectMessage(3, 7, 24);
    net.run(30);
    const MsgId c = net.injectMessage(2, 4, 24);
    net.run(3000);
    EXPECT_EQ(net.stats().delivered, 3u);
    // A never blocked long enough to trip the timeout.
    EXPECT_FALSE(net.messages().get(a).recovered);
    // B and/or C were absorbed, but whatever remained proceeded
    // normally once the drains freed their channels.
    EXPECT_GE(net.stats().recoveredDeliveries, 1u);
    (void)b;
    (void)c;
}

TEST(Progressive, PendingCountReturnsToZero)
{
    ProgressiveParams params;
    ProgressiveRecovery rec(params);
    EXPECT_EQ(rec.pending(), 0u);

    Simulation sim(ringConfig("progressive", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(3000);
    // The simulation's own manager has drained everything; probe via
    // stats instead of the standalone instance above.
    EXPECT_EQ(sim.net().inFlight(), 0u);
}

TEST(Regressive, KillsAndRetriesUntilDelivered)
{
    Simulation sim(ringConfig("regressive:16", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(4000);
    const SimStats &s = sim.net().stats();
    EXPECT_EQ(s.delivered, 4u);
    EXPECT_GE(s.kills, 1u);
    EXPECT_EQ(sim.net().inFlight(), 0u);
    EXPECT_TRUE(findDeadlockedMessages(sim.net()).empty());
    bool any_retried = false;
    for (MsgId id = 0; id < 4; ++id)
        any_retried |= sim.net().messages().get(id).retries > 0;
    EXPECT_TRUE(any_retried);
}

TEST(Regressive, KillRestoresChannelState)
{
    // After the dust settles, every VC in the network must be free
    // and every credit restored.
    Simulation sim(ringConfig("regressive:16", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(4000);
    const RouterParams &rp = sim.net().routerParams();
    for (NodeId n = 0; n < sim.net().numNodes(); ++n) {
        for (PortId p = 0; p < rp.numInPorts(); ++p) {
            for (VcId v = 0; v < rp.vcs; ++v) {
                const InputVc &vc = sim.net().inputVc(n, p, v);
                EXPECT_TRUE(vc.free());
                EXPECT_TRUE(vc.buf.empty());
            }
        }
        for (PortId q = 0; q < rp.numOutPorts(); ++q) {
            for (VcId v = 0; v < rp.vcs; ++v) {
                const OutputVc &out = sim.net().outputVc(n, q, v);
                EXPECT_FALSE(out.allocated());
                EXPECT_EQ(out.credits, rp.bufDepth);
            }
        }
    }
}

TEST(Regressive, RetriedMessageCountedOnce)
{
    Simulation sim(ringConfig("regressive:16", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(4000);
    // Exactly 4 deliveries even though some messages were injected
    // multiple times.
    EXPECT_EQ(sim.net().stats().delivered, 4u);
    std::uint64_t injected = sim.net().stats().injected;
    EXPECT_GT(injected, 4u); // re-injections counted as injections
}

TEST(Recovery, SourceTimeoutWithRegressiveResolvesDeadlock)
{
    // The compressionless-routing pairing: injection-stall detection
    // with abort-and-retry recovery. The engineered cycle is killed
    // from the sources and eventually everything is delivered.
    Simulation sim(ringConfig("regressive:16", "inj-stall-timeout:24"));
    injectCycle(sim.net());
    sim.net().run(6000);
    const SimStats &s = sim.net().stats();
    EXPECT_EQ(s.delivered, 4u);
    EXPECT_GE(s.kills, 1u);
    EXPECT_EQ(sim.net().inFlight(), 0u);
}

TEST(Recovery, SourceAgeTimeoutDetectsLongBlockedInjection)
{
    Simulation sim(ringConfig("regressive:16", "src-age-timeout:64"));
    injectCycle(sim.net());
    sim.net().run(6000);
    EXPECT_EQ(sim.net().stats().delivered, 4u);
    EXPECT_EQ(sim.net().inFlight(), 0u);
}

TEST(Disha, SequentialTokenResolvesEngineeredDeadlock)
{
    Simulation sim(ringConfig("disha:1", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(4000);
    const SimStats &s = sim.net().stats();
    EXPECT_EQ(s.delivered, 4u);
    EXPECT_GE(s.recoveredDeliveries, 1u);
    EXPECT_EQ(s.kills, 0u);
    EXPECT_EQ(sim.net().inFlight(), 0u);
    EXPECT_TRUE(findDeadlockedMessages(sim.net()).empty());
}

TEST(Disha, TokenSerialisesConcurrentRecoveries)
{
    // With one token, simultaneous detections queue: at no point are
    // two messages draining at once. Probe via the manager directly.
    DishaParams params;
    params.tokens = 1;
    // (Constructed standalone to check the accessors; the simulation
    // below uses its own instance through the factory.)
    DishaRecovery standalone(params);
    EXPECT_EQ(standalone.pending(), 0u);

    Simulation sim(ringConfig("disha:1:2:8", "ndm:16"));
    injectCycle(sim.net());
    sim.net().run(4000);
    EXPECT_EQ(sim.net().stats().delivered, 4u);
}

TEST(Disha, MoreTokensRecoverFasterUnderManyDeadlocks)
{
    // Deadlock-prone substrate: Disha Concurrent (4 tokens) resolves
    // queued recoveries sooner than Sequential (1 token).
    const auto run_with = [](const char *recovery) {
        SimulationConfig cfg;
        cfg.radix = 4;
        cfg.dims = 2;
        cfg.vcs = 1;
        cfg.flitRate = 0.3;
        // Not = "s": GCC 12 raises a false -Wrestrict on a one-char
        // literal assigned to a std::string.
        cfg.lengths = std::string("s");
        cfg.detector = "ndm:16";
        cfg.recovery = recovery;
        cfg.injectionLimit = false;
        cfg.oraclePeriod = 64;
        cfg.seed = 61;
        Simulation sim(cfg);
        sim.net().run(5000);
        sim.net().setFlitRate(0.0);
        sim.net().run(5000);
        EXPECT_EQ(sim.net().stats().delivered,
                  sim.net().stats().injected);
        return sim.net().stats().maxDeadlockPersistence;
    };
    const Cycle sequential = run_with("disha:1");
    const Cycle concurrent = run_with("disha:4");
    // Both bounded; concurrent no worse than sequential.
    EXPECT_LT(sequential, 4000u);
    EXPECT_LE(concurrent, sequential + 500u);
}

TEST(Disha, RejectsZeroTokens)
{
    EXPECT_THROW(makeRecoveryManager("disha:0"), FatalError);
    EXPECT_NE(makeRecoveryManager("disha:2:4:16")->name().find(
                  "tokens=2"),
              std::string::npos);
}

TEST(Recovery, SourceAgeTimeoutRepeatedlyAbortsBlockedMessage)
{
    // The paper's critique of source-side timeouts made concrete: a
    // message blocked behind a long worm is aborted and re-injected
    // over and over (pure overhead; it was never deadlocked), until
    // the long worm finally drains. A larger threshold avoids the
    // churn — but the right threshold depends on the *other*
    // messages' length, which is exactly the tuning problem NDM
    // removes.
    const auto run_with = [](const char *detector) {
        SimulationConfig cfg;
        cfg.topology = "torus";
        cfg.radix = 8;
        cfg.dims = 1;
        cfg.vcs = 1;
        cfg.injPorts = 1;
        cfg.ejePorts = 1;
        cfg.flitRate = 0.0;
        cfg.detector = detector;
        cfg.recovery = "regressive:8";
        cfg.injectionLimit = false;
        cfg.oraclePeriod = 0;
        cfg.selection = "firstfit";
        Simulation sim(cfg);
        sim.net().injectMessage(1, 4, 128); // long blocker
        sim.net().run(10);
        const MsgId victim = sim.net().injectMessage(0, 2, 16);
        sim.net().run(3000);
        const Message &m = sim.net().messages().get(victim);
        EXPECT_EQ(m.status, MsgStatus::Delivered);
        return m.retries;
    };
    EXPECT_GE(run_with("src-age-timeout:32"), 2u);
    EXPECT_EQ(run_with("src-age-timeout:512"), 0u);
}

TEST(Recovery, RetryBudgetExhaustionAbandonsMessage)
{
    // Same churn scenario as above, but with a 2-retry budget: after
    // the second re-injection the next abort gives up instead of
    // re-queueing, and the victim ends Abandoned while the blocker
    // still delivers normally.
    SimulationConfig cfg;
    cfg.topology = "torus";
    cfg.radix = 8;
    cfg.dims = 1;
    cfg.vcs = 1;
    cfg.injPorts = 1;
    cfg.ejePorts = 1;
    cfg.flitRate = 0.0;
    cfg.detector = "src-age-timeout:32";
    cfg.recovery = "regressive:8:2";
    cfg.injectionLimit = false;
    cfg.oraclePeriod = 0;
    cfg.selection = "firstfit";
    Simulation sim(cfg);
    const MsgId blocker = sim.net().injectMessage(1, 4, 600);
    sim.net().run(10);
    const MsgId victim = sim.net().injectMessage(0, 2, 16);
    sim.net().run(4000);
    const SimStats &s = sim.net().stats();
    EXPECT_EQ(sim.net().messages().get(blocker).status,
              MsgStatus::Delivered);
    const Message &v = sim.net().messages().get(victim);
    EXPECT_EQ(v.status, MsgStatus::Abandoned);
    EXPECT_EQ(v.retries, 2u);
    EXPECT_EQ(s.abandoned, 1u);
    EXPECT_EQ(s.injected, s.delivered + s.kills + s.abandoned);
    EXPECT_EQ(sim.net().inFlight(), 0u);
}

TEST(RecoveryFactory, ParsesSpecs)
{
    EXPECT_NE(makeRecoveryManager("progressive")->name().find(
                  "progressive"),
              std::string::npos);
    EXPECT_NE(
        makeRecoveryManager("progressive:10:2")->name().find("sw=10"),
        std::string::npos);
    EXPECT_NE(
        makeRecoveryManager("regressive:64")->name().find("retry=64"),
        std::string::npos);
    EXPECT_THROW(makeRecoveryManager("teleport"), FatalError);
    EXPECT_THROW(makeRecoveryManager("progressive:x"), FatalError);
}

TEST(Recovery, WorksUnderBackgroundTraffic)
{
    // Sustained traffic on a deadlock-prone single-VC network: with
    // detection + progressive recovery everything keeps flowing.
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.vcs = 1;
    cfg.flitRate = 0.25;
    cfg.detector = "ndm:16";
    cfg.recovery = "progressive";
    cfg.injectionLimit = false;
    cfg.oraclePeriod = 64;
    cfg.seed = 13;
    Simulation sim(cfg);
    sim.net().run(5000);
    sim.net().setFlitRate(0.0);
    sim.net().run(4000);
    const SimStats &s = sim.net().stats();
    EXPECT_EQ(s.delivered, s.injected);
    EXPECT_EQ(sim.net().inFlight(), 0u);
    EXPECT_GT(s.delivered, 500u);
}

TEST(Recovery, RegressiveUnderBackgroundTraffic)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.vcs = 1;
    cfg.flitRate = 0.2;
    cfg.detector = "ndm:16";
    cfg.recovery = "regressive:24";
    cfg.injectionLimit = false;
    cfg.oraclePeriod = 64;
    cfg.seed = 14;
    Simulation sim(cfg);
    sim.net().run(5000);
    sim.net().setFlitRate(0.0);
    sim.net().run(5000);
    const SimStats &s = sim.net().stats();
    // Every kill causes exactly one re-injection (unless the retry
    // budget ran out), so after a full drain:
    // injections == deliveries + kills + abandonments.
    EXPECT_EQ(s.injected, s.delivered + s.kills + s.abandoned);
    EXPECT_EQ(sim.net().inFlight(), 0u);
    EXPECT_EQ(sim.net().totalQueued(), 0u);
    EXPECT_GT(s.delivered, 400u);
}

} // namespace
} // namespace wormnet
