/**
 * @file
 * Deterministic reproductions of the paper's worked examples
 * (Figures 2-5). Figures 1 and 6 are hardware schematics with no
 * behaviour to test; Figure 5's exact channel-handover race (F beats
 * the blocked waiter C to a freed channel) cannot occur in this
 * router model because blocked heads re-arbitrate every cycle, so its
 * re-arm mechanism is covered by the white-box unit tests in
 * test_detection.cpp instead.
 *
 * All scenarios run on a 13-node ring (odd radix: every minimal
 * direction is unique), one virtual channel, one injection and one
 * ejection port, no background traffic, first-fit selection — so the
 * message choreography is fully deterministic.
 *
 * Scenario A (Figure 2): a tree of blocked messages whose root A is
 * advancing. Expected: B (waiting on the advancing A) holds G; C and
 * D (waiting on already-blocked messages) hold P; NDM raises no
 * detection at all; PDM falsely marks C and D ("recovery by two
 * packets"); a crude timeout marks B, C and D.
 *
 * Scenario B (Figures 3-4): A drains away, E takes over its channel
 * and later blocks on D's worm, closing a true deadlock B -> E -> D
 * -> C -> B. Expected: the oracle confirms all four deadlocked; NDM
 * marks exactly B (the message that was waiting on the root
 * position); progressive recovery absorbs B and every message is
 * delivered.
 */

#include <gtest/gtest.h>

#include <memory>

#include "detection/ndm.hh"
#include "detection/pdm.hh"
#include "detection/timeout.hh"
#include "recovery/progressive.hh"
#include "routing/routing.hh"
#include "sim/network.hh"
#include "sim/oracle.hh"
#include "topology/torus.hh"
#include "traffic/length.hh"
#include "traffic/pattern.hh"

namespace wormnet
{
namespace
{

/** Manually wired 13-ring harness with a white-box detector. */
class RingScenario
{
  public:
    explicit RingScenario(DeadlockDetector &det,
                          RecoveryManager *rec = nullptr)
        : topo(13, 1), pattern(topo), lengths(16)
    {
        NetworkParams np;
        np.vcs = 1;
        np.bufDepth = 4;
        np.injPorts = 1;
        np.ejePorts = 1;
        np.injectionLimit = false;
        np.selection = VcSelection::FirstFit;
        np.oraclePeriod = 0;

        RouterParams rp;
        rp.netPorts = topo.numNetPorts();
        rp.injPorts = np.injPorts;
        rp.ejePorts = np.ejePorts;
        rp.vcs = np.vcs;
        rp.bufDepth = np.bufDepth;
        routing =
            std::make_unique<TrueFullyAdaptiveRouting>(topo, rp);

        net = std::make_unique<Network>(topo, np, *routing, det, rec,
                                        pattern, lengths, 0.0,
                                        /*seed=*/1);
    }

    /** Run until @p msg has a blocked head (>= 1 failed attempt). */
    bool
    runUntilBlocked(MsgId msg, Cycle max_cycles)
    {
        for (Cycle i = 0; i < max_cycles; ++i) {
            net->step();
            const Message &m = net->messages().get(msg);
            if (m.status != MsgStatus::Active || m.numLinks() == 0)
                continue;
            const PathLink head = m.headLink();
            const InputVc &vc =
                net->inputVc(head.node, head.port, head.vc);
            if (vc.msg == msg && vc.attempted && !vc.routed)
                return true;
        }
        return false;
    }

    /** The input port a blocked message's head currently sits on. */
    std::pair<NodeId, PortId>
    headInput(MsgId msg) const
    {
        const PathLink head = net->messages().get(msg).headLink();
        return {head.node, head.port};
    }

    KAryNCube topo;
    UniformPattern pattern;
    FixedLength lengths;
    std::unique_ptr<RoutingFunction> routing;
    std::unique_ptr<Network> net;
};

/**
 * Scenario A: the Figure 2 blocked tree.
 *   A: 4 -> 8, 80 flits, streams through channels 4+..7+ while its
 *      destination consumes it (the advancing root).
 *   B: 3 -> 7, blocks at node 4 waiting on channel 4+ (A advancing).
 *   C: 2 -> 4, blocks at node 3 waiting on channel 3+ (B blocked).
 *   D: 10 -> 3, blocks at node 2 waiting on channel 2+ (C blocked).
 */
struct Fig2Messages
{
    MsgId a, b, c, d;
};

Fig2Messages
buildFig2(RingScenario &ring)
{
    Fig2Messages ids{};
    ids.a = ring.net->injectMessage(4, 8, 80);
    ring.net->run(6);
    ids.b = ring.net->injectMessage(3, 7, 24);
    EXPECT_TRUE(ring.runUntilBlocked(ids.b, 60));
    ring.net->run(10); // let channel 3+ go idle behind B
    ids.c = ring.net->injectMessage(2, 4, 24);
    EXPECT_TRUE(ring.runUntilBlocked(ids.c, 60));
    ring.net->run(10);
    ids.d = ring.net->injectMessage(10, 3, 24);
    EXPECT_TRUE(ring.runUntilBlocked(ids.d, 60));
    return ids;
}

TEST(Fig2, GpFlagsMatchTheTreeStructure)
{
    NdmDetector det(
        NdmParams{1, 512, GpRearmPolicy::WaitersOnChannel});
    RingScenario ring(det);
    const Fig2Messages ids = buildFig2(ring);

    // B waits on the advancing root: Generate.
    const auto [bn, bp] = ring.headInput(ids.b);
    EXPECT_EQ(bn, 4u);
    EXPECT_TRUE(det.gpFlag(bn, bp));
    // C and D wait on already-blocked messages: Propagate.
    const auto [cn, cp] = ring.headInput(ids.c);
    EXPECT_EQ(cn, 3u);
    EXPECT_FALSE(det.gpFlag(cn, cp));
    const auto [dn, dp] = ring.headInput(ids.d);
    EXPECT_EQ(dn, 2u);
    EXPECT_FALSE(det.gpFlag(dn, dp));
}

TEST(Fig2, NdmRaisesNoFalseDetection)
{
    // Even with a small threshold, NDM stays quiet: B's channel is
    // active (root advancing) and C/D hold Propagate.
    NdmDetector det(NdmParams{1, 32, GpRearmPolicy::WaitersOnChannel});
    RingScenario ring(det);
    const Fig2Messages ids = buildFig2(ring);

    ring.net->run(600); // A drains; the tree resolves
    EXPECT_EQ(ring.net->stats().detections, 0u);
    for (const MsgId id : {ids.a, ids.b, ids.c, ids.d})
        EXPECT_EQ(ring.net->messages().get(id).status,
                  MsgStatus::Delivered);
}

TEST(Fig2, PdmFalselyMarksTheInteriorOfTheTree)
{
    // The paper's PDM drawback: C and D are marked although nothing
    // is deadlocked ("false deadlock detection and recovery by two
    // packets"). B is spared only because its channel stays active.
    PdmDetector det(PdmParams{32, false});
    RingScenario ring(det);
    const Fig2Messages ids = buildFig2(ring);

    ring.net->run(600);
    const auto detections = [&](MsgId id) {
        return ring.net->messages().get(id).timesDetected;
    };
    EXPECT_EQ(detections(ids.a), 0u);
    EXPECT_EQ(detections(ids.b), 0u);
    EXPECT_GT(detections(ids.c), 0u);
    EXPECT_GT(detections(ids.d), 0u);
    // No recovery manager attached: everything still delivers.
    for (const MsgId id : {ids.a, ids.b, ids.c, ids.d})
        EXPECT_EQ(ring.net->messages().get(id).status,
                  MsgStatus::Delivered);
}

TEST(Fig2, CrudeTimeoutMarksEveryBlockedMessage)
{
    TimeoutDetector det(TimeoutParams{32});
    RingScenario ring(det);
    const Fig2Messages ids = buildFig2(ring);

    ring.net->run(600);
    const auto detections = [&](MsgId id) {
        return ring.net->messages().get(id).timesDetected;
    };
    EXPECT_EQ(detections(ids.a), 0u); // A never blocks
    EXPECT_GT(detections(ids.b), 0u);
    EXPECT_GT(detections(ids.c), 0u);
    EXPECT_GT(detections(ids.d), 0u);
}

/**
 * Scenario B: Figures 3-4. On top of the Figure-2-style tree, A
 * drains away; E grabs A's first channel the moment it frees (its
 * header has been parked at node 5's injection channel) and later
 * blocks on D's worm, closing the cycle:
 *
 *   B holds 3+,4+  waits 5+  (E)   <- G: B was waiting on the root
 *   E holds 5+..9+ waits 10+ (D)   <- P: D already blocked
 *   D holds 10+..1+ waits 2+ (C)   <- P
 *   C holds 2+     waits 3+  (B)   <- P
 */
struct Fig3Messages
{
    MsgId a, b, c, d, e;
};

Fig3Messages
buildFig3(RingScenario &ring)
{
    Fig3Messages ids{};
    ids.a = ring.net->injectMessage(4, 8, 150);
    ring.net->run(6);
    ids.b = ring.net->injectMessage(3, 7, 24);
    EXPECT_TRUE(ring.runUntilBlocked(ids.b, 60));
    ring.net->run(10);
    ids.c = ring.net->injectMessage(2, 4, 24);
    EXPECT_TRUE(ring.runUntilBlocked(ids.c, 60));
    ring.net->run(10);
    ids.d = ring.net->injectMessage(10, 3, 24);
    EXPECT_TRUE(ring.runUntilBlocked(ids.d, 80));
    // E parks at node 5's injection channel while A still streams.
    ids.e = ring.net->injectMessage(5, 11, 24);
    return ids;
}

TEST(Fig3, DeadlockFormsAndOracleConfirmsIt)
{
    NdmDetector det(
        NdmParams{1, 4096, GpRearmPolicy::WaitersOnChannel});
    RingScenario ring(det);
    const Fig3Messages ids = buildFig3(ring);

    // Nothing is deadlocked while A is still draining.
    EXPECT_TRUE(findDeadlockedMessages(*ring.net).empty());

    ring.net->run(400); // A drains; E takes over; E blocks on D
    EXPECT_EQ(ring.net->messages().get(ids.a).status,
              MsgStatus::Delivered);

    const auto deadlocked = findDeadlockedMessages(*ring.net);
    ASSERT_EQ(deadlocked.size(), 4u);
    for (const MsgId id : {ids.b, ids.c, ids.d, ids.e})
        EXPECT_TRUE(std::binary_search(deadlocked.begin(),
                                       deadlocked.end(), id));
}

TEST(Fig3, GenerateFlagsIdentifyTheRootWaiters)
{
    NdmDetector det(
        NdmParams{1, 4096, GpRearmPolicy::WaitersOnChannel});
    RingScenario ring(det);
    const Fig3Messages ids = buildFig3(ring);
    ring.net->run(400);

    ASSERT_EQ(findDeadlockedMessages(*ring.net).size(), 4u);
    // B re-blocked one hop further, directly behind the new root E:
    // it observed E advancing, so it holds Generate.
    const auto [bn, bp] = ring.headInput(ids.b);
    EXPECT_EQ(bn, 5u);
    EXPECT_TRUE(det.gpFlag(bn, bp));
    // C was re-armed to Generate when B (the message it waits on)
    // briefly advanced — the Figure-5 re-arm rule treating B as a
    // potential new root.
    const auto [cn, cp] = ring.headInput(ids.c);
    EXPECT_TRUE(det.gpFlag(cn, cp));
    // D and E blocked on already-idle worms: Propagate.
    for (const MsgId id : {ids.d, ids.e}) {
        const auto [n, p] = ring.headInput(id);
        EXPECT_FALSE(det.gpFlag(n, p)) << "message " << id;
    }
}

TEST(Fig4, OnlyRootWaitersTriggerRecoveryAndAllDeliver)
{
    NdmDetector det(NdmParams{1, 32, GpRearmPolicy::WaitersOnChannel});
    ProgressiveRecovery rec(ProgressiveParams{});
    RingScenario ring(det, &rec);
    const Fig3Messages ids = buildFig3(ring);

    ring.net->run(1500);
    const SimStats &s = ring.net->stats();
    // Only the Generate holders (B, plus C through the Figure-5
    // re-arm) are marked — half the cycle, where PDM marks all four.
    EXPECT_EQ(s.detections, 2u);
    EXPECT_EQ(s.recoveredDeliveries, 2u);
    EXPECT_TRUE(ring.net->messages().get(ids.b).recovered);
    for (const MsgId id : {ids.a, ids.b, ids.c, ids.d, ids.e})
        EXPECT_EQ(ring.net->messages().get(id).status,
                  MsgStatus::Delivered);
    EXPECT_TRUE(findDeadlockedMessages(*ring.net).empty());
}

TEST(Fig4, PdmMarksEveryMessageInTheCycle)
{
    // Contrast: PDM has no Generate/Propagate filtering, so once the
    // cycle persists past the threshold every one of its messages is
    // marked — the recovery-overhead problem NDM removes. (Recovery
    // is disabled here so the deadlock stays in place; with recovery
    // attached, PDM's early false positive on C would dissolve the
    // forming cycle before it closes.)
    PdmDetector det(PdmParams{32, false});
    RingScenario ring(det, /*rec=*/nullptr);
    const Fig3Messages ids = buildFig3(ring);

    ring.net->run(400);
    ASSERT_EQ(findDeadlockedMessages(*ring.net).size(), 4u);
    ring.net->run(200); // let every DT/IF flag trip
    for (const MsgId id : {ids.b, ids.c, ids.d, ids.e})
        EXPECT_GT(ring.net->messages().get(id).timesDetected, 0u)
            << "message " << id;
}

TEST(Fig3, SimultaneousBlockingMarksSeveralMessages)
{
    // The paper's acknowledged corner case: when the messages of a
    // cycle block (nearly) simultaneously, each sees its successor
    // still advancing, so several Generate flags arise and several
    // messages become eligible for recovery.
    NdmDetector det(NdmParams{1, 32, GpRearmPolicy::WaitersOnChannel});
    ProgressiveRecovery rec(ProgressiveParams{});
    RingScenario ring(det, &rec);

    // Symmetric 4-message cycle around a 13-ring, injected together.
    const MsgId m0 = ring.net->injectMessage(0, 4, 48);
    const MsgId m1 = ring.net->injectMessage(3, 7, 48);
    const MsgId m2 = ring.net->injectMessage(6, 10, 48);
    const MsgId m3 = ring.net->injectMessage(9, 1, 48);
    // Check before the detection threshold (32) can fire recovery.
    ring.net->run(40);
    EXPECT_EQ(findDeadlockedMessages(*ring.net).size(), 4u);

    ring.net->run(1500);
    EXPECT_GE(ring.net->stats().detections, 2u);
    for (const MsgId id : {m0, m1, m2, m3})
        EXPECT_EQ(ring.net->messages().get(id).status,
                  MsgStatus::Delivered);
}

} // namespace
} // namespace wormnet
