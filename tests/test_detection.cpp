/**
 * @file
 * White-box unit tests for the detection mechanisms, driving the hook
 * interface directly (no network): NDM counter/I/DT transitions, G/P
 * flag protocol and re-arm policies; PDM counter semantics; timeout
 * behaviour; factory parsing.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "detection/detector.hh"
#include "detection/ndm.hh"
#include "detection/pdm.hh"
#include "detection/source_timeout.hh"
#include "detection/timeout.hh"
#include "detector_fixture.hh"

namespace wormnet
{
namespace
{

TEST(Ndm, CounterAndFlagsFollowThresholds)
{
    NdmDetector det(NdmParams{1, 8, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;

    idleCycles(det, 1, 0x1, now);
    EXPECT_EQ(det.counter(0, 0), 1u);
    EXPECT_FALSE(det.iFlag(0, 0)); // counter == t1, not yet over
    idleCycles(det, 1, 0x1, now);
    EXPECT_TRUE(det.iFlag(0, 0));
    EXPECT_FALSE(det.dtFlag(0, 0));
    idleCycles(det, 7, 0x1, now);
    EXPECT_TRUE(det.dtFlag(0, 0)); // counter 9 > t2=8
}

TEST(Ndm, TransmissionResetsCountersAndFlags)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    idleCycles(det, 6, 0x1, now);
    EXPECT_TRUE(det.dtFlag(0, 0));
    det.onCycleEnd(0, /*tx=*/0x1, 0x1, now++);
    EXPECT_EQ(det.counter(0, 0), 0u);
    EXPECT_FALSE(det.iFlag(0, 0));
    EXPECT_FALSE(det.dtFlag(0, 0));
}

TEST(Ndm, UnoccupiedChannelDoesNotCount)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    idleCycles(det, 10, /*occupied=*/0x0, now);
    EXPECT_EQ(det.counter(0, 0), 0u);
    EXPECT_FALSE(det.iFlag(0, 0));
}

TEST(Ndm, FirstAttemptFreeVcGivesPropagate)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    // Input PC not fully busy -> P, never a verdict.
    EXPECT_FALSE(det.onRoutingFailed(0, 1, 0, 7, 0x3,
                                     /*fully_busy=*/false,
                                     /*first=*/true, 0));
    EXPECT_FALSE(det.gpFlag(0, 1));
}

TEST(Ndm, FirstAttemptAdvancingOccupantGivesGenerate)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    // Output 0 idle long (I set); output 1 active (I clear).
    idleCycles(det, 3, 0x3, now);
    det.onCycleEnd(0, /*tx=*/0x2, 0x3, now++);
    EXPECT_TRUE(det.iFlag(0, 0));
    EXPECT_FALSE(det.iFlag(0, 1));
    // Feasible {0,1}: occupant of 1 still advancing -> G.
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now));
    EXPECT_TRUE(det.gpFlag(0, 2));
}

TEST(Ndm, FirstAttemptAllBlockedGivesPropagate)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    idleCycles(det, 4, 0x3, now); // both outputs idle-occupied: I set
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now));
    EXPECT_FALSE(det.gpFlag(0, 2));
}

TEST(Ndm, DetectsOnlyWithGenerateAndAllDt)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    // Make output 1 look active so the first attempt yields G.
    det.onCycleEnd(0, /*tx=*/0x2, 0x3, now++);
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now));
    EXPECT_TRUE(det.gpFlag(0, 2));

    // DT not yet set: no verdict.
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, false, now));

    idleCycles(det, 6, 0x3, now); // counters exceed t2 on both
    EXPECT_TRUE(det.dtFlag(0, 0));
    EXPECT_TRUE(det.dtFlag(0, 1));
    EXPECT_TRUE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, false, now));
}

TEST(Ndm, PropagateSuppressesDetection)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    idleCycles(det, 3, 0x3, now);
    // First attempt with all feasible blocked -> P.
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now));
    idleCycles(det, 10, 0x3, now); // DT set everywhere
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, false, now));
}

TEST(Ndm, PartialDtSuppressesDetection)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    det.onCycleEnd(0, 0x2, 0x3, now++); // G condition
    det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now);
    idleCycles(det, 10, 0x3, now);
    det.onCycleEnd(0, /*tx=*/0x2, 0x3, now++); // output 1 DT reset
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, false, now));
}

TEST(Ndm, RoutedAndFreedResetToPropagate)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    det.onCycleEnd(0, 0x2, 0x3, now++);
    det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now);
    EXPECT_TRUE(det.gpFlag(0, 2));
    det.onMessageRouted(0, 2, 1, 7, 0, 0);
    EXPECT_FALSE(det.gpFlag(0, 2));

    det.onCycleEnd(0, 0x2, 0x3, now++);
    det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now);
    EXPECT_TRUE(det.gpFlag(0, 2));
    det.onInputVcFreed(0, 2, 0);
    EXPECT_FALSE(det.gpFlag(0, 2));
}

TEST(Ndm, ResetOnOtherVcOfInputChannelSuppressesDetection)
{
    // The G/P flag is per input *physical* channel: any VC of a
    // G-flagged input freeing (or routing) proves the channel is not
    // wedged, so the flag must fall back to P and the pending
    // detection must be suppressed — even when the blocked head sits
    // on a different VC of that channel.
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    det.onCycleEnd(0, /*tx=*/0x2, 0x3, now++); // G condition
    det.onRoutingFailed(0, 2, /*in_vc=*/0, 7, 0x3, true, true, now);
    EXPECT_TRUE(det.gpFlag(0, 2));
    idleCycles(det, 6, 0x3, now); // DT set on both outputs
    // VC 1 of input 2 frees (a different worm finished draining).
    det.onInputVcFreed(0, 2, /*in_vc=*/1);
    EXPECT_FALSE(det.gpFlag(0, 2));
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, false, now));

    // Same through the routed path: G again, then a worm on VC 2 of
    // the input channel is granted an output.
    det.onCycleEnd(0, /*tx=*/0x2, 0x3, now++);
    det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now);
    EXPECT_TRUE(det.gpFlag(0, 2));
    det.onMessageRouted(0, 2, /*in_vc=*/2, 7, 0, 0);
    EXPECT_FALSE(det.gpFlag(0, 2));
    EXPECT_FALSE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, false, now));
}

TEST(Ndm, ResetClearsWaitStateForSelectiveRearm)
{
    // onMessageRouted/onInputVcFreed must also clear the per-VC
    // wait record; otherwise a later I-flag reset on the output
    // would re-arm an input whose head already moved on.
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    idleCycles(det, 3, 0x3, now); // I set on outputs 0 and 1
    det.onRoutingFailed(0, 1, 0, 7, /*feasible=*/0x1, true, true,
                        now);
    det.onRoutingFailed(0, 2, 0, 8, /*feasible=*/0x1, true, true,
                        now);
    // Input 1's head advances; input 2 keeps waiting on output 0.
    det.onMessageRouted(0, 1, 0, 7, 0, 0);
    det.onCycleEnd(0, /*tx=*/0x1, 0x3, now++); // I reset on output 0
    EXPECT_FALSE(det.gpFlag(0, 1)) << "stale wait record re-armed";
    EXPECT_TRUE(det.gpFlag(0, 2));
}

TEST(Ndm, ReblockAfterResetRegeneratesAndDetects)
{
    // Full flag round trip: G -> reset to P (VC freed) -> fresh
    // first attempt re-evaluates the I flags and re-generates G, and
    // the message is detected once every feasible channel trips DT.
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    det.onCycleEnd(0, /*tx=*/0x2, 0x3, now++);
    det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now);
    EXPECT_TRUE(det.gpFlag(0, 2));
    det.onInputVcFreed(0, 2, 0);
    EXPECT_FALSE(det.gpFlag(0, 2));

    // Output 1 transmits again: its occupant may be a new root.
    det.onCycleEnd(0, /*tx=*/0x2, 0x3, now++);
    det.onRoutingFailed(0, 2, 0, 7, 0x3, true, true, now);
    EXPECT_TRUE(det.gpFlag(0, 2));
    idleCycles(det, 6, 0x3, now); // DT trips on both outputs
    EXPECT_TRUE(
        det.onRoutingFailed(0, 2, 0, 7, 0x3, true, false, now));
}

TEST(Ndm, CoarseRearmFlipsAllFlags)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::AllInRouter});
    det.init(smallCtx());
    Cycle now = 0;
    idleCycles(det, 3, 0x1, now); // I set on output 0
    EXPECT_FALSE(det.gpFlag(0, 1));
    EXPECT_FALSE(det.gpFlag(0, 3));
    // Transmission on output 0 resets its I flag -> re-arm all.
    det.onCycleEnd(0, /*tx=*/0x1, 0x1, now++);
    EXPECT_TRUE(det.gpFlag(0, 1));
    EXPECT_TRUE(det.gpFlag(0, 3));
    // Other routers unaffected.
    EXPECT_FALSE(det.gpFlag(1, 1));
}

TEST(Ndm, SelectiveRearmOnlyFlipsWaiters)
{
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    idleCycles(det, 3, 0x3, now); // I set on outputs 0 and 1
    // Input 1 waits on output 0; input 2 waits on output 1 only.
    det.onRoutingFailed(0, 1, 0, 7, 0x1, true, true, now);
    det.onRoutingFailed(0, 2, 0, 8, 0x2, true, true, now);
    EXPECT_FALSE(det.gpFlag(0, 1));
    EXPECT_FALSE(det.gpFlag(0, 2));
    // Transmission on output 0: only input 1 re-arms.
    det.onCycleEnd(0, /*tx=*/0x1, 0x3, now++);
    EXPECT_TRUE(det.gpFlag(0, 1));
    EXPECT_FALSE(det.gpFlag(0, 2));
}

TEST(Ndm, SelectiveRearmKeepsPortWhileAnotherVcWaits)
{
    // The selective re-arm tracks waiting per input channel: when
    // one of two VCs waiting on output 0 is routed, the channel still
    // has a waiter, and a later I-flag reset on output 0 re-arms it.
    NdmDetector det(NdmParams{1, 4, GpRearmPolicy::WaitersOnChannel});
    det.init(smallCtx());
    Cycle now = 0;
    idleCycles(det, 3, 0x1, now); // I set on output 0
    det.onRoutingFailed(0, 1, 0, 7, /*feasible=*/0x1, true, true, now);
    det.onRoutingFailed(0, 1, 1, 8, /*feasible=*/0x1, true, true, now);
    EXPECT_FALSE(det.gpFlag(0, 1));
    det.onMessageRouted(0, 1, 0, 7, 0, 0);
    EXPECT_FALSE(det.gpFlag(0, 1));
    det.onCycleEnd(0, /*tx=*/0x1, 0x1, now++); // I reset on output 0
    EXPECT_TRUE(det.gpFlag(0, 1)) << "VC 1 still waits on output 0";

    // Once the second VC is routed too, no VC of input 1 waits on
    // output 0 and the next reset leaves the channel at P.
    det.onMessageRouted(0, 1, 1, 8, 0, 1);
    EXPECT_FALSE(det.gpFlag(0, 1));
    idleCycles(det, 3, 0x1, now);
    det.onCycleEnd(0, /*tx=*/0x1, 0x1, now++);
    EXPECT_FALSE(det.gpFlag(0, 1)) << "stale waiter re-armed";
}

TEST(Ndm, RearmOnlyWhenIFlagWasSet)
{
    NdmDetector det(NdmParams{1, 8, GpRearmPolicy::AllInRouter});
    det.init(smallCtx());
    Cycle now = 0;
    // Continuous transmission: I never set, so no re-arm.
    for (int i = 0; i < 5; ++i)
        det.onCycleEnd(0, /*tx=*/0x1, 0x1, now++);
    EXPECT_FALSE(det.gpFlag(0, 0));
    EXPECT_FALSE(det.gpFlag(0, 1));
}

TEST(Ndm, RequiresT1BelowT2)
{
    EXPECT_THROW(
        NdmDetector(NdmParams{8, 8, GpRearmPolicy::AllInRouter}),
        FatalError);
    EXPECT_THROW(
        NdmDetector(NdmParams{16, 8, GpRearmPolicy::AllInRouter}),
        FatalError);
}

TEST(Pdm, CounterCountsEveryIdleCycle)
{
    PdmDetector det(PdmParams{4, false});
    det.init(smallCtx());
    Cycle now = 0;
    // Ungated PDM counts even when unoccupied (the literal ICPP'97
    // description).
    for (int i = 0; i < 6; ++i)
        det.onCycleEnd(0, 0, /*occupied=*/0x0, now++);
    EXPECT_EQ(det.counter(0, 0), 6u);
    EXPECT_TRUE(det.ifFlag(0, 0));
}

TEST(Pdm, GatedVariantFreezesWhenUnoccupied)
{
    PdmDetector det(PdmParams{4, true});
    det.init(smallCtx());
    Cycle now = 0;
    for (int i = 0; i < 6; ++i)
        det.onCycleEnd(0, 0, /*occupied=*/0x0, now++);
    EXPECT_EQ(det.counter(0, 0), 0u);
    for (int i = 0; i < 6; ++i)
        det.onCycleEnd(0, 0, /*occupied=*/0x1, now++);
    EXPECT_EQ(det.counter(0, 0), 6u);
}

TEST(Pdm, DetectsWhenAllFeasibleFlagsSet)
{
    PdmDetector det(PdmParams{4, false});
    det.init(smallCtx());
    Cycle now = 0;
    for (int i = 0; i < 6; ++i)
        det.onCycleEnd(0, 0, 0x3, now++);
    // Both outputs over threshold: verdict on any attempt.
    EXPECT_TRUE(det.onRoutingFailed(0, 1, 0, 7, 0x3, true, true, now));
    // Reset output 1 by transmission: verdict withdrawn.
    det.onCycleEnd(0, /*tx=*/0x2, 0x3, now++);
    EXPECT_FALSE(
        det.onRoutingFailed(0, 1, 0, 7, 0x3, true, false, now));
    // Output 0 alone still suffices if it is the only feasible one.
    EXPECT_TRUE(det.onRoutingFailed(0, 1, 0, 7, 0x1, true, false, now));
}

TEST(Pdm, MarksEveryWaiterNotJustBranchHeads)
{
    // The PDM drawback the paper highlights: all messages waiting on
    // flagged channels are marked, regardless of tree position.
    PdmDetector det(PdmParams{4, false});
    det.init(smallCtx());
    Cycle now = 0;
    for (int i = 0; i < 6; ++i)
        det.onCycleEnd(0, 0, 0x3, now++);
    EXPECT_TRUE(det.onRoutingFailed(0, 1, 0, 7, 0x1, true, true, now));
    EXPECT_TRUE(det.onRoutingFailed(0, 2, 0, 8, 0x2, true, true, now));
    EXPECT_TRUE(det.onRoutingFailed(0, 3, 1, 9, 0x3, true, true, now));
}

TEST(Timeout, FiresAfterThresholdBlockedCycles)
{
    TimeoutDetector det(TimeoutParams{5});
    det.init(smallCtx());
    EXPECT_FALSE(det.onRoutingFailed(0, 1, 0, 7, 0x1, true, true, 10));
    EXPECT_FALSE(
        det.onRoutingFailed(0, 1, 0, 7, 0x1, true, false, 15));
    EXPECT_TRUE(det.onRoutingFailed(0, 1, 0, 7, 0x1, true, false, 16));
}

TEST(Timeout, RoutedResetsClock)
{
    TimeoutDetector det(TimeoutParams{5});
    det.init(smallCtx());
    det.onRoutingFailed(0, 1, 0, 7, 0x1, true, true, 10);
    det.onMessageRouted(0, 1, 0, 7, 0, 0);
    // New head, new first attempt.
    EXPECT_FALSE(
        det.onRoutingFailed(0, 1, 0, 8, 0x1, true, true, 100));
    EXPECT_FALSE(
        det.onRoutingFailed(0, 1, 0, 8, 0x1, true, false, 105));
    EXPECT_TRUE(
        det.onRoutingFailed(0, 1, 0, 8, 0x1, true, false, 106));
}

TEST(Timeout, IgnoresChannelState)
{
    // Crude timeouts fire even while feasible channels are active —
    // exactly why they produce so many false positives.
    TimeoutDetector det(TimeoutParams{3});
    det.init(smallCtx());
    det.onRoutingFailed(0, 1, 0, 7, 0x3, true, true, 0);
    det.onCycleEnd(0, /*tx=*/0x3, 0x3, 1);
    EXPECT_TRUE(det.onRoutingFailed(0, 1, 0, 7, 0x3, true, false, 10));
}

TEST(SourceAgeTimeout, FiresOnMessageAge)
{
    SourceAgeTimeoutDetector det(100);
    det.init(smallCtx());
    // Routing failures never trigger source-side mechanisms.
    EXPECT_FALSE(
        det.onRoutingFailed(0, 1, 0, 7, 0x1, true, false, 99999));
    EXPECT_FALSE(det.onInjectionStalled(0, 2, 0, 7, /*age=*/100,
                                        /*stall=*/500, 600));
    EXPECT_TRUE(det.onInjectionStalled(0, 2, 0, 7, /*age=*/101,
                                       /*stall=*/1, 600));
}

TEST(InjectionStallTimeout, FiresOnStallNotAge)
{
    InjectionStallTimeoutDetector det(32);
    det.init(smallCtx());
    EXPECT_FALSE(det.onInjectionStalled(0, 2, 0, 7, /*age=*/10000,
                                        /*stall=*/32, 600));
    EXPECT_TRUE(det.onInjectionStalled(0, 2, 0, 7, /*age=*/40,
                                       /*stall=*/33, 600));
}

TEST(SourceTimeouts, ZeroThresholdIsFatal)
{
    EXPECT_THROW(SourceAgeTimeoutDetector{0}, FatalError);
    EXPECT_THROW(InjectionStallTimeoutDetector{0}, FatalError);
}

TEST(NullDetector, NeverDetects)
{
    NullDetector det;
    det.init(smallCtx());
    EXPECT_FALSE(
        det.onRoutingFailed(0, 1, 0, 7, 0x3, true, false, 1000));
}

TEST(DetectorFactory, ParsesSpecs)
{
    EXPECT_EQ(makeDetector("none")->name(), "none");

    const auto ndm = makeDetector("ndm:64");
    EXPECT_NE(ndm->name().find("ndm"), std::string::npos);
    EXPECT_NE(ndm->name().find("t2=64"), std::string::npos);
    EXPECT_NE(ndm->name().find("selective"), std::string::npos);

    const auto ndm2 = makeDetector("ndm:64:2:coarse");
    EXPECT_NE(ndm2->name().find("t1=2"), std::string::npos);
    EXPECT_NE(ndm2->name().find("coarse"), std::string::npos);

    const auto pdm = makeDetector("pdm:128:gated");
    EXPECT_NE(pdm->name().find("gated"), std::string::npos);

    const auto to = makeDetector("timeout:256");
    EXPECT_NE(to->name().find("256"), std::string::npos);

    const auto dwfg = makeDetector("dwfg:64:bw=2:hop=3:retry=16");
    EXPECT_EQ(dwfg->name(), "dwfg:t=64:bw=2:hop=3:retry=16");
    EXPECT_TRUE(dwfg->wantsBlockedCandidates());
    EXPECT_FALSE(dwfg->idleCycleEndStable());
    EXPECT_EQ(makeDetector("dwfg")->name(),
              "dwfg:t=32:bw=1:hop=1:retry=8");

    const auto src = makeDetector("src-age-timeout:128");
    EXPECT_NE(src->name().find("src-age"), std::string::npos);
    const auto inj = makeDetector("inj-stall-timeout:64");
    EXPECT_NE(inj->name().find("inj-stall"), std::string::npos);
}

TEST(DetectorFactory, RejectsBadSpecs)
{
    EXPECT_THROW(makeDetector("bogus"), FatalError);
    EXPECT_THROW(makeDetector("ndm:abc"), FatalError);
    EXPECT_THROW(makeDetector("pdm:8:what"), FatalError);
    EXPECT_THROW(makeDetector("dwfg:32:huh"), FatalError);
    EXPECT_THROW(makeDetector("dwfg:bw=0"), FatalError);
    EXPECT_THROW(makeDetector(""), FatalError);
}

} // namespace
} // namespace wormnet
