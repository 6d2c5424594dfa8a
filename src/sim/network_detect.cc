#include "sim/network.hh"

#include <algorithm>

#include "recovery/recovery.hh"
#include "sim/oracle.hh"

namespace wormnet
{

void
Network::handleDetection(MsgId msg)
{
    Message &m = messages_.get(msg);
    if (m.status == MsgStatus::Recovering)
        return;
    ++stats_.detections;
    if (measuring_) {
        ++stats_.wDetectionEvents;
        if (m.timesDetected == 0)
            ++stats_.wDetectedMessages;
        const auto &deadlocked = deadlockedNow();
        if (std::binary_search(deadlocked.begin(), deadlocked.end(),
                               msg))
            ++stats_.wTrueDetections;
        else
            ++stats_.wFalseDetections;
    }
    ++m.timesDetected;
    const Cycle seen = msg < deadlockFirstSeen_.size()
                           ? deadlockFirstSeen_[msg]
                           : kNever;
    if (seen != kNever)
        stats_.detectionLatency.add(static_cast<double>(now_ - seen));
    trace(TraceEvent::Detected, msg,
          m.numLinks() > 0 ? m.headLink().node : kInvalidNode);
    if (recovery_)
        recovery_->onDeadlockDetected(msg);
}

void
Network::detectorCycleEnd()
{
    runDetectorCycleEnd();
    // Mirror the detector's cumulative control-plane traffic into the
    // stats block. Assignment (not accumulation): the detector owns
    // the lifetime counters, SimStats just exposes them; window
    // deltas come from the snapshots taken in startWindow().
    const ControlTraffic ct = detector_.controlTraffic();
    stats_.ctrlFlits = ct.flits;
    stats_.ctrlFlitHops = ct.flitHops;
    stats_.ctrlBytes = ct.bytes;
}

void
Network::runDetectorCycleEnd()
{
    if (!detectorIdleStable_) {
        // The detector times even unoccupied channels (ungated PDM),
        // so every node must hear about every cycle. The occupied
        // mask still comes from allocOutMask_ instead of a per-port
        // output-VC scan.
        for (NodeId node = 0; node < numNodes(); ++node) {
            // Dead channels (faulted or admin-removed) are not timed:
            // they will never transmit, so their inactivity says
            // nothing about deadlock.
            const PortMask occupied =
                allocOutMask_[node] & ~detectorDeadMask_[node];
            detector_.onCycleEnd(node, txMask_[node], occupied, now_);
        }
        return;
    }

    // Idle-stable detector: a node with no transmissions and no
    // allocated output VCs receives an idempotent (0, 0) call, so
    // only active nodes need visiting. Each node gets one trailing
    // call after going fully idle so per-channel state sees the
    // transition before the node leaves the set. (Erasing while
    // walking is safe: the word being scanned was copied, and a
    // node erased from a later word would only have received
    // another idempotent idle call.)
    detActive_.forEach([this](NodeId node) {
        const PortMask occupied =
            allocOutMask_[node] & ~detectorDeadMask_[node];
        detector_.onCycleEnd(node, txMask_[node], occupied, now_);
        if (txMask_[node] == 0 && allocOutMask_[node] == 0)
            detActive_.erase(node);
    });
}

const std::vector<MsgId> &
Network::deadlockedNow()
{
    if (oracleCacheCycle_ != now_) {
        oracleCache_ = findDeadlockedMessages(*this);
        oracleCacheCycle_ = now_;
    }
    return oracleCache_;
}

void
Network::oracleTick()
{
    if (params_.oraclePeriod == 0 ||
        now_ % params_.oraclePeriod != 0)
        return;
    const auto &deadlocked = deadlockedNow();
    stats_.currentlyDeadlocked = deadlocked.size();

    // Persistence tracking: how long do true deadlocks last? Entries
    // whose message is no longer deadlocked expire; survivors keep
    // their first-seen cycle.
    deadlockFirstSeen_.resize(messages_.size(), kNever);
    for (const MsgId id : deadlockTracked_) {
        if (!std::binary_search(deadlocked.begin(), deadlocked.end(),
                                id))
            deadlockFirstSeen_[id] = kNever;
    }
    for (const MsgId id : deadlocked) {
        Cycle first = deadlockFirstSeen_[id];
        if (first == kNever) {
            first = now_;
            deadlockFirstSeen_[id] = now_;
            ++stats_.trueDeadlockedMessages;
        }
        stats_.maxDeadlockPersistence =
            std::max(stats_.maxDeadlockPersistence, now_ - first);
    }
    deadlockTracked_ = deadlocked;
}

} // namespace wormnet
