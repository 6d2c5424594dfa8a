#include "sim/network.hh"

#include "common/contracts.hh"
#include "recovery/recovery.hh"

namespace wormnet
{

void
Network::queueFaultKill(MsgId msg)
{
    Message &m = messages_.get(msg);
    if (m.faultKillQueued)
        return; // worm hit at several points in the same sweep
    m.faultKillQueued = true;
    faultKillQueue_.push_back(msg);
}

void
Network::applyDeadPortChanges()
{
    for (NodeId node = 0; node < numNodes(); ++node) {
        const PortMask cur = deadOutMask(node);
        PortMask diff = cur ^ detectorDeadMask_[node];
        if (diff == 0)
            continue;
        while (diff) {
            const PortId q =
                static_cast<PortId>(__builtin_ctz(diff));
            diff &= diff - 1;
            detector_.onPortFaultChanged(node, q,
                                         (cur >> q) & 1u);
        }
        detectorDeadMask_[node] = cur;
    }
}

void
Network::faultTick()
{
    if (faults_) {
        const bool changed = faults_->tick(now_);
        stats_.faultsInjected = faults_->faultsInjected();
        stats_.faultsRepaired = faults_->faultsRepaired();
        if (changed) {
            // Overlapping fault/admin causes are mediated: the
            // detector hears only *combined* dead-state flips.
            applyDeadPortChanges();
            bool any_down = false;
            for (const FaultChange &c : faults_->changes())
                any_down |= c.faulty;
            if (any_down)
                scanForStrandedWorms();
            processFaultKills();
        }
    }
    // Reconfiguration epochs ride the same machinery, after fault
    // processing so an epoch sees the cycle's final fault state.
    if (reconfig_)
        reconfig_->tick(now_);
}

void
Network::scanForStrandedWorms()
{
    // Callers only invoke this when a link or router actually went
    // down (fault flip or reconfiguration removal); the scan itself
    // is idempotent over the current dead-resource state.
    for (NodeId node = 0; node < numNodes(); ++node) {
        const bool dead_router = nodeOffline(node);
        for (PortId p = 0; p < inPorts_; ++p) {
            for (VcId v = 0; v < vcs_; ++v) {
                InputVc &vc = inVc(node, p, v);
                if (vc.free())
                    continue;
                if (dead_router) {
                    // Anything still buffered in a dead router is
                    // lost.
                    queueFaultKill(vc.msg);
                    continue;
                }
                if (!vc.routed || !portFaulty(node, vc.outPort))
                    continue;
                const Message &m = messages_.get(vc.msg);
                const PathLink &head = m.headLink();
                if (head.node == node && head.port == p &&
                    head.vc == v) {
                    // The worm's head is routed toward the dead link
                    // but no flit has crossed it yet (crossing would
                    // have pushed a new head link): back the decision
                    // out and let the next routing phase pick a live
                    // channel.
                    const OutputVc &out =
                        outVc(node, vc.outPort, vc.outVc);
                    WORMNET_ASSERT(out.msg == vc.msg);
                    WORMNET_ASSERT(out.credits == routerParams_.bufDepth);
                    releaseOutputVc(node, vc.outPort, vc.outVc);
                    vc.routed = false;
                    vc.outPort = kInvalidPort;
                    vc.outVc = kInvalidVc;
                    vc.allocCycle = kNever;
                    vc.attempted = false;
                    vc.headBlockedSince = kNever;
                    syncRoutable(node, p, v);
                    detector_.onRouteRetracted(node, p, v);
                    ++stats_.faultReroutes;
                    trace(TraceEvent::Rerouted, vc.msg, node, p, v);
                } else {
                    // Body/tail flits still feed the dead link: the
                    // worm is cut in two and cannot make progress.
                    queueFaultKill(vc.msg);
                }
            }
        }
    }
}

void
Network::processFaultKills()
{
    for (const MsgId msg : faultKillQueue_) {
        Message &m = messages_.get(msg);
        m.faultKillQueued = false;
        if (m.status != MsgStatus::Active &&
            m.status != MsgStatus::Recovering)
            continue; // e.g. recovery completed it this very cycle
        stats_.faultFlitsDropped += m.flitsInjected - m.flitsEjected;
        ++stats_.faultKills;
        trace(TraceEvent::FaultKilled, msg,
              m.numLinks() > 0 ? m.headLink().node : kInvalidNode);
        if (recovery_)
            recovery_->onMessageKilled(msg);
        if (m.retries >= params_.maxRetries) {
            killAndAbandon(msg);
            continue;
        }
        // Deterministic per-message jitter, as in regressive
        // recovery, so co-stranded messages do not retry in lockstep.
        const Cycle jitter =
            (static_cast<Cycle>(msg) * 2654435761u) %
            (params_.faultRetryDelay + 1);
        killAndRequeue(msg, params_.faultRetryDelay + jitter);
    }
    faultKillQueue_.clear();
}

void
Network::setHeadRecovering(MsgId msg)
{
    const Message &m = messages_.get(msg);
    WORMNET_ASSERT(m.numLinks() > 0);
    const PathLink head = m.headLink();
    InputVc &vc = inVc(head.node, head.port, head.vc);
    WORMNET_ASSERT(vc.msg == msg);
    vc.recovering = true;
    syncRoutable(head.node, head.port, head.vc);
    // A routed head leaving for the recovery path stops competing
    // for the switch; its output VC frees when the worm releases.
    if (vc.routed) {
        const std::size_t pq =
            std::size_t(head.node) * outPorts_ + vc.outPort;
        const std::uint32_t bit = std::uint32_t(1) << vc.outVc;
        switchCandVcMask_[pq] &= ~bit;
        switchPendVcMask_[pq] &= ~bit;
    }
    detector_.onHeadRecovering(head.node, head.port, head.vc);
}

void
Network::killAndRequeue(MsgId msg, Cycle reinject_delay)
{
    Message &m = messages_.get(msg);
    releaseWorm(m);
    m.status = MsgStatus::Killed;
    ++m.retries;
    ++stats_.kills;
    trace(TraceEvent::Killed, msg, m.src);
    if (measuring_)
        ++stats_.wKills;
    pendingReinjects_.push(Reinject{now_ + reinject_delay, msg});
}

void
Network::killAndAbandon(MsgId msg)
{
    Message &m = messages_.get(msg);
    releaseWorm(m);
    m.status = MsgStatus::Abandoned;
    ++stats_.abandoned;
    trace(TraceEvent::Abandoned, msg, m.src);
}

bool
Network::drainHeaderFlit(MsgId msg, FlitType &type)
{
    Message &m = messages_.get(msg);
    WORMNET_ASSERT(m.status == MsgStatus::Recovering);
    WORMNET_ASSERT(m.numLinks() > 0);
    const PathLink head = m.headLink();
    const InputVc &vc = inVc(head.node, head.port, head.vc);
    WORMNET_ASSERT(vc.msg == msg && vc.recovering);
    if (vc.buf.empty() || !vc.buf.frontReady(now_))
        return false;
    type = popFlit(head.node, head.port, head.vc);
    ++m.flitsEjected; // consumed into the recovery buffer
    return true;
}

} // namespace wormnet
