#include "sim/network.hh"

#include "common/contracts.hh"

namespace wormnet
{

void
Network::syncRoutable(NodeId node, PortId port, VcId vc)
{
    InputVc &ivc = inVc(node, port, vc);
    const bool want =
        ivc.msg != kInvalidMsg && !ivc.routed && !ivc.recovering;
    if (want == ivc.inRouteSet)
        return;
    ivc.inRouteSet = want;
    std::uint32_t *masks =
        &routableVcMask_[std::size_t(node) * inPorts_];
    if (want) {
        if (masks[port] == 0)
            routeActive_.insert(node);
        masks[port] |= std::uint32_t(1) << vc;
        return;
    }
    masks[port] &= ~(std::uint32_t(1) << vc);
    if (masks[port] != 0)
        return;
    // The port went idle: the node stays routable while any other
    // input port still holds a routable head.
    for (PortId p = 0; p < inPorts_; ++p) {
        if (masks[p] != 0)
            return;
    }
    routeActive_.erase(node);
}

void
Network::allocOutputVc(NodeId node, PortId port, VcId vc, MsgId msg,
                       PortId src_port, VcId src_vc)
{
    const std::size_t pq = std::size_t(node) * outPorts_ + port;
    OutputVc &out = vcStore_.outAt(pq * vcs_ + vc);
    WORMNET_ASSERT(!out.allocated() && msg != kInvalidMsg);
    out.msg = msg;
    srcSlot_[pq * vcs_ + vc] =
        static_cast<std::uint16_t>(src_port * vcs_ + src_vc);
    std::uint32_t &alloc = outAllocVcMask_[pq];
    if (alloc == 0)
        allocOutMask_[node] |= PortMask(1) << port;
    alloc |= std::uint32_t(1) << vc;
    // Fresh allocations always qualify from the next cycle on: full
    // credit budget, head flit ready and still buffered in the source
    // VC, and routing never grants a recovering head.
    armNextCycle(node, port, vc);
    detActive_.insert(node);
}

void
Network::releaseOutputVc(NodeId node, PortId port, VcId vc)
{
    const std::size_t pq = std::size_t(node) * outPorts_ + port;
    OutputVc &out = vcStore_.outAt(pq * vcs_ + vc);
    WORMNET_ASSERT(out.allocated());
    out.release();
    srcSlot_[pq * vcs_ + vc] = kNoSrcSlot;
    const std::uint32_t bit = std::uint32_t(1) << vc;
    switchCandVcMask_[pq] &= ~bit;
    switchPendVcMask_[pq] &= ~bit;
    std::uint32_t &alloc = outAllocVcMask_[pq];
    alloc &= ~bit;
    if (alloc == 0)
        allocOutMask_[node] &= ~(PortMask(1) << port);
}

void
Network::releaseInputVc(NodeId node, PortId port, VcId vc)
{
    InputVc &ivc = inVc(node, port, vc);
    ivc.release();
    syncRoutable(node, port, vc);
    if (port >= netPorts_) {
        --injVcBusy_[node];
        injMidVcMask_[std::size_t(node) * routerParams_.injPorts +
                      (port - netPorts_)] &= ~(std::uint32_t(1) << vc);
    } else {
        // The lane upstream of this VC can host a new worm again.
        const LinkEnd &up = upstream(node, port);
        if (up.valid())
            downFreeVcMask_[std::size_t(up.node) * outPorts_ +
                            up.port] |= std::uint32_t(1) << vc;
    }
    detector_.onInputVcFreed(node, port, vc);
}

void
Network::replayCredits()
{
    for (const auto &cr : creditReturns_) {
        const std::size_t pq = std::size_t(cr.node) * outPorts_ + cr.port;
        OutputVc &o = vcStore_.outAt(pq * vcs_ + cr.vc);
        ++o.credits;
        WORMNET_ASSERT(o.credits <= routerParams_.bufDepth);
        if (o.credits == 1 && o.allocated()) {
            // An allocated output VC always has a live routed source
            // worm; it only becomes a switch candidate again if that
            // worm has a flit buffered and is not being recovered.
            // Every buffered flit is ready by the next cycle, so the
            // bit goes straight into the candidate mask.
            const InputVc &src =
                slotVc(cr.node, srcSlot_[pq * vcs_ + cr.vc]);
            if (!src.recovering && !src.buf.empty())
                switchCandVcMask_[pq] |= std::uint32_t(1) << cr.vc;
        }
    }
    creditReturns_.clear();
}

void
Network::armNextCycle(NodeId node, PortId port, VcId vc)
{
    const std::size_t pq = std::size_t(node) * outPorts_ + port;
    std::uint32_t &pend = switchPendVcMask_[pq];
    if (pend == 0)
        switchPendPorts_.push_back(static_cast<std::uint32_t>(pq));
    pend |= std::uint32_t(1) << vc;
}

void
Network::armPendingCandidates()
{
    // A word released back to zero and re-armed is listed twice; its
    // second visit ORs zero.
    for (const std::uint32_t pq : switchPendPorts_) {
        switchCandVcMask_[pq] |= switchPendVcMask_[pq];
        switchPendVcMask_[pq] = 0;
    }
    switchPendPorts_.clear();
}

void
Network::pushSource(NodeId node, MsgId msg, bool at_front)
{
    if (at_front)
        sourceQueues_[node].push_front(msg);
    else
        sourceQueues_[node].push_back(msg);
    ++totalQueuedCount_;
}

MsgId
Network::popSource(NodeId node)
{
    const MsgId msg = sourceQueues_[node].front();
    sourceQueues_[node].pop_front();
    --totalQueuedCount_;
    return msg;
}

bool
Network::injectionAllowed(NodeId node) const
{
    const std::uint32_t *alloc =
        &outAllocVcMask_[std::size_t(node) * outPorts_];
    // Branch-free SWAR popcounts: std::popcount is a libgcc call on
    // a baseline x86-64 target, and a bit-clearing loop mispredicts.
    // Both measured slower on the saturated 8-ary 3-cube.
    unsigned busy = 0;
    for (PortId q = 0; q < netPorts_; ++q) {
        std::uint32_t x = alloc[q];
        x -= (x >> 1) & 0x55555555u;
        x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
        x = (x + (x >> 4)) & 0x0f0f0f0fu;
        busy += (x * 0x01010101u) >> 24;
    }
    return busy <= injectionLimitCount_;
}

void
Network::generateAndInject()
{
    // Re-inject messages killed by regressive recovery.
    while (!pendingReinjects_.empty() &&
           pendingReinjects_.top().when <= now_) {
        const MsgId id = pendingReinjects_.top().msg;
        pendingReinjects_.pop();
        Message &m = messages_.get(id);
        WORMNET_ASSERT(m.status == MsgStatus::Killed);
        m.status = MsgStatus::Queued;
        trace(TraceEvent::Reinjected, id, m.src);
        pushSource(m.src, id, true);
    }

    // Every live node draws from its generator each cycle (the
    // arrival process is a per-cycle Bernoulli trial), but only
    // active injectors — a queued message or an in-progress worm —
    // are worth a port/VC scan.
    for (NodeId node = 0; node < numNodes(); ++node) {
        if (nodeOffline(node))
            continue; // dead or drained: no generation, no injection
        if (auto gen = generators_[node].tick()) {
            if (params_.maxSourceQueue == 0 ||
                sourceQueues_[node].size() < params_.maxSourceQueue) {
                const MsgId id = messages_.create(
                    node, gen->dst, gen->length, now_, measuring_);
                ++stats_.generated;
                if (measuring_) {
                    ++stats_.wGenerated;
                    stats_.wGeneratedFlits += gen->length;
                }
                trace(TraceEvent::Generated, id, node);
                pushSource(node, id, false);
            }
        }
        if (injVcBusy_[node] != 0 || !sourceQueues_[node].empty())
            tryStartInjection(node);
    }
}

void
Network::tryStartInjection(NodeId node)
{
    const unsigned vcs = vcs_;
    const std::size_t node_inj =
        std::size_t(node) * routerParams_.injPorts;
    std::uint8_t *inj_rr = &injRr_[node_inj];
    std::uint32_t *inj_mid = &injMidVcMask_[node_inj];
    // Injection never allocates an output VC, so the limit's verdict
    // holds for the whole call.
    const bool limit_ok =
        !params_.injectionLimit || injectionAllowed(node);

    for (unsigned pi = 0; pi < routerParams_.injPorts; ++pi) {
        const PortId port = static_cast<PortId>(netPorts_ + pi);

        // Refill in-progress worms first (1 flit/cycle/port). Only the
        // mid-injection VCs are visited, in the (rr + k) % vcs order:
        // those at or above the pointer ascending, then those below.
        VcId pushed_vc = kInvalidVc;
        const std::uint32_t mid = inj_mid[pi];
        const unsigned rr = inj_rr[pi];
        std::uint32_t part = mid & (~std::uint32_t(0) << rr);
        for (int half = 0; half < 2 && pushed_vc == kInvalidVc;
             ++half) {
            while (part) {
                const VcId v = static_cast<VcId>(__builtin_ctz(part));
                part &= part - 1;
                InputVc &vc = inVc(node, port, v);
                if (vc.buf.count >= routerParams_.bufDepth)
                    continue;
                Message &m = messages_.get(vc.msg);
                WORMNET_ASSERT(m.flitsInjected > 0 &&
                               m.flitsInjected < m.length);
                enqueueFlit(node, port, v, m.id,
                            flitTypeAt(m.flitsInjected, m.length));
                if (++m.flitsInjected == m.length)
                    inj_mid[pi] &= ~(std::uint32_t(1) << v);
                m.lastInjectCycle = now_;
                inj_rr[pi] =
                    static_cast<std::uint8_t>(v + 1u == vcs ? 0 : v + 1);
                pushed_vc = v;
                break;
            }
            part = mid & ~(~std::uint32_t(0) << rr);
        }

        // Source-side stall observation for the timeout mechanisms
        // of Reeves et al. and compressionless routing: any
        // incompletely injected worm that did not push a flit this
        // cycle is reported to the detector. Router-centric
        // detectors never look at these, so the scan is skipped.
        if (detectorWantsInjStall_) {
            std::uint32_t stalled = inj_mid[pi];
            if (pushed_vc != kInvalidVc)
                stalled &= ~(std::uint32_t(1) << pushed_vc);
            while (stalled) {
                const VcId v = static_cast<VcId>(__builtin_ctz(stalled));
                stalled &= stalled - 1;
                const InputVc &vc = inVc(node, port, v);
                if (vc.free() || vc.recovering)
                    continue;
                const Message &m = messages_.get(vc.msg);
                if (m.status != MsgStatus::Active ||
                    m.flitsInjected == 0)
                    continue;
                const bool verdict = detector_.onInjectionStalled(
                    node, port, v, m.id, now_ - m.injectStartCycle,
                    now_ - m.lastInjectCycle, now_);
                if (verdict)
                    handleDetection(m.id);
            }
        }
        if (pushed_vc != kInvalidVc)
            continue;

        // Otherwise try to start a new message on this port. With
        // every injection VC busy there can be no free VC below.
        if (injVcBusy_[node] == injSlots_)
            continue;
        if (sourceQueues_[node].empty())
            continue;
        if (!limit_ok)
            continue;
        VcId free_vc = kInvalidVc;
        for (VcId v = 0; v < vcs; ++v) {
            if (inVc(node, port, v).free()) {
                free_vc = v;
                break;
            }
        }
        if (free_vc == kInvalidVc)
            continue;

        const MsgId id = popSource(node);
        Message &m = messages_.get(id);
        WORMNET_ASSERT(m.status == MsgStatus::Queued);
        m.status = MsgStatus::Active;
        m.injectStartCycle = now_;
        m.lastInjectCycle = now_;
        m.flitsInjected = 1;
        enqueueFlit(node, port, free_vc, id, flitTypeAt(0, m.length));
        if (m.length > 1)
            inj_mid[pi] |= std::uint32_t(1) << free_vc;
        ++inFlight_;
        ++stats_.injected;
        if (measuring_)
            ++stats_.wInjected;
        trace(TraceEvent::InjectStart, id, node, port, free_vc);
    }
}

void
Network::switchAll()
{
    // A plain scan of the node summaries: caching the nonzero ones in
    // a NodeBitset measured no faster, even on 4,096 lightly loaded
    // nodes. Transfers release only their own node's output VCs, so
    // each node's mask is current when it is visited.
    for (NodeId node = 0; node < nNodes_; ++node) {
        if (allocOutMask_[node] == 0)
            continue;
        const PortMask fault_mask = deadOutMask(node);
        const std::size_t node_ports = std::size_t(node) * outPorts_;
        // Ports without an allocated VC have no switch candidates;
        // iterating the mask's set bits ascending preserves the full
        // scan's port order.
        PortMask ports = allocOutMask_[node] & ~fault_mask;
        while (ports) {
            const PortId q = static_cast<PortId>(
                __builtin_ctz(ports));
            ports &= ports - 1;
            const std::size_t pq = node_ports + q;
            // Every candidate can send this cycle, so the winner is
            // the first set bit at or above the round-robin pointer,
            // else the lowest one: the (rr + k) % vcs order.
            const std::uint32_t cand = switchCandVcMask_[pq];
            if (cand == 0)
                continue;
            const std::uint32_t upper =
                cand & (~std::uint32_t(0) << saRr_[pq]);
            const unsigned winner = static_cast<unsigned>(
                __builtin_ctz(upper != 0 ? upper : cand));
            const unsigned slot = srcSlot_[pq * vcs_ + winner];
            InputVc &vc = slotVc(node, slot);
            WORMNET_ASSERT(vc.routed && vc.outPort == q &&
                           vc.outVc == winner && !vc.recovering &&
                           !vc.buf.empty() && vc.allocCycle < now_ &&
                           vc.buf.frontReady(now_));
            transferFlit(node, q, static_cast<VcId>(winner), slot, vc);
            saRr_[pq] = static_cast<std::uint8_t>(
                winner + 1 == vcs_ ? 0 : winner + 1);
            if (txMask_[node] == 0)
                txNodes_.push_back(node);
            txMask_[node] |= PortMask(1) << q;
            detActive_.insert(node);
        }
    }
}

void
Network::transferFlit(NodeId node, PortId out_port, VcId out_vc,
                      unsigned src_slot, InputVc &vc)
{
    const PortId in_port = static_cast<PortId>(src_slot / vcs_);
    const VcId in_vc = static_cast<VcId>(src_slot % vcs_);

    // Inlined popFlit(): the caller already resolved the input VC.
    const MsgId msg = vc.msg;
    const FlitType type = vc.frontType();
    vc.buf.pop();
    const LinkEnd &up = upstream(node, in_port);
    if (up.valid())
        creditReturns_.push_back(
            CreditReturn{up.node, up.port, in_vc});
    if (isTailFlit(type)) {
        Message &m = messages_.get(msg);
        WORMNET_ASSERT(m.numLinks() > 0);
        WORMNET_ASSERT(m.link(0).node == node &&
                       m.link(0).port == in_port &&
                       m.link(0).vc == in_vc);
        m.popFrontLink();
        releaseInputVc(node, in_port, in_vc);
    }
    ++flitHops_;
    const std::size_t pq = std::size_t(node) * outPorts_ + out_port;
    ++txCount_[pq];

    if (out_port >= netPorts_) {
        Message &m = messages_.get(msg);
        ++m.flitsEjected;
        ++stats_.flitsDelivered;
        if (measuring_)
            ++stats_.wFlitsDelivered;
        if (isTailFlit(type)) {
            releaseOutputVc(node, out_port, out_vc);
            markDelivered(msg, false);
        } else if (vc.buf.empty()) {
            // Worm stretched thin: nothing buffered to eject until
            // the next flit arrives from upstream.
            switchCandVcMask_[pq] &= ~(std::uint32_t(1) << out_vc);
        }
        return;
    }

    OutputVc &out = vcStore_.outAt(pq * vcs_ + out_vc);
    WORMNET_ASSERT(out.msg == msg && out.credits > 0);
    if (--out.credits == 0 ||
        (!isTailFlit(type) && vc.buf.empty()))
        switchCandVcMask_[pq] &= ~(std::uint32_t(1) << out_vc);
    const LinkEnd &down = downLinks_[pq];
    WORMNET_ASSERT(down.valid());
    enqueueFlit(down.node, down.port, out_vc, msg, type);
    if (isTailFlit(type))
        releaseOutputVc(node, out_port, out_vc);
}

FlitType
Network::popFlit(NodeId node, PortId port, VcId v)
{
    InputVc &vc = inVc(node, port, v);
    const FlitType type = vc.frontType();
    vc.buf.pop();

    const LinkEnd &up = upstream(node, port);
    if (up.valid())
        creditReturns_.push_back(CreditReturn{up.node, up.port, v});

    if (isTailFlit(type)) {
        Message &m = messages_.get(vc.msg);
        WORMNET_ASSERT(m.numLinks() > 0);
        WORMNET_ASSERT(m.link(0).node == node &&
                       m.link(0).port == port && m.link(0).vc == v);
        m.popFrontLink();
        releaseInputVc(node, port, v);
    }
    return type;
}

void
Network::enqueueFlit(NodeId node, PortId port, VcId v, MsgId msg,
                     FlitType type)
{
    InputVc &vc = inVc(node, port, v);
    if (isHeadFlit(type)) {
        WORMNET_ASSERT(vc.free() && vc.buf.empty());
        Message &m = messages_.get(msg);
        vc.msg = msg;
        // Cached for the routing and switch phases.
        vc.dst = m.dst;
        vc.length = m.length;
        m.pushLink(node, port, v);
        syncRoutable(node, port, v);
        detector_.onChannelOccupied(node, port, v, msg);
        if (port >= netPorts_) {
            ++injVcBusy_[node];
        } else {
            const LinkEnd &up = upstream(node, port);
            if (up.valid())
                downFreeVcMask_[std::size_t(up.node) * outPorts_ +
                                up.port] &=
                    ~(std::uint32_t(1) << v);
        }
    }
    // The VC holds only this worm, whose flits arrive in order.
    WORMNET_ASSERT(vc.msg == msg &&
                   flitTypeAt(vc.buf.front + vc.buf.count, vc.length) ==
                       type);
    const bool was_empty = vc.buf.empty();
    vc.buf.push(now_, routerParams_.bufDepth);
    // A body flit reaching a routed-but-starved worm re-arms its
    // granted output VC as a switch candidate once the flit is ready,
    // in the next cycle (heads are never routed yet, and recovering
    // worms re-qualify on release).
    if (was_empty && vc.routed && !vc.recovering) {
        const std::size_t pq =
            std::size_t(node) * outPorts_ + vc.outPort;
        if (vc.outPort >= netPorts_ ||
            vcStore_.outAt(pq * vcs_ + vc.outVc).credits > 0)
            armNextCycle(node, vc.outPort, vc.outVc);
    }
}

void
Network::markDelivered(MsgId msg, bool via_recovery)
{
    Message &m = messages_.get(msg);
    WORMNET_ASSERT(m.numLinks() == 0);
    WORMNET_ASSERT(m.status == MsgStatus::Active ||
              m.status == MsgStatus::Recovering);
    m.status = MsgStatus::Delivered;
    m.deliverCycle = now_;
    trace(via_recovery ? TraceEvent::DeliveredRecovered
                       : TraceEvent::Delivered,
          msg, m.dst);
    ++stats_.delivered;
    WORMNET_ASSERT(inFlight_ > 0);
    --inFlight_;
    if (via_recovery) {
        m.recovered = true;
        m.flitsEjected = m.length;
        ++stats_.recoveredDeliveries;
    }
    if (measuring_) {
        ++stats_.wDelivered;
        if (via_recovery) {
            ++stats_.wRecoveredDeliveries;
            stats_.wFlitsDelivered += m.length;
        }
        const double lat = static_cast<double>(now_ - m.genCycle);
        stats_.latency.add(lat);
        stats_.latencyHist.add(now_ - m.genCycle);
        if (m.injectStartCycle != kNever)
            stats_.netLatency.add(
                static_cast<double>(now_ - m.injectStartCycle));
    }
}

void
Network::releaseWorm(Message &m)
{
    WORMNET_ASSERT(m.status == MsgStatus::Active ||
              m.status == MsgStatus::Recovering);

    // A worm killed while its header is routed (possible with
    // source-side detection or a fault strike) may hold a forward
    // output allocation whose head flit has not crossed yet; release
    // it explicitly — the per-link walk below only restores
    // *upstream* allocations.
    if (m.numLinks() > 0) {
        const PathLink head = m.headLink();
        const InputVc &hvc = inVc(head.node, head.port, head.vc);
        if (hvc.routed) {
            const OutputVc &o = outVc(head.node, hvc.outPort, hvc.outVc);
            if (o.msg == m.id)
                releaseOutputVc(head.node, hvc.outPort, hvc.outVc);
        }
    }

    for (std::size_t i = 0; i < m.numLinks(); ++i) {
        const PathLink &link = m.link(i);
        WORMNET_ASSERT(inVc(link.node, link.port, link.vc).msg == m.id);

        const LinkEnd &up = upstream(link.node, link.port);
        if (up.valid()) {
            OutputVc &o = outVc(up.node, up.port, link.vc);
            if (o.msg == m.id)
                releaseOutputVc(up.node, up.port, link.vc);
            // The buffer is about to be emptied: the full credit
            // budget is available again.
            o.credits = routerParams_.bufDepth;
        }

        // Releasing the VC also empties its buffer.
        releaseInputVc(link.node, link.port, link.vc);
    }
    m.clearLinks();
    m.flitsInjected = 0;
    m.flitsEjected = 0;
    WORMNET_ASSERT(inFlight_ > 0);
    --inFlight_;
}

} // namespace wormnet
