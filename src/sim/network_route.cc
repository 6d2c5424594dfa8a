#include "sim/network.hh"

#include "common/contracts.hh"

namespace wormnet
{

void
Network::resetBlockedHeads()
{
    routeActive_.forEach([this](NodeId node) {
        for (PortId p = 0; p < inPorts_; ++p) {
            std::uint32_t vcm =
                routableVcMask_[std::size_t(node) * inPorts_ + p];
            while (vcm) {
                InputVc &vc = inVc(
                    node, p, static_cast<VcId>(__builtin_ctz(vcm)));
                vcm &= vcm - 1;
                // The next routing failure becomes a fresh first
                // attempt under the new relation, re-seeding the
                // detector's G/P (or blocked-since) state soundly.
                vc.attempted = false;
                vc.lastFeasible = 0;
                vc.headBlockedSince = kNever;
            }
        }
    });
    detector_.onRoutingChanged();
}

void
Network::routeAll()
{
    // Word-at-a-time walk of the active nodes: routing can only
    // shrink the set (grants and recovery verdicts), and a shrunken
    // entry's routeOne is a no-op, exactly as in the exhaustive scan.
    routeActive_.forEach([this](NodeId node) {
        const PortMask fault_mask = deadOutMask(node);
        const unsigned offset = (now_ + node) % inPorts_;
        for (unsigned i = 0; i < inPorts_; ++i) {
            unsigned port = offset + i;
            if (port >= inPorts_)
                port -= inPorts_;
            // Snapshot: a grant clears only the granted VC's bit
            // (already visited), and concurrent recovery marks are
            // re-checked inside routeOne.
            std::uint32_t vcm =
                routableVcMask_[std::size_t(node) * inPorts_ + port];
            while (vcm) {
                const VcId v =
                    static_cast<VcId>(__builtin_ctz(vcm));
                vcm &= vcm - 1;
                routeOne(node, static_cast<PortId>(port), v,
                         fault_mask);
            }
        }
    });
}

bool
Network::downstreamVcFree(NodeId node, PortId out_port, VcId vc) const
{
    if (out_port >= netPorts_)
        return true;
    const LinkEnd &down = downstream(node, out_port);
    if (!down.valid())
        return false; // dangling mesh-edge port
    return inVc(down.node, down.port, vc).free();
}

void
Network::routeOne(NodeId node, PortId port, VcId v,
                  PortMask fault_mask)
{
    InputVc &vc = inVc(node, port, v);
    // Only a head (worm index 0) is routed, once it is ready.
    if (vc.free() || vc.routed || vc.recovering || vc.buf.empty() ||
        vc.buf.front != 0 || !vc.buf.frontReady(now_))
        return;

    routing_->route(node, vc.dst, port, v, candScratch_);

    freeScratch_.clear();
    PortMask feasible = 0;
    const std::uint32_t *alloc =
        &outAllocVcMask_[std::size_t(node) * outPorts_];
    const std::uint32_t *dfree =
        &downFreeVcMask_[std::size_t(node) * outPorts_];
    for (const RouteCandidate &cand : candScratch_) {
        const PortId q = cand.port;
        if ((fault_mask >> q) & 1u)
            continue; // dead link: not a feasible channel
        feasible |= PortMask(1) << q;
        // A VC is takeable when not allocated here and free-and-empty
        // downstream — the same test the per-VC scan made, one load
        // per physical channel instead of three pointer chases per
        // lane, visited in the identical ascending-VC order.
        std::uint32_t mask = cand.vcMask & ~alloc[q] & dfree[q];
        while (mask) {
            const VcId v2 =
                static_cast<VcId>(__builtin_ctz(mask));
            mask &= mask - 1;
            freeScratch_.push_back(PortVc{q, v2});
        }
    }

    if (feasible == 0 && !candScratch_.empty()) {
        // Every channel the routing function offers is faulted: the
        // head can never advance, and judging dead channels would be
        // a guaranteed false deadlock. Hand the worm to the fault
        // path instead of the detector.
        queueFaultKill(vc.msg);
        return;
    }

    if (!freeScratch_.empty()) {
        const PortVc pick =
            params_.selection == VcSelection::Random
                ? freeScratch_[rng_.nextBounded(freeScratch_.size())]
                : freeScratch_.front();
        WORMNET_ASSERT(outVc(node, pick.port, pick.vc).credits ==
                  routerParams_.bufDepth);
        allocOutputVc(node, pick.port, pick.vc, vc.msg, port, v);
        vc.routed = true;
        vc.outPort = pick.port;
        vc.outVc = pick.vc;
        vc.allocCycle = now_;
        vc.attempted = false;
        vc.lastFeasible = 0;
        vc.headBlockedSince = kNever;
        syncRoutable(node, port, v);
        detector_.onMessageRouted(node, port, v, vc.msg, pick.port,
                                  pick.vc);
        trace(TraceEvent::Routed, vc.msg, node, pick.port, pick.vc);
        return;
    }

    const bool first = !vc.attempted;
    if (first) {
        vc.attempted = true;
        vc.headBlockedSince = now_;
        trace(TraceEvent::Blocked, vc.msg, node, port, v);
    }
    vc.lastFeasible = feasible;
    if (detectorWantsCandidates_) {
        blockedCandScratch_.clear();
        for (const RouteCandidate &cand : candScratch_) {
            if ((fault_mask >> cand.port) & 1u)
                continue;
            blockedCandScratch_.push_back(
                BlockedCandidate{cand.port, cand.vcMask});
        }
        detector_.onBlockedCandidates(
            node, port, v, vc.msg, blockedCandScratch_.data(),
            blockedCandScratch_.size(), now_);
    }
    // The head's own input physical channel has no free VC left.
    bool pc_busy = true;
    for (VcId w = 0; w < vcs_ && pc_busy; ++w)
        pc_busy = !inVc(node, port, w).free();
    const bool verdict = detector_.onRoutingFailed(
        node, port, v, vc.msg, feasible, pc_busy, first, now_);
    if (verdict)
        handleDetection(vc.msg);
}

} // namespace wormnet
