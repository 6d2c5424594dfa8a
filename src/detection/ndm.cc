#include "detection/ndm.hh"

#include <algorithm>
#include <sstream>

#include "common/contracts.hh"
#include "common/log.hh"

namespace wormnet
{

NdmDetector::NdmDetector(const NdmParams &params) : params_(params)
{
    if (params.t1 >= params.t2)
        fatal("NDM requires t1 << t2; got t1=", params.t1,
              " t2=", params.t2);
}

void
NdmDetector::init(const DetectorContext &ctx)
{
    ctx_ = ctx;
    const std::size_t outs =
        std::size_t(ctx.numRouters) * ctx.numOutPorts;
    const std::size_t ins =
        std::size_t(ctx.numRouters) * ctx.numInPorts;
    since_.assign(outs, 0);
    runMask_.assign(ctx.numRouters, 0);
    lastCycleEnd_.assign(ctx.numRouters, 0);
    gp_.assign(ins, 0); // P everywhere
    waiting_.assign(ins * ctx.vcs, 0);
    faultyOut_.assign(ctx.numRouters, 0);
    waiters_.assign(outs, 0);
}

bool
NdmDetector::onRoutingFailed(NodeId router, PortId in_port, VcId in_vc,
                             MsgId, PortMask feasible_ports,
                             bool input_pc_fully_busy,
                             bool first_attempt, Cycle now)
{
    // A dead output channel never transmits, so its DT/I flags carry
    // no information about the occupant — judging by them would turn
    // every message aimed at the fault into a false deadlock. With no
    // live feasible channel left there is nothing to judge at all
    // (the fault path, not detection, handles such messages).
    feasible_ports &= ~faultyOut_[router];
    if (feasible_ports == 0)
        return false;
    setWaiting(router, in_port, in_vc, feasible_ports);

    if (first_attempt) {
        if (!input_pc_fully_busy) {
            // Not the last arrival on this physical channel: another
            // message can still arrive behind it and will take over
            // the flag.
            gp_[inIdx(router, in_port)] = 0; // P
            return false;
        }
        // Test whether all occupants of the requested channels were
        // already blocked when this message arrived.
        bool all_inactive = true;
        PortMask m = feasible_ports;
        while (m) {
            const unsigned q = static_cast<unsigned>(__builtin_ctz(m));
            m &= m - 1;
            if (!flagAt(router, static_cast<PortId>(q), now,
                        params_.t1)) {
                all_inactive = false;
                break;
            }
        }
        // Some occupant still advancing -> it may be the tree root:
        // Generate. All blocked -> someone upstream holds the root
        // position: Propagate.
        gp_[inIdx(router, in_port)] = all_inactive ? 0 : 1;
        return false;
    }

    // Subsequent attempts: detection requires G plus DT on every
    // feasible output channel.
    if (!gp_[inIdx(router, in_port)])
        return false;
    PortMask m = feasible_ports;
    while (m) {
        const unsigned q = static_cast<unsigned>(__builtin_ctz(m));
        m &= m - 1;
        if (!flagAt(router, static_cast<PortId>(q), now, params_.t2))
            return false;
    }
    return true;
}

void
NdmDetector::onMessageRouted(NodeId router, PortId in_port,
                             VcId in_vc, MsgId, PortId, VcId)
{
    // A worm on this input channel is advancing again: the last
    // arrival is no longer waiting on the root of a blocked tree.
    gp_[inIdx(router, in_port)] = 0; // P
    setWaiting(router, in_port, in_vc, 0);
}

void
NdmDetector::onInputVcFreed(NodeId router, PortId in_port, VcId in_vc)
{
    gp_[inIdx(router, in_port)] = 0; // P
    setWaiting(router, in_port, in_vc, 0);
}

void
NdmDetector::setWaiting(NodeId router, PortId in_port, VcId in_vc,
                        PortMask feasible)
{
    PortMask &mine = waiting_[vcIdx(router, in_port, in_vc)];
    const PortMask changed = mine ^ feasible;
    if (changed == 0)
        return;
    mine = feasible;
    PortMask *waiters = &waiters_[outIdx(router, 0)];
    const PortMask in_bit = PortMask(1) << in_port;
    PortMask m = changed & feasible;
    while (m) {
        waiters[__builtin_ctz(m)] |= in_bit;
        m &= m - 1;
    }
    m = changed & ~feasible;
    if (m == 0)
        return;
    // A channel this VC stopped waiting on keeps the input channel
    // while another of its VCs still waits there.
    for (VcId v = 0; v < ctx_.vcs; ++v)
        m &= ~waiting_[vcIdx(router, in_port, v)];
    while (m) {
        waiters[__builtin_ctz(m)] &= ~in_bit;
        m &= m - 1;
    }
}

std::vector<PortMask>
NdmDetector::computeWaiters() const
{
    std::vector<PortMask> waiters(waiters_.size(), 0);
    for (NodeId r = 0; r < ctx_.numRouters; ++r) {
        for (PortId p = 0; p < ctx_.numInPorts; ++p) {
            for (VcId v = 0; v < ctx_.vcs; ++v) {
                PortMask m = waiting_[vcIdx(r, p, v)];
                while (m) {
                    waiters[outIdx(r, static_cast<PortId>(
                                          __builtin_ctz(m)))] |=
                        PortMask(1) << p;
                    m &= m - 1;
                }
            }
        }
    }
    return waiters;
}

void
NdmDetector::audit() const
{
    const std::vector<PortMask> waiters = computeWaiters();
    for (std::size_t i = 0; i < waiters.size(); ++i)
        WORMNET_ASSERT(waiters_[i] == waiters[i], " (NDM waiters of ",
                       "output channel ", i % ctx_.numOutPorts,
                       " at router ", i / ctx_.numOutPorts, ")");
}

void
NdmDetector::rearm(NodeId router, PortId out_port)
{
    // A previously-inactive channel transmitted: its occupant may have
    // been replaced by a new advancing message — a new potential tree
    // root (Figure 5). Re-arm Propagate flags to Generate.
    if (params_.rearm == GpRearmPolicy::AllInRouter) {
        for (PortId p = 0; p < ctx_.numInPorts; ++p)
            gp_[inIdx(router, p)] = 1; // G
        return;
    }
    // Selective: only input channels with a blocked head that was
    // waiting on this output channel.
    PortMask m = waiters_[outIdx(router, out_port)];
    while (m) {
        gp_[inIdx(router, static_cast<PortId>(__builtin_ctz(m)))] =
            1; // G
        m &= m - 1;
    }
}

void
NdmDetector::onCycleEnd(NodeId router, PortMask tx_mask,
                        PortMask occupied_mask, Cycle now)
{
    occupied_mask &= ~faultyOut_[router];
    PortMask run = runMask_[router];

    // Steady blocked state: nothing transmitted and exactly the
    // already-running channels are occupied — every counter advances
    // implicitly, no per-channel work at all.
    if (tx_mask == 0 && occupied_mask == run) {
        lastCycleEnd_[router] = now;
        return;
    }

    // Transmissions end the idle run; a run longer than t1 means the
    // I flag was set and its reset re-arms P flags to G.
    PortMask m = tx_mask & run;
    while (m) {
        const unsigned q = static_cast<unsigned>(__builtin_ctz(m));
        m &= m - 1;
        if (now - since_[outIdx(router, static_cast<PortId>(q))] >
            params_.t1)
            rearm(router, static_cast<PortId>(q));
        since_[outIdx(router, static_cast<PortId>(q))] = 0;
        run &= ~(PortMask(1) << q);
    }

    // Channels that just became occupied-and-idle start a run; a
    // transmitting channel starts counting next cycle at the
    // earliest, exactly like the counter reset it replaces.
    m = occupied_mask & ~tx_mask & ~run;
    while (m) {
        const unsigned q = static_cast<unsigned>(__builtin_ctz(m));
        m &= m - 1;
        since_[outIdx(router, static_cast<PortId>(q))] = now;
        run |= PortMask(1) << q;
    }

    // Channel drained without a transmission (e.g. worm killed by
    // regressive recovery): no occupant, nothing to time.
    m = run & ~occupied_mask & ~tx_mask;
    while (m) {
        const unsigned q = static_cast<unsigned>(__builtin_ctz(m));
        m &= m - 1;
        since_[outIdx(router, static_cast<PortId>(q))] = 0;
        run &= ~(PortMask(1) << q);
    }

    runMask_[router] = run;
    lastCycleEnd_[router] = now;
}

void
NdmDetector::onPortFaultChanged(NodeId router, PortId out_port,
                                bool faulty)
{
    const PortMask bit = PortMask(1) << out_port;
    if (faulty) {
        faultyOut_[router] |= bit;
        // Forget any inactivity accrued while the channel was alive;
        // it would otherwise trip DT the moment the link is repaired.
        since_[outIdx(router, out_port)] = 0;
        runMask_[router] &= ~bit;
    } else {
        faultyOut_[router] &= ~bit;
    }
}

void
NdmDetector::onRoutingChanged()
{
    // The G/P protocol reasons about which worms wait on which
    // output channels under the *current* routing relation; after a
    // routing switch those dependencies are stale. Reset every input
    // channel to P and forget the waiting masks — blocked heads are
    // re-presented as first attempts and re-seed G/P soundly. The
    // inactivity runs stay: they time physical channel activity,
    // which the routing change does not invalidate.
    std::fill(gp_.begin(), gp_.end(), 0);
    std::fill(waiting_.begin(), waiting_.end(), 0);
    std::fill(waiters_.begin(), waiters_.end(), 0);
}

void
NdmDetector::saveState(Serializer &s) const
{
    for (const Cycle c : since_)
        s.u64(c);
    for (const PortMask m : runMask_)
        s.u32(m);
    for (const Cycle c : lastCycleEnd_)
        s.u64(c);
    for (const std::uint8_t f : gp_)
        s.u8(f);
    for (const PortMask m : waiting_)
        s.u32(m);
    for (const PortMask m : faultyOut_)
        s.u32(m);
}

void
NdmDetector::loadState(Deserializer &d)
{
    for (Cycle &c : since_)
        c = d.u64();
    for (PortMask &m : runMask_)
        m = d.u32();
    for (Cycle &c : lastCycleEnd_)
        c = d.u64();
    for (std::uint8_t &f : gp_)
        f = d.u8();
    for (PortMask &m : waiting_)
        m = d.u32();
    for (PortMask &m : faultyOut_)
        m = d.u32();
    waiters_ = computeWaiters();
}

std::string
NdmDetector::name() const
{
    std::ostringstream os;
    os << "ndm(t1=" << params_.t1 << ", t2=" << params_.t2 << ", "
       << (params_.rearm == GpRearmPolicy::AllInRouter
               ? "coarse"
               : "selective")
       << ")";
    return os.str();
}

Cycle
NdmDetector::counter(NodeId router, PortId out_port) const
{
    if (!((runMask_[router] >> out_port) & 1u))
        return 0;
    return lastCycleEnd_[router] - since_[outIdx(router, out_port)] +
           1;
}

bool
NdmDetector::iFlag(NodeId router, PortId out_port) const
{
    return counter(router, out_port) > params_.t1;
}

bool
NdmDetector::dtFlag(NodeId router, PortId out_port) const
{
    return counter(router, out_port) > params_.t2;
}

bool
NdmDetector::gpFlag(NodeId router, PortId in_port) const
{
    return gp_[inIdx(router, in_port)] != 0;
}

} // namespace wormnet
