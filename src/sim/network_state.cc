#include "sim/network.hh"

#include <algorithm>

#include "common/contracts.hh"
#include "common/log.hh"
#include "common/serialize.hh"
#include "recovery/recovery.hh"

namespace wormnet
{

void
Network::rebuildDerivedState()
{
    const NodeId n = numNodes();
    routeActive_.init(n);
    routableVcMask_.assign(std::size_t(n) * inPorts_, 0);
    outAllocVcMask_.assign(std::size_t(n) * outPorts_, 0);
    downFreeVcMask_.assign(std::size_t(n) * outPorts_, 0);
    switchCandVcMask_.assign(std::size_t(n) * outPorts_, 0);
    switchPendVcMask_.assign(std::size_t(n) * outPorts_, 0);
    switchPendPorts_.clear();
    allocOutMask_.assign(n, 0);
    injVcBusy_.assign(n, 0);
    injMidVcMask_.assign(std::size_t(n) * routerParams_.injPorts, 0);
    for (NodeId node = 0; node < n; ++node) {
        for (PortId p = 0; p < inPorts_; ++p) {
            for (VcId v = 0; v < vcs_; ++v) {
                InputVc &vc = inVc(node, p, v);
                vc.inRouteSet = false;
                syncRoutable(node, p, v);
                if (vc.free())
                    continue;
                // Derived caches the checkpoint format omits.
                const Message &m = messages_.get(vc.msg);
                vc.dst = m.dst;
                vc.length = m.length;
                if (p >= netPorts_) {
                    ++injVcBusy_[node];
                    if (m.flitsInjected < m.length)
                        injMidVcMask_[std::size_t(node) *
                                          routerParams_.injPorts +
                                      (p - netPorts_)] |=
                            std::uint32_t(1) << v;
                }
            }
        }
        for (PortId q = 0; q < outPorts_; ++q) {
            const std::size_t idx = std::size_t(node) * outPorts_ + q;
            for (VcId v = 0; v < vcs_; ++v) {
                const std::uint32_t bit = std::uint32_t(1) << v;
                if (downstreamVcFree(node, q, v))
                    downFreeVcMask_[idx] |= bit;
                const OutputVc &ovc = outVc(node, q, v);
                if (!ovc.allocated())
                    continue;
                outAllocVcMask_[idx] |= bit;
                const InputVc &src =
                    slotVc(node, srcSlot_[idx * vcs_ + v]);
                if ((q >= netPorts_ || ovc.credits > 0) &&
                    !src.recovering && !src.buf.empty() &&
                    src.allocCycle < now_ && src.buf.frontReady(now_))
                    switchCandVcMask_[idx] |= bit;
            }
            if (outAllocVcMask_[idx] != 0)
                allocOutMask_[node] |= PortMask(1) << q;
        }
        // A restored detector already reflects the dead ports at
        // save time; only the Network's view of it is rebuilt.
        detectorDeadMask_[node] = deadOutMask(node);
    }
}

void
Network::audit() const
{
    // Per-message tallies accumulated while walking the routers.
    std::vector<std::size_t> vc_count(messages_.size(), 0);
    std::vector<std::size_t> flit_count(messages_.size(), 0);
    std::size_t queued = 0;
    std::size_t tx_nodes = 0;
    const unsigned depth = routerParams_.bufDepth;

    for (NodeId node = 0; node < numNodes(); ++node) {
        const PortMask dead = deadOutMask(node);
        WORMNET_ASSERT(detectorDeadMask_[node] == dead, " at ", node);
        // Fault state only changes at the start of step(), and the
        // switch phase skips dead ports: no flit crossed one.
        WORMNET_ASSERT((txMask_[node] & dead) == 0, " at ", node);
        queued += sourceQueues_[node].size();
        tx_nodes += txMask_[node] != 0;

        bool any_routable = false;
        unsigned inj_busy = 0;
        for (PortId p = 0; p < inPorts_; ++p) {
            std::uint32_t routable = 0;
            std::uint32_t inj_mid = 0;
            for (VcId v = 0; v < vcs_; ++v) {
                const InputVc &vc = inVc(node, p, v);
                const bool want =
                    !vc.free() && !vc.routed && !vc.recovering;
                WORMNET_ASSERT(vc.inRouteSet == want, " at ", node,
                               ":", p, ":", unsigned(v));
                routable |= std::uint32_t(want) << v;
                if (vc.free()) {
                    WORMNET_ASSERT(vc.buf.empty() && vc.buf.front == 0 &&
                                       !vc.routed &&
                                       vc.dst == kInvalidNode &&
                                       vc.length == 0,
                                   " at ", node, ":", p, ":",
                                   unsigned(v));
                } else {
                    WORMNET_ASSERT(vc.msg < messages_.size());
                    const Message &m = messages_.get(vc.msg);
                    // The buffer holds a run of this worm's flits that
                    // fits the VC, and every buffered flit is ready by
                    // the cycle about to run.
                    WORMNET_ASSERT(vc.dst == m.dst &&
                                       vc.length == m.length &&
                                       vc.buf.count <= depth &&
                                       vc.buf.front + vc.buf.count <=
                                           m.length &&
                                       vc.buf.newestReadyAt <= now_,
                                   " at ", node, ":", p, ":",
                                   unsigned(v));
                    ++vc_count[vc.msg];
                    flit_count[vc.msg] += vc.buf.count;
                    if (p >= netPorts_) {
                        ++inj_busy;
                        inj_mid |= std::uint32_t(m.flitsInjected <
                                                 m.length)
                                   << v;
                    }
                    if (vc.routed) {
                        const std::size_t out_flat =
                            (std::size_t(node) * outPorts_ +
                             vc.outPort) *
                                vcs_ +
                            vc.outVc;
                        const OutputVc &out = vcStore_.outAt(out_flat);
                        WORMNET_ASSERT(out.msg == vc.msg &&
                                           srcSlot_[out_flat] ==
                                               p * vcs_ + v,
                                       " at ", node, ":", p, ":",
                                       unsigned(v));
                    }
                }
            }
            WORMNET_ASSERT(
                routableVcMask_[std::size_t(node) * inPorts_ + p] ==
                    routable,
                " at ", node, ":", p);
            WORMNET_ASSERT(p < netPorts_ ||
                               injMidVcMask_[std::size_t(node) *
                                                 routerParams_.injPorts +
                                             (p - netPorts_)] == inj_mid,
                           " at ", node, ":", p);
            any_routable |= routable != 0;
        }
        WORMNET_ASSERT(routeActive_.contains(node) == any_routable &&
                           injVcBusy_[node] == inj_busy,
                       " at ", node);

        PortMask alloc_ports = 0;
        for (PortId q = 0; q < outPorts_; ++q) {
            std::uint32_t alloc = 0;
            std::uint32_t dfree = 0;
            std::uint32_t scand = 0;
            const bool eject = q >= netPorts_;
            const LinkEnd &down = downstream(node, q);
            for (VcId v = 0; v < vcs_; ++v) {
                const OutputVc &out = outVc(node, q, v);
                // Credits mirror downstream occupancy; ejection
                // ports never consume them.
                if (eject) {
                    WORMNET_ASSERT(out.credits == depth, " at ", node,
                                   ":", q);
                } else if (down.valid()) {
                    const InputVc &dvc = inVc(down.node, down.port, v);
                    WORMNET_ASSERT(out.credits ==
                                           depth - dvc.buf.count &&
                                       (!out.allocated() || dvc.free() ||
                                        dvc.msg == out.msg),
                                   " at ", node, ":", q, ":",
                                   unsigned(v));
                }
                const std::uint32_t bit = std::uint32_t(1) << v;
                if (downstreamVcFree(node, q, v))
                    dfree |= bit;
                const std::size_t out_flat =
                    (std::size_t(node) * outPorts_ + q) * vcs_ + v;
                const unsigned slot = srcSlot_[out_flat];
                if (!out.allocated()) {
                    WORMNET_ASSERT(slot == kNoSrcSlot, " at ", node, ":",
                                   q, ":", unsigned(v));
                    continue;
                }
                alloc |= bit;
                WORMNET_ASSERT(slot < inPorts_ * vcs_, " at ", node, ":",
                               q, ":", unsigned(v));
                const InputVc &src = slotVc(node, slot);
                WORMNET_ASSERT(!((dead >> q) & 1u) && src.routed &&
                                   src.outPort == q && src.outVc == v &&
                                   src.msg == out.msg,
                               " at ", node, ":", q, ":", unsigned(v));
                // Sendable in the cycle about to run.
                if ((eject || out.credits > 0) && !src.recovering &&
                    !src.buf.empty() && src.allocCycle < now_ &&
                    src.buf.frontReady(now_))
                    scand |= bit;
            }
            const std::size_t idx = std::size_t(node) * outPorts_ + q;
            WORMNET_ASSERT(outAllocVcMask_[idx] == alloc &&
                               downFreeVcMask_[idx] == dfree &&
                               switchCandVcMask_[idx] == scand &&
                               switchPendVcMask_[idx] == 0,
                           " at ", node, ":", q);
            if (alloc != 0)
                alloc_ports |= PortMask(1) << q;
        }
        // detActive_ may hold an idle node for one trailing cycle-end
        // call, but must cover every node the detector still needs.
        WORMNET_ASSERT(allocOutMask_[node] == alloc_ports &&
                           (detActive_.contains(node) ||
                            (alloc_ports == 0 && txMask_[node] == 0)),
                       " at ", node);
    }
    WORMNET_ASSERT(totalQueuedCount_ == queued &&
                   txNodes_.size() == tx_nodes &&
                   switchPendPorts_.empty());

    std::size_t live = 0;
    for (MsgId id = 0; id < messages_.size(); ++id) {
        const Message &m = messages_.get(id);
        if (m.status != MsgStatus::Active &&
            m.status != MsgStatus::Recovering) {
            WORMNET_ASSERT(m.numLinks() == 0 && vc_count[id] == 0,
                           " message ", id);
            continue;
        }
        ++live;
        WORMNET_ASSERT(m.numLinks() == vc_count[id] &&
                           m.flitsInjected >= m.flitsEjected &&
                           m.flitsInjected - m.flitsEjected ==
                               flit_count[id],
                       " message ", id);
        // Each link names a VC this worm occupies, and links are
        // wired tail-to-head along real links: each non-injection
        // link's upstream router hosts the previous one.
        for (std::size_t i = 0; i < m.numLinks(); ++i) {
            const PathLink &l = m.link(i);
            const LinkEnd &up = upstream(l.node, l.port);
            WORMNET_ASSERT(inVc(l.node, l.port, l.vc).msg == id &&
                               (i == 0 || (up.valid() &&
                                           up.node == m.link(i - 1).node)),
                           " message ", id, " hop ", i);
        }
    }
    WORMNET_ASSERT(inFlight_ == live);
    detector_.audit();
}

void
Network::saveState(Serializer &s) const
{
    // Captured at a step() boundary: per-cycle scratch (txMask_,
    // txNodes_, creditReturns_, faultKillQueue_, candidate buffers)
    // is dead there and not written; the oracle cache is memoised
    // per cycle and re-derived on demand.
    s.u64(now_);
    s.boolean(measuring_);
    rng_.saveState(s);
    for (const NodeGenerator &gen : generators_)
        gen.saveState(s);
    messages_.saveState(s);
    for (const auto &queue : sourceQueues_) {
        s.u32(static_cast<std::uint32_t>(queue.size()));
        for (const MsgId id : queue)
            s.u32(id);
    }
    {
        // Raw heap array: equal-cycle re-injections must pop in the
        // exact pre-checkpoint order.
        const auto &heap = pqContainer(pendingReinjects_);
        s.u32(static_cast<std::uint32_t>(heap.size()));
        for (const Reinject &r : heap) {
            s.u64(r.when);
            s.u32(r.msg);
        }
    }
    // Per node, its input VC records, then its output VC records,
    // each with its source-slot entry as (port, vc).
    const std::size_t in_per_node = std::size_t(inPorts_) * vcs_;
    const std::size_t out_per_node = std::size_t(outPorts_) * vcs_;
    for (NodeId node = 0; node < nNodes_; ++node) {
        for (std::size_t i = 0; i < in_per_node; ++i)
            vcStore_.inAt(node * in_per_node + i).saveState(s);
        for (std::size_t i = 0; i < out_per_node; ++i) {
            const std::size_t flat = node * out_per_node + i;
            const unsigned slot = srcSlot_[flat];
            const bool owned = slot != kNoSrcSlot;
            vcStore_.outAt(flat).saveState(
                s, owned ? static_cast<PortId>(slot / vcs_) : kInvalidPort,
                owned ? static_cast<VcId>(slot % vcs_) : kInvalidVc);
        }
    }
    for (const std::uint8_t r : saRr_)
        s.u8(r);
    for (const std::uint8_t r : injRr_)
        s.u8(r);
    for (const std::uint64_t c : txCount_)
        s.u64(c);
    stats_.saveState(s);
    // detActive_ is the one history-bearing activity set (one
    // trailing cycle-end call per idle node); every other set is
    // derived from router state and rebuilt on load.
    detActive_.saveState(s);
    s.u64(inFlight_);
    {
        // deadlockTracked_ is sorted, so the pair dump is the same
        // deterministic layout the predecessor hash map produced.
        s.u32(static_cast<std::uint32_t>(deadlockTracked_.size()));
        for (const MsgId id : deadlockTracked_) {
            s.u32(id);
            s.u64(deadlockFirstSeen_[id]);
        }
    }
    s.boolean(faults_ != nullptr);
    if (faults_)
        faults_->saveState(s);
    s.boolean(reconfig_ != nullptr);
    if (reconfig_)
        reconfig_->saveState(s);
    detector_.saveState(s);
    s.boolean(recovery_ != nullptr);
    if (recovery_)
        recovery_->saveState(s);
}

void
Network::loadState(Deserializer &d)
{
    now_ = d.u64();
    measuring_ = d.boolean();
    rng_.loadState(d);
    for (NodeGenerator &gen : generators_)
        gen.loadState(d);
    messages_.loadState(d);
    totalQueuedCount_ = 0;
    for (auto &queue : sourceQueues_) {
        queue.clear();
        const std::uint32_t count = d.u32();
        for (std::uint32_t i = 0; i < count; ++i)
            queue.push_back(d.u32());
        totalQueuedCount_ += count;
    }
    {
        auto &heap = pqContainer(pendingReinjects_);
        heap.clear();
        heap.resize(d.u32());
        for (Reinject &r : heap) {
            r.when = d.u64();
            r.msg = d.u32();
        }
    }
    const std::size_t in_per_node = std::size_t(inPorts_) * vcs_;
    const std::size_t out_per_node = std::size_t(outPorts_) * vcs_;
    for (NodeId node = 0; node < nNodes_; ++node) {
        for (std::size_t i = 0; i < in_per_node; ++i)
            vcStore_.inAt(node * in_per_node + i).loadState(d);
        for (std::size_t i = 0; i < out_per_node; ++i) {
            const std::size_t flat = node * out_per_node + i;
            PortId port = kInvalidPort;
            VcId vc = kInvalidVc;
            vcStore_.outAt(flat).loadState(d, port, vc);
            if (port == kInvalidPort) {
                srcSlot_[flat] = kNoSrcSlot;
                continue;
            }
            if (port >= inPorts_ || vc >= vcs_)
                fatal("checkpoint names input VC ", port, ":",
                      unsigned(vc), " of node ", node,
                      ", which does not exist");
            srcSlot_[flat] = static_cast<std::uint16_t>(port * vcs_ + vc);
        }
    }
    for (std::uint8_t &r : saRr_)
        r = d.u8();
    for (std::uint8_t &r : injRr_)
        r = d.u8();
    for (std::uint64_t &c : txCount_)
        c = d.u64();
    stats_.loadState(d);
    detActive_.loadState(d);
    inFlight_ = d.u64();
    deadlockFirstSeen_.assign(messages_.size(), kNever);
    deadlockTracked_.clear();
    {
        const std::uint32_t count = d.u32();
        deadlockTracked_.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const MsgId id = d.u32();
            const Cycle cycle = d.u64();
            WORMNET_ASSERT(id < deadlockFirstSeen_.size());
            deadlockFirstSeen_[id] = cycle;
            deadlockTracked_.push_back(id);
        }
    }
    if (d.boolean()) {
        if (!faults_)
            fatal("checkpoint carries fault-model state but no fault "
                  "model is attached");
        faults_->loadState(d);
    } else if (faults_) {
        fatal("fault model attached but checkpoint has none");
    }
    if (d.boolean()) {
        if (!reconfig_)
            fatal("checkpoint carries reconfiguration state but no "
                  "reconfiguration manager is attached");
        reconfig_->loadState(d);
    } else if (reconfig_) {
        fatal("reconfiguration manager attached but checkpoint has "
              "none");
    }
    detector_.loadState(d);
    if (d.boolean()) {
        if (!recovery_)
            fatal("checkpoint carries recovery state but no recovery "
                  "manager is attached");
        recovery_->loadState(d);
    } else if (recovery_) {
        fatal("recovery manager attached but checkpoint has none");
    }

    rebuildDerivedState();

    // Per-cycle scratch and memoisation: clean slate.
    std::fill(txMask_.begin(), txMask_.end(), 0);
    txNodes_.clear();
    creditReturns_.clear();
    faultKillQueue_.clear();
    oracleCacheCycle_ = kNever;
    oracleCache_.clear();

    if (!d.atEnd())
        fatal("checkpoint payload has ", d.remaining(),
              " unread bytes: writer/reader layout mismatch");
}

} // namespace wormnet
