#include "sim/network.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/contracts.hh"
#include "common/log.hh"
#include "common/serialize.hh"
#include "fault/fault.hh"
#include "recovery/recovery.hh"
#include "sim/oracle.hh"
#include "sim/reconfig.hh"

namespace wormnet
{

Network::Network(const Topology &topo, const NetworkParams &params,
                 RoutingFunction &routing, DeadlockDetector &detector,
                 RecoveryManager *recovery, TrafficPattern &pattern,
                 LengthDistribution &lengths, double flit_rate,
                 std::uint64_t seed)
    : topo_(topo), params_(params), routing_(&routing),
      detector_(detector), recovery_(recovery), pattern_(pattern),
      lengths_(lengths), rng_(seed)
{
    routerParams_.netPorts = topo.numNetPorts();
    routerParams_.injPorts = params.injPorts;
    routerParams_.ejePorts = params.ejePorts;
    routerParams_.vcs = params.vcs;
    routerParams_.bufDepth = params.bufDepth;

    if (params.injPorts < 1 || params.ejePorts < 1)
        fatal("need at least one injection and one ejection port");
    if (lengths.maxLength() < 1)
        fatal("length distribution produces empty messages");

    const NodeId n = topo.numNodes();
    nNodes_ = n; // memoised: numNodes() sits in per-cycle loop bounds
    inPorts_ = routerParams_.numInPorts();
    outPorts_ = routerParams_.numOutPorts();
    vcs_ = routerParams_.vcs;
    netPorts_ = routerParams_.netPorts;

    // All VC records live in the network-global struct-of-arrays
    // store; each Router is a view over its slice.
    vcStore_.init(n, routerParams_);
    routers_.reserve(n);
    for (NodeId i = 0; i < n; ++i)
        routers_.emplace_back(i, routerParams_, vcStore_.inBase(i),
                              vcStore_.outBase(i));

    // Wire the network links following the port convention.
    downLinks_.assign(std::size_t(n) * outPorts_, LinkEnd{});
    upLinks_.assign(std::size_t(n) * inPorts_, LinkEnd{});
    for (NodeId i = 0; i < n; ++i) {
        for (unsigned d = 0; d < topo.numDims(); ++d) {
            for (const bool positive : {true, false}) {
                const PortId q = Topology::outPort(d, positive);
                const NodeId peer = topo.neighbor(i, d, positive);
                if (peer == kInvalidNode)
                    continue; // mesh edge
                const PortId peer_in = Topology::peerInPort(q);
                downLinks_[std::size_t(i) * outPorts_ + q] =
                    LinkEnd{peer, peer_in};
                upLinks_[std::size_t(peer) * inPorts_ + peer_in] =
                    LinkEnd{i, q};
            }
        }
    }
    saRr_.assign(std::size_t(n) * outPorts_, 0);
    injRr_.assign(std::size_t(n) * routerParams_.injPorts, 0);
    WORMNET_ASSERT(std::size_t(inPorts_) * vcs_ < kNoSrcSlot,
                   " (source slots are 16 bits wide)");
    srcSlot_.assign(std::size_t(n) * outPorts_ * vcs_, kNoSrcSlot);

    sourceQueues_.resize(n);
    generators_.reserve(n);
    for (NodeId i = 0; i < n; ++i)
        generators_.emplace_back(i, pattern, lengths, flit_rate,
                                 rng_.split());

    txMask_.assign(n, 0);
    txCount_.assign(std::size_t(n) * routerParams_.numOutPorts(), 0);

    injectionLimitCount_ = static_cast<std::size_t>(
        params.injectionLimitFraction *
        (routerParams_.netPorts * routerParams_.vcs));

    detActive_.init(n);
    detectorIdleStable_ = detector_.idleCycleEndStable();
    detectorWantsCandidates_ = detector_.wantsBlockedCandidates();
    detectorWantsInjStall_ = detector_.wantsInjectionStallReports();

    // Steady-state churn should never reallocate the per-cycle
    // scratch buffers.
    txNodes_.reserve(n);
    creditReturns_.reserve(std::size_t(n) * outPorts_);
    faultKillQueue_.reserve(64);
    candScratch_.reserve(outPorts_);
    freeScratch_.reserve(std::size_t(outPorts_) * vcs_);
    blockedCandScratch_.reserve(outPorts_);

    injSlots_ = routerParams_.injPorts * vcs_;

    // Every VC starts free: all derived state is zero except the
    // downstream-free lanes (ejection ports always accept, dangling
    // mesh-edge ports never do, network links start all free).
    routeActive_.init(n);
    routableVcMask_.assign(std::size_t(n) * inPorts_, 0);
    outAllocVcMask_.assign(std::size_t(n) * outPorts_, 0);
    downFreeVcMask_.assign(std::size_t(n) * outPorts_, 0);
    switchCandVcMask_.assign(std::size_t(n) * outPorts_, 0);
    switchPendVcMask_.assign(std::size_t(n) * outPorts_, 0);
    allocOutMask_.assign(n, 0);
    injVcBusy_.assign(n, 0);
    injMidVcMask_.assign(std::size_t(n) * routerParams_.injPorts, 0);
    detectorDeadMask_.assign(n, 0);
    const std::uint32_t all_vcs = (std::uint32_t(1) << vcs_) - 1;
    for (NodeId i = 0; i < n; ++i) {
        for (PortId q = 0; q < outPorts_; ++q) {
            if (q >= netPorts_ || downstream(i, q).valid())
                downFreeVcMask_[std::size_t(i) * outPorts_ + q] =
                    all_vcs;
        }
    }

    // The one switch for the per-step audit (tests and CI only: it
    // recomputes the whole network's derived state every cycle).
    if (const char *check = std::getenv("WORMNET_CHECK_ACTIVE_SETS"))
        auditEachStep_ = std::strcmp(check, "0") != 0;

    DetectorContext ctx;
    ctx.numRouters = n;
    ctx.numInPorts = routerParams_.numInPorts();
    ctx.numOutPorts = routerParams_.numOutPorts();
    ctx.vcs = routerParams_.vcs;
    ctx.topo = &topo_;
    detector_.init(ctx);

    if (recovery_)
        recovery_->init(*this);
}

void
Network::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        step();
}

void
Network::startMeasurement()
{
    measuring_ = true;
    stats_.startWindow(now_);
    std::fill(txCount_.begin(), txCount_.end(), 0);
}

void
Network::setFlitRate(double flit_rate)
{
    for (auto &gen : generators_)
        gen.setFlitRate(flit_rate);
}

MsgId
Network::injectMessage(NodeId src, NodeId dst, unsigned length)
{
    WORMNET_ASSERT(src < numNodes() && dst < numNodes());
    WORMNET_ASSERT(length >= 1);
    const MsgId id =
        messages_.create(src, dst, length, now_, measuring_);
    ++stats_.generated;
    if (measuring_) {
        ++stats_.wGenerated;
        stats_.wGeneratedFlits += length;
    }
    trace(TraceEvent::Generated, id, src);
    pushSource(src, id, false);
    return id;
}

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
Network::queueFaultKill(MsgId msg)
{
    Message &m = messages_.get(msg);
    if (m.faultKillQueued)
        return; // worm hit at several points in the same sweep
    m.faultKillQueued = true;
    faultKillQueue_.push_back(msg);
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

void
Network::attachFaultModel(FaultModel *faults)
{
    faults_ = faults;
    if (faults_)
        faults_->init(topo_, routerParams_, rng_.split().next());
}

void
Network::attachReconfig(ReconfigManager *reconfig)
{
    reconfig_ = reconfig;
    if (reconfig_)
        reconfig_->bind(*this);
}

void
Network::setRoutingFunction(RoutingFunction &routing)
{
    routing_ = &routing;
}

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

PortMask
Network::deadOutMask(NodeId node) const
{
    PortMask m = faults_ ? faults_->faultyOutMask(node) : 0;
    if (reconfig_)
        m |= reconfig_->adminDownMask(node);
    return m;
}

bool
Network::nodeOffline(NodeId node) const
{
    return (faults_ && faults_->routerFaulty(node)) ||
           (reconfig_ && reconfig_->drained(node));
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

bool
Network::portFaulty(NodeId node, PortId out_port) const
{
    return out_port < routerParams_.netPorts &&
           ((deadOutMask(node) >> out_port) & 1u);
}

void
Network::step()
{
    // Only nodes that transmitted last cycle have a nonzero mask.
    for (const NodeId node : txNodes_)
        txMask_[node] = 0;
    txNodes_.clear();

    faultTick();
    generateAndInject();
    if (phaseTimers_) {
        using clock = std::chrono::steady_clock;
        // wormnet-lint: allow(banned-api): --phase-timers diagnostic;
        // feeds stderr-only per-phase nanosecond totals, never state
        const auto t0 = clock::now();
        routeAll();
        // wormnet-lint: allow(banned-api): diagnostic phase timer
        const auto t1 = clock::now();
        switchAll();
        // wormnet-lint: allow(banned-api): diagnostic phase timer
        const auto t2 = clock::now();
        vaNanos_ += std::chrono::duration_cast<
                        std::chrono::nanoseconds>(t1 - t0)
                        .count();
        saNanos_ += std::chrono::duration_cast<
                        std::chrono::nanoseconds>(t2 - t1)
                        .count();
    } else {
        routeAll();
        switchAll();
    }
    // Grants and enqueues of this cycle make their VCs sendable in
    // the next one.
    armPendingCandidates();

    // Credits freed by switch pops become visible next cycle. A VC
    // coming off zero credits is a switch candidate again, provided
    // its source worm still has a flit buffered to send.
    replayCredits();

    if (recovery_) {
        recovery_->tick();
        replayCredits();
    }

    // Kills queued by the routing phase (heads with every live
    // candidate gone) happen after the switch phase so the cycle's
    // transfers acted on consistent state.
    processFaultKills();

    detectorCycleEnd();
    oracleTick();

    // audit() runs at a step() boundary, where now_ names the next
    // cycle, as for any other caller.
    ++now_;
    if (auditEachStep_)
        audit();
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

double
Network::channelUtilization(NodeId node, PortId out_port) const
{
    const Cycle span = now_ - stats_.windowStart;
    if (span == 0)
        return 0.0;
    return static_cast<double>(channelTxCount(node, out_port)) /
           static_cast<double>(span);
}

RunningStat
Network::utilizationSummary() const
{
    RunningStat out;
    for (NodeId node = 0; node < numNodes(); ++node) {
        for (PortId q = 0; q < routerParams_.netPorts; ++q) {
            if (downstream(node, q).valid())
                out.add(channelUtilization(node, q));
        }
    }
    return out;
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
        const Router &rt = routers_[node];
        // Routers must still be views over the global store.
        WORMNET_ASSERT(rt.inputVcs() == vcStore_.inBase(node) &&
                       rt.outputVcs() == vcStore_.outBase(node));
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
