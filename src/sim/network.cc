#include "sim/network.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/contracts.hh"
#include "common/log.hh"
#include "recovery/recovery.hh"

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
    routerParams_.validate();

    if (lengths.maxLength() < 1)
        fatal("length distribution produces empty messages");

    const NodeId n = topo.numNodes();
    nNodes_ = n; // memoised: numNodes() sits in per-cycle loop bounds
    inPorts_ = routerParams_.numInPorts();
    outPorts_ = routerParams_.numOutPorts();
    vcs_ = routerParams_.vcs;
    netPorts_ = routerParams_.netPorts;

    vcStore_.init(n, routerParams_);

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
    const std::uint32_t all_vcs = ~std::uint32_t(0) >> (32 - vcs_);
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

} // namespace wormnet
