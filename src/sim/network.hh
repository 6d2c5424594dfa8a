/**
 * @file
 * The cycle-driven wormhole network simulator.
 *
 * Network owns every router's VC, link and arbiter tables, the
 * message store, the per-node source queues and traffic generators,
 * and advances the whole system one clock cycle at a time. Each
 * step() executes, in order:
 *
 *   1. traffic generation and message injection (gated by the
 *      injection-limitation mechanism of López & Duato when enabled);
 *   2. routing + virtual-channel allocation for every head flit
 *      (failed attempts drive the pluggable deadlock detector, whose
 *      verdicts are handed to the recovery manager);
 *   3. switch allocation and flit transfer — at most one flit per
 *      output physical channel per cycle, one-cycle link latency,
 *      credit-based backpressure;
 *   4. recovery-manager tick (progressive drains, delayed
 *      re-injections);
 *   5. per-router detector cycle-end hooks (inactivity counters);
 *   6. periodic ground-truth oracle bookkeeping.
 *
 * Timing matches the paper's model: routing, crossbar traversal and
 * link traversal each take one clock cycle; each virtual channel has a
 * private flit buffer; every node has multiple injection and ejection
 * ports ("four-port architecture").
 *
 * The definitions live in one file per phase: network.cc holds set-up
 * and step(), and network_{hop,route,fault,detect,state}.cc the rest,
 * grouped like the private declarations below.
 */

#ifndef WORMNET_SIM_NETWORK_HH
#define WORMNET_SIM_NETWORK_HH

#include <deque>
#include <queue>
#include <vector>

#include "common/contracts.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "detection/detector.hh"
#include "fault/fault.hh"
#include "router/message.hh"
#include "router/router.hh"
#include "router/vc_state.hh"
#include "routing/routing.hh"
#include "sim/activity.hh"
#include "sim/metrics.hh"
#include "sim/reconfig.hh"
#include "sim/trace.hh"
#include "topology/topology.hh"
#include "traffic/generator.hh"

namespace wormnet
{

class RecoveryManager;

/** How the allocator picks among multiple free candidate VCs. */
enum class VcSelection : std::uint8_t
{
    Random,   ///< uniform among the free candidates
    FirstFit, ///< first free candidate in routing-function order
};

/** Network-level knobs (router shape lives in RouterParams). */
struct NetworkParams
{
    unsigned vcs = 3;
    unsigned bufDepth = 4;
    unsigned injPorts = 4;
    unsigned ejePorts = 4;

    /** Enable the injection-limitation mechanism [López & Duato]. */
    bool injectionLimit = true;
    /**
     * A node may inject a new message only while the number of busy
     * (allocated) virtual channels on its network output ports does
     * not exceed fraction * (netPorts * vcs), rounded down.
     */
    double injectionLimitFraction = 0.4;

    VcSelection selection = VcSelection::Random;

    /** Cycles between ground-truth oracle sweeps (0 disables). */
    Cycle oraclePeriod = 128;

    /** Cap on messages queued per source before generation stalls
     *  (keeps saturated runs bounded; 0 = unbounded). */
    std::size_t maxSourceQueue = 0;

    /** @name Fault handling (only used with an attached FaultModel). */
    /// @{
    /** Kills a stranded message tolerates before being abandoned. */
    unsigned maxRetries = 32;
    /** Base re-injection delay after a fault kill. */
    Cycle faultRetryDelay = 32;
    /// @}
};

/** The simulator core. */
class Network
{
  public:
    /**
     * @param topo topology (kept by reference, not owned)
     * @param params network knobs
     * @param routing routing function (not owned)
     * @param detector deadlock detector (not owned)
     * @param recovery recovery manager (not owned, may be nullptr:
     *        verdicts are then counted but nothing is freed)
     * @param pattern traffic destination pattern (not owned)
     * @param lengths message length distribution (not owned)
     * @param flit_rate offered load in flits/cycle/node
     * @param seed master random seed
     */
    Network(const Topology &topo, const NetworkParams &params,
            RoutingFunction &routing, DeadlockDetector &detector,
            RecoveryManager *recovery, TrafficPattern &pattern,
            LengthDistribution &lengths, double flit_rate,
            std::uint64_t seed);

    /** Advance one clock cycle. */
    void step();

    /** Advance @p cycles clock cycles. */
    void run(Cycle cycles);

    /** Reset windowed statistics; subsequent messages are measured. */
    void startMeasurement();

    Cycle now() const { return now_; }

    /** Inside the measurement window (startMeasurement() ran). */
    bool measuring() const { return measuring_; }

    /** @name Component access. */
    /// @{
    const Topology &topology() const { return topo_; }
    const NetworkParams &params() const { return params_; }
    const RouterParams &routerParams() const { return routerParams_; }
    const RoutingFunction &routing() const { return *routing_; }

    NodeId numNodes() const { return nNodes_; }

    /** VC records of one router, by (node, port, vc). */
    InputVc &
    inputVc(NodeId node, PortId port, VcId vc)
    {
        WORMNET_ASSERT(node < nNodes_ && port < inPorts_ && vc < vcs_);
        return inVc(node, port, vc);
    }
    const InputVc &
    inputVc(NodeId node, PortId port, VcId vc) const
    {
        WORMNET_ASSERT(node < nNodes_ && port < inPorts_ && vc < vcs_);
        return inVc(node, port, vc);
    }
    OutputVc &
    outputVc(NodeId node, PortId port, VcId vc)
    {
        WORMNET_ASSERT(node < nNodes_ && port < outPorts_ && vc < vcs_);
        return outVc(node, port, vc);
    }
    const OutputVc &
    outputVc(NodeId node, PortId port, VcId vc) const
    {
        WORMNET_ASSERT(node < nNodes_ && port < outPorts_ && vc < vcs_);
        return outVc(node, port, vc);
    }

    /** Far end of output @p out_port of @p node: the neighbour's input
     *  port. Invalid for ejection ports and dangling mesh edges. */
    const LinkEnd &
    downstream(NodeId node, PortId out_port) const
    {
        return downLinks_[std::size_t(node) * outPorts_ + out_port];
    }

    /** Far end of input @p in_port of @p node: the neighbour's output
     *  port. Invalid for injection ports and dangling mesh edges. */
    const LinkEnd &
    upstream(NodeId node, PortId in_port) const
    {
        return upLinks_[std::size_t(node) * inPorts_ + in_port];
    }

    /** Round-robin pointers of the switch arbiters, one per (node,
     *  out_port), and of the injection refill, one per (node,
     *  injection port); each holds the VC probed first next time. */
    const std::vector<std::uint8_t> &switchPointers() const
    {
        return saRr_;
    }
    const std::vector<std::uint8_t> &injectionPointers() const
    {
        return injRr_;
    }

    MessageStore &messages() { return messages_; }
    const MessageStore &messages() const { return messages_; }

    SimStats &stats() { return stats_; }
    const SimStats &stats() const { return stats_; }

    std::size_t sourceQueueLength(NodeId node) const
    {
        return sourceQueues_[node].size();
    }

    /** Total messages waiting in all source queues (O(1): maintained
     *  as a running counter, polled every drain-loop iteration). */
    std::size_t totalQueued() const { return totalQueuedCount_; }

    /** Messages currently inside the network (injecting/blocked). */
    std::size_t inFlight() const { return inFlight_; }
    /// @}

    /** Change the offered load on every node (saturation sweeps). */
    void setFlitRate(double flit_rate);

    /** Attach (or detach with nullptr) an event tracer. Not owned. */
    void attachTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Attach a fault model (not owned; nullptr detaches). The model
     * is resolved against this network's topology and seeded from the
     * master stream; it then advances at the start of every step().
     */
    void attachFaultModel(FaultModel *faults);

    const FaultModel *faultModel() const { return faults_; }

    /**
     * Attach a reconfiguration manager (not owned; nullptr detaches).
     * It is ticked at the start of every step(), right after the
     * fault model, and applies its plan's epochs through the same
     * stranded-worm machinery faults use.
     */
    void attachReconfig(ReconfigManager *reconfig);

    /** Combined dead-output mask of @p node: faulted links plus
     *  links administratively removed by reconfiguration. */
    PortMask
    deadOutMask(NodeId node) const
    {
        PortMask m = faults_ ? faults_->faultyOutMask(node) : 0;
        if (reconfig_)
            m |= reconfig_->adminDownMask(node);
        return m;
    }

    /** @p node neither routes nor generates traffic: its router is
     *  faulted or administratively drained. */
    bool
    nodeOffline(NodeId node) const
    {
        return (faults_ && faults_->routerFaulty(node)) ||
               (reconfig_ && reconfig_->drained(node));
    }

    /** Swap the routing function under a live network (online
     *  reconfiguration); it must be sized for this topology. Existing
     *  output-VC allocations are honoured; resetBlockedHeads() makes
     *  each blocked head's next attempt a fresh first try. */
    void setRoutingFunction(RoutingFunction &routing);

    /** Reset the blocked-header bookkeeping (attempted, lastFeasible,
     *  headBlockedSince) of every unrouted head and notify the
     *  detector via onRoutingChanged(), after a routing switch:
     *  detection state tied to the old relation is re-seeded. */
    void resetBlockedHeads();

    /** The (node, out_port) link cannot currently transmit — faulted,
     *  or administratively removed by reconfiguration. Always false
     *  for ejection ports. */
    bool
    portFaulty(NodeId node, PortId out_port) const
    {
        return out_port < routerParams_.netPorts &&
               ((deadOutMask(node) >> out_port) & 1u);
    }

    /** @name Channel utilisation (measurement window). */
    /// @{
    /** Flits transmitted on (node, out_port) during the window. */
    std::uint64_t
    channelTxCount(NodeId node, PortId out_port) const
    {
        return txCount_[std::size_t(node) * outPorts_ + out_port];
    }

    /** Utilisation (flits/cycle) of one output physical channel. */
    double channelUtilization(NodeId node, PortId out_port) const;

    /** Distribution of utilisation over all *network* channels. */
    RunningStat utilizationSummary() const;
    /// @}

    /**
     * Hand-inject a specific message (testing and the paper-figure
     * scenarios). Bypasses the generators but follows the normal
     * injection path: the message is queued at @p src and injected as
     * capacity allows.
     * @return the new message id.
     */
    MsgId injectMessage(NodeId src, NodeId dst, unsigned length);

    /** @name Recovery-manager services. */
    /// @{
    /** Pop one ready flit from @p msg's header VC into the node-local
     *  recovery buffer (progressive recovery), with credits, link
     *  chains and detector hooks kept as a switch traversal would.
     *  Sets @p type and returns true unless no flit was ready. */
    bool drainHeaderFlit(MsgId msg, FlitType &type);

    /** Mark @p msg delivered now (via the recovery path when
     *  @p via_recovery). The message must not hold any VC. */
    void markDelivered(MsgId msg, bool via_recovery);

    /** Flag @p msg's head input VC as draining into the recovery
     *  buffer. Recovery managers must use this instead of writing
     *  InputVc::recovering, so the derived masks stay consistent. */
    void setHeadRecovering(MsgId msg);

    /** Regressive recovery: remove @p msg's flits from every buffer
     *  it occupies, release its VCs and credits, and re-queue it at
     *  its source after @p reinject_delay cycles. */
    void killAndRequeue(MsgId msg, Cycle reinject_delay);

    /** Give up on @p msg: release it like killAndRequeue without
     *  re-queueing; it ends MsgStatus::Abandoned, counted in
     *  stats().abandoned. */
    void killAndAbandon(MsgId msg);
    /// @}

    /** Ground-truth: message ids currently truly deadlocked (computed
     *  by the oracle, memoised per cycle). */
    const std::vector<MsgId> &deadlockedNow();

    /** Downstream input VC of output (port, vc) can accept a new
     *  worm (read by the oracle and the rebuild); ejection ports can. */
    bool downstreamVcFree(NodeId node, PortId out_port, VcId vc) const;

    /**
     * Recompute every derived structure (VC masks, node sets,
     * injection and queue counters, cached VC fields) from router VCs,
     * messages and source queues in one walk, and check the structural
     * invariants between them: routed input and allocated output VCs
     * point at each other, credits match downstream occupancy, live
     * worms' paths run along real links and conserve flits, nothing
     * holds or crosses a dead link. Panics (PanicError) on the first
     * divergence. Call at a step() boundary; WORMNET_CHECK_ACTIVE_SETS
     * set (to anything but "0") when the Network is built runs it at
     * the end of every step().
     */
    void audit() const;

    /** @name Phase timers (read by perfbench's traced mode).
     *
     * When enabled, step() accumulates wall-clock nanoseconds spent in
     * routing and VC allocation (VA) and in switch allocation and flit
     * transfer (SA); flitHops() counts hops either way. Diagnostic
     * state: never serialized, one branch per cycle when disabled.
     */
    /// @{
    void enablePhaseTimers(bool on) { phaseTimers_ = on; }
    std::uint64_t vaNanos() const { return vaNanos_; }
    std::uint64_t saNanos() const { return saNanos_; }
    std::uint64_t flitHops() const { return flitHops_; }
    /// @}

    /**
     * @name Checkpoint support.
     *
     * saveState() captures every bit of dynamic state at a step()
     * boundary; static configuration (topology, parameters, link
     * wiring) is not written, since the checkpoint header's config
     * string guarantees an identically constructed loader.
     * loadState() restores onto a freshly constructed network and is
     * bitwise-deterministic: a resumed run produces exactly the
     * cycles an uninterrupted run would.
     */
    /// @{
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);
    /// @}

  private:
    friend class ReconfigManager;

    /** @name Flat VC access: the unchecked forms of inputVc() and
     *  outputVc() that every phase of step() uses. */
    /// @{
    InputVc &
    inVc(NodeId node, PortId port, VcId vc)
    {
        return vcStore_.inAt(
            (std::size_t(node) * inPorts_ + port) * vcs_ + vc);
    }
    const InputVc &
    inVc(NodeId node, PortId port, VcId vc) const
    {
        return vcStore_.inAt(
            (std::size_t(node) * inPorts_ + port) * vcs_ + vc);
    }
    OutputVc &
    outVc(NodeId node, PortId port, VcId vc)
    {
        return vcStore_.outAt(
            (std::size_t(node) * outPorts_ + port) * vcs_ + vc);
    }
    const OutputVc &
    outVc(NodeId node, PortId port, VcId vc) const
    {
        return vcStore_.outAt(
            (std::size_t(node) * outPorts_ + port) * vcs_ + vc);
    }
    /** The input VC of @p node at source slot @p slot (see srcSlot_). */
    InputVc &
    slotVc(NodeId node, unsigned slot)
    {
        return vcStore_.inAt(std::size_t(node) * inPorts_ * vcs_ + slot);
    }
    const InputVc &
    slotVc(NodeId node, unsigned slot) const
    {
        return vcStore_.inAt(std::size_t(node) * inPorts_ * vcs_ + slot);
    }
    /// @}

    /** Emit a trace record when a tracer is attached. */
    void
    trace(TraceEvent event, MsgId msg, NodeId node = kInvalidNode,
          PortId port = kInvalidPort, VcId vc = kInvalidVc)
    {
        if (tracer_)
            tracer_->record(now_, event, msg, node, port, vc);
    }

    /** @name Injection, switch and transfer (network_hop.cc).
     *
     * The per-flit chain and the VC bookkeeping it calls. Each
     * helper keeps the derived masks and node sets (see below) in
     * step with the VC state it changes.
     */
    /// @{
    void generateAndInject();
    void tryStartInjection(NodeId node);
    /** Injection-limitation check for @p node. */
    bool injectionAllowed(NodeId node) const;
    /** Push @p msg onto @p node's source queue (front when
     *  @p at_front: regressive re-injection) with counter upkeep. */
    void pushSource(NodeId node, MsgId msg, bool at_front);
    /** Pop the front of @p node's source queue with counter upkeep. */
    MsgId popSource(NodeId node);

    void switchAll();
    /** Move the winning flit of (out_port, out_vc) across the
     *  switch. @p vc is its routed source input VC, at @p src_slot
     *  of @p node (the pop is inlined here). */
    void transferFlit(NodeId node, PortId out_port, VcId out_vc,
                      unsigned src_slot, InputVc &vc);
    /** Enqueue the next flit (of type @p type) of worm @p msg into
     *  (node, port, vc), maintaining the message/link bookkeeping
     *  on head flits. */
    void enqueueFlit(NodeId node, PortId port, VcId vc, MsgId msg,
                     FlitType type);
    /** Pop the front flit of (node, port, vc) with tail/credit
     *  bookkeeping for the recovery drain; returns its type. */
    FlitType popFlit(NodeId node, PortId port, VcId vc);
    /** Apply queued credit returns (creditReturns_) to their output
     *  VCs, re-arming switch candidates that come off zero credits
     *  with a sendable source flit. */
    void replayCredits();
    /** Arm output (port, vc) of @p node as a switch candidate from
     *  the next cycle on: the bit waits in switchPendVcMask_ until
     *  armPendingCandidates() runs after this cycle's switch phase. */
    void armNextCycle(NodeId node, PortId port, VcId vc);
    /** Move every pending switch candidate into switchCandVcMask_. */
    void armPendingCandidates();

    /** Re-derive (node, port, vc)'s routable-head mask bit and
     *  @p node's routeActive_ membership after any mutation of its
     *  msg/routed/recovering state. */
    void syncRoutable(NodeId node, PortId port, VcId vc);
    /** Allocate output (port, vc) of @p node to @p msg coming from
     *  input (src_port, src_vc), with mask and node-set upkeep. */
    void allocOutputVc(NodeId node, PortId port, VcId vc, MsgId msg,
                       PortId src_port, VcId src_vc);
    /** Release output (port, vc) of @p node, with mask and node-set
     *  upkeep. */
    void releaseOutputVc(NodeId node, PortId port, VcId vc);
    /** Release input (port, vc) of @p node (worm fully left): resets
     *  the VC, maintains the activity sets and fires the detector's
     *  onInputVcFreed hook. */
    void releaseInputVc(NodeId node, PortId port, VcId vc);
    /** Release every VC, buffer and credit @p m's worm holds
     *  (shared by killAndRequeue and killAndAbandon). */
    void releaseWorm(Message &m);
    /// @}

    /** @name Routing and VC allocation (network_route.cc). */
    /// @{
    void routeAll();
    void routeOne(NodeId node, PortId port, VcId vc,
                  PortMask fault_mask);
    /// @}

    /** @name Fault handling (network_fault.cc). */
    /// @{
    /** Advance the fault model and react to state changes. */
    void faultTick();
    /** Find worms stranded by a fault-state change: un-route heads
     *  that had not crossed the dead link yet, queue kills for worms
     *  straddling it or sitting in a dead router. */
    void scanForStrandedWorms();
    /** Kill (re-queue or abandon) everything queued by the scan or by
     *  the routing phase. */
    void processFaultKills();
    /** Queue @p msg for a fault kill unless already queued. */
    void queueFaultKill(MsgId msg);
    /**
     * Reconcile the detector's per-port dead-channel view with the
     * current deadOutMask(). Fault and admin causes overlap — a
     * faulted link may also be admin-removed — so the detector's
     * onPortFaultChanged() must fire only when the *combined* state
     * flips, never when one cause joins or leaves an already-dead
     * port. Fires for every port whose combined state differs from
     * detectorDeadMask_, then updates the mask.
     */
    void applyDeadPortChanges();
    /// @}

    /** @name Detection and the oracle (network_detect.cc). */
    /// @{
    /** Record a deadlock verdict for @p msg and invoke recovery. */
    void handleDetection(MsgId msg);
    void detectorCycleEnd();
    /** The per-node cycle-end sweep itself (exhaustive or
     *  active-set), without the control-traffic poll. */
    void runDetectorCycleEnd();
    void oracleTick();
    /// @}

    /** Recompute the VC masks, the node sets other than the
     *  history-bearing detActive_, the injection counters,
     *  detectorDeadMask_ and the cached InputVc fields from router
     *  VCs, messages and source queues (checkpoint load; in
     *  network_state.cc with audit() and the checkpoint code). */
    void rebuildDerivedState();

    const Topology &topo_;
    /** topo_.numNodes(), memoised out of the virtual call: the value
     *  bounds every per-cycle loop. */
    NodeId nNodes_ = 0;
    NetworkParams params_;
    RouterParams routerParams_;
    RoutingFunction *routing_;
    DeadlockDetector &detector_;
    RecoveryManager *recovery_;
    TrafficPattern &pattern_;
    LengthDistribution &lengths_;

    Rng rng_;
    Cycle now_ = 0;
    bool measuring_ = false;
    Tracer *tracer_ = nullptr;
    FaultModel *faults_ = nullptr;
    ReconfigManager *reconfig_ = nullptr;

    /** The detector's last-seen per-node dead-port masks (fault and
     *  admin causes combined); see applyDeadPortChanges(). Derived
     *  state: recomputed on checkpoint load, not serialized. */
    std::vector<PortMask> detectorDeadMask_;

    /** Messages queued for a fault kill this cycle. */
    std::vector<MsgId> faultKillQueue_;

    /** Contiguous struct-of-arrays VC state for every router. */
    VcStore vcStore_;

    /** @name Per-port link and arbiter tables.
     *
     * The link wiring, indexed by node * outPorts_ + q (downstream)
     * and node * inPorts_ + p (upstream), is static: the constructor
     * builds it from the topology and checkpoints do not carry it.
     * The round-robin pointers are dynamic arbitration state and are
     * checkpointed.
     */
    /// @{
    std::vector<LinkEnd> downLinks_;
    std::vector<LinkEnd> upLinks_;
    /** Per (node, out_port): first VC the switch arbiter considers. */
    std::vector<std::uint8_t> saRr_;
    /** Per (node, injection port): first VC the refill considers. */
    std::vector<std::uint8_t> injRr_;
    /// @}

    /** Per output VC, flat-indexed like VcStore's output records:
     *  the input VC that owns it while allocated, as the slot
     *  port * vcs + vc of its node's input VCs (kNoSrcSlot when
     *  free). The switch arbiter reaches the winner's input record
     *  from here without loading the OutputVc. Checkpointed, in the
     *  OutputVc record's place. */
    std::vector<std::uint16_t> srcSlot_;
    static constexpr std::uint16_t kNoSrcSlot = 0xffff;
    static_assert(RouterParams::kMaxPorts * RouterParams::kMaxVcs <
                  kNoSrcSlot, "a valid router's input VCs fit a slot");
    MessageStore messages_;
    std::vector<std::deque<MsgId>> sourceQueues_;
    std::vector<NodeGenerator> generators_;

    /** (cycle, msg) pairs waiting for regressive re-injection. */
    struct Reinject
    {
        Cycle when;
        MsgId msg;
        bool operator>(const Reinject &o) const
        {
            return when > o.when;
        }
    };
    std::priority_queue<Reinject, std::vector<Reinject>,
                        std::greater<Reinject>>
        pendingReinjects_;

    /** Per-router output-port transmit mask for the current cycle. */
    std::vector<PortMask> txMask_;

    /** Windowed per-channel transmit counters. */
    std::vector<std::uint64_t> txCount_;

    /** Deferred credit returns: (node, out_port, vc). */
    struct CreditReturn
    {
        NodeId node;
        PortId port;
        VcId vc;
    };
    std::vector<CreditReturn> creditReturns_;

    /** Scratch candidate buffer for the routing phase. */
    std::vector<RouteCandidate> candScratch_;
    std::vector<PortVc> freeScratch_;
    /** Fault-filtered candidates handed to onBlockedCandidates(). */
    std::vector<BlockedCandidate> blockedCandScratch_;

    /** @name Derived hot-path state.
     *
     * Everything below is derived from router VCs, messages and
     * source queues: checkpoints do not carry it (except detActive_),
     * loadState() rebuilds it and audit() recomputes it. The per-port
     * VC masks are the one layer of VC occupancy; the node summaries
     * (routeActive_, allocOutMask_) change only when a port mask goes
     * 0 <-> nonzero. detActive_ is the one history-bearing set: a
     * node stays in it for one trailing cycle-end call after going
     * idle, so idle-stable detectors see their final (0, 0) reset
     * before the node is dropped.
     */
    /// @{
    /** Cached router shape (hoisted out of the per-cycle loops). */
    unsigned inPorts_ = 0;
    unsigned outPorts_ = 0;
    unsigned vcs_ = 0;
    unsigned netPorts_ = 0;

    /** Per (node, in_port): bit v set when inputVc(port, v) holds an
     *  unrouted, non-recovering head (== inRouteSet). Lets the
     *  routing phase visit exactly the routable VCs. */
    std::vector<std::uint32_t> routableVcMask_;
    /** Nodes with a nonzero routableVcMask_ on some input port. */
    NodeBitset routeActive_;

    /** Per (node, out_port): bit v set when outputVc(port, v) is
     *  allocated, so the routing phase tests a whole physical
     *  channel in one load; popcounts over the network ports feed
     *  the injection-limitation check. */
    std::vector<std::uint32_t> outAllocVcMask_;
    /** Per node: bit q set when outAllocVcMask_ of port q is nonzero
     *  (the detector's occupied mask and the switch phase's ports). */
    std::vector<PortMask> allocOutMask_;

    /** Per (node, out_port): bit v set when the downstream input VC
     *  on lane v can accept a new worm (free with an empty buffer).
     *  All-ones for ejection ports, zero for dangling mesh-edge
     *  ports; maintained at head-enqueue and input-VC release. */
    std::vector<std::uint32_t> downFreeVcMask_;
    /** Per (node, out_port): bit v set when outputVc(port, v) can
     *  send a flit in the current cycle: it is allocated and was
     *  granted in an earlier cycle, has credit (ejection ports don't
     *  consume credits), and its routed source VC is not recovering
     *  and holds a flit that is ready now. Every set bit can win, so
     *  the arbiter picks with bit arithmetic and loads only the
     *  winner's records. A bit is set only where the VC becomes
     *  sendable in the next cycle: a grant or an enqueue into an
     *  empty routed VC arms it through switchPendVcMask_, and a
     *  credit coming back to a zero-credit VC arms it at the end of
     *  the cycle. Blocked worms stretched thin — credits in hand but
     *  nothing buffered to send — carry a clear bit, which is what
     *  keeps saturated-network switch scans short. */
    std::vector<std::uint32_t> switchCandVcMask_;
    /** Per (node, out_port): candidates armed during this cycle's
     *  routing, injection and switch phases, sendable from the next
     *  cycle on; moved into switchCandVcMask_ right after
     *  switchAll(). Zero at every step() boundary. */
    std::vector<std::uint32_t> switchPendVcMask_;
    /** (node * outPorts_ + q) of each switchPendVcMask_ word that went
     *  nonzero this cycle. Not reserved up front: it reaches its
     *  high-water mark within the first cycles, and a reserve of
     *  every port showed up in construction time. */
    std::vector<std::uint32_t> switchPendPorts_;

    /** Per node: occupied injection-port VCs. */
    std::vector<std::uint16_t> injVcBusy_;
    /** Per (node, injection port): bit v set when injection VC v
     *  holds a worm still mid-injection (flitsInjected < length).
     *  The refill visits only these. */
    std::vector<std::uint32_t> injMidVcMask_;
    /** Injection VC slots per node (injPorts * vcs): with every one
     *  busy, no new worm can start. */
    unsigned injSlots_ = 0;
    /** Nodes owed a detector cycle-end call (active now, or active
     *  at their previous call: one trailing reset call). */
    NodeBitset detActive_;
    /** The attached detector tolerates skipping idle routers. */
    bool detectorIdleStable_ = false;
    /** The attached detector wants the candidate list on failures. */
    bool detectorWantsCandidates_ = false;
    /** The attached detector consumes injection-stall reports. */
    bool detectorWantsInjStall_ = false;

    /** Nodes whose txMask_ entry is nonzero this cycle (cleared at
     *  the next step() instead of re-filling the whole vector). */
    std::vector<NodeId> txNodes_;

    /** Messages waiting in all source queues (the running sum
     *  behind totalQueued()). */
    std::size_t totalQueuedCount_ = 0;

    /** Run audit() at the end of every step(). */
    bool auditEachStep_ = false;
    /// @}
    /** @name Phase-timer state (see enablePhaseTimers()). */
    /// @{
    bool phaseTimers_ = false;
    std::uint64_t vaNanos_ = 0;
    std::uint64_t saNanos_ = 0;
    std::uint64_t flitHops_ = 0;
    /// @}

    std::size_t inFlight_ = 0;
    std::size_t injectionLimitCount_ = 0;

    SimStats stats_;

    /** @name Oracle memoisation and persistence tracking. */
    /// @{
    Cycle oracleCacheCycle_ = kNever;
    std::vector<MsgId> oracleCache_;
    /** Cycle each message was first seen deadlocked, flat-indexed by
     *  MsgId (kNever = not currently tracked; lazily sized, so always
     *  bounds-check). */
    std::vector<Cycle> deadlockFirstSeen_;
    /** Sorted ids with a live deadlockFirstSeen_ entry: drives the
     *  per-sweep expiry walk and the checkpointed pair dump. */
    std::vector<MsgId> deadlockTracked_;
    /// @}
};

} // namespace wormnet

#endif // WORMNET_SIM_NETWORK_HH
