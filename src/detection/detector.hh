/**
 * @file
 * Distributed deadlock-detection interface.
 *
 * Detectors are deliberately decoupled from the router data model:
 * every hook carries exactly the local information the corresponding
 * hardware would see (flit transmissions, VC occupancy, failed routing
 * attempts and their feasible output channels). This mirrors the
 * paper's constraint that detection must work "only with local
 * information available at each router" — the interface makes it
 * structurally impossible for a detector to peek at global state.
 *
 * Hook protocol (driven by sim::Network each cycle):
 *  1. onRoutingFailed() for every blocked head (may return a verdict);
 *     onMessageRouted() for every successful output-VC grant.
 *  2. onFlitTransmitted() for every flit crossing an output physical
 *     channel; onInputVcFreed() when a tail leaves an input VC.
 *  3. onCycleEnd() once per router with the per-port transmit and
 *     occupancy masks (drives the inactivity counters).
 */

#ifndef WORMNET_DETECTION_DETECTOR_HH
#define WORMNET_DETECTION_DETECTOR_HH

#include <memory>
#include <string>

#include "common/serialize.hh"
#include "common/types.hh"

namespace wormnet
{

class Config;
class Topology;

/** Static shape information handed to detectors at start-up. */
struct DetectorContext
{
    NodeId numRouters = 0;
    unsigned numInPorts = 0;  ///< per router, incl. injection ports
    unsigned numOutPorts = 0; ///< per router, incl. ejection ports
    unsigned vcs = 0;         ///< virtual channels per physical channel
    /**
     * The network topology, for detectors that model control messages
     * travelling between routers (neighbour lookups, hop distances
     * for bandwidth accounting). Null in unit tests that exercise
     * purely channel-local mechanisms; such detectors must not
     * require it.
     */
    const Topology *topo = nullptr;
};

/**
 * One feasible (non-faulted) routing candidate of a blocked head, as
 * reported through onBlockedCandidates(): the routing function
 * offered @p port with the VCs in @p vcMask and all of them were
 * busy. This is local information — the router's own routing logic
 * computed it while failing to allocate.
 */
struct BlockedCandidate
{
    PortId port = kInvalidPort;
    std::uint32_t vcMask = 0;
};

/**
 * Cumulative control-plane traffic a detector has consumed since
 * init(). Mechanisms that ship state between routers (distributed
 * wait-for-graph probes) account every modeled control message here;
 * purely local mechanisms (NDM/PDM/timeouts) stay at zero, which is
 * exactly the paper's "local information only" claim. Polled once
 * per cycle by the Network into SimStats.
 */
struct ControlTraffic
{
    std::uint64_t flits = 0;    ///< control flits sent
    std::uint64_t flitHops = 0; ///< control flits x hops traversed
    std::uint64_t bytes = 0;    ///< control payload bytes sent
};

/** Abstract distributed deadlock detector. */
class DeadlockDetector
{
  public:
    virtual ~DeadlockDetector() = default;

    /** Size internal state; called once before the first cycle. */
    virtual void init(const DetectorContext &ctx) = 0;

    /**
     * The head of the worm in (@p router, @p in_port, @p in_vc) failed
     * to acquire any candidate output VC this cycle.
     *
     * @param feasible_ports bitmask of the feasible output physical
     *        channels (every candidate returned by the routing
     *        function; all of them were busy).
     * @param input_pc_fully_busy all VCs of @p in_port hold worms.
     * @param first_attempt true on the first failure for this head at
     *        this router.
     * @return true to mark the message as presumed deadlocked.
     */
    virtual bool onRoutingFailed(NodeId router, PortId in_port,
                                 VcId in_vc, MsgId msg,
                                 PortMask feasible_ports,
                                 bool input_pc_fully_busy,
                                 bool first_attempt, Cycle now) = 0;

    /** A worm on (@p router, @p in_port, @p in_vc) was granted
     *  output VC (@p out_port, @p out_vc) (fires on every grant,
     *  first-try or not). Channel-local mechanisms ignore the output
     *  coordinates; graph-building mechanisms use them to mirror the
     *  worm's path. */
    virtual void
    onMessageRouted(NodeId router, PortId in_port, VcId in_vc,
                    MsgId msg, PortId out_port, VcId out_vc)
    {
        (void)router;
        (void)in_port;
        (void)in_vc;
        (void)msg;
        (void)out_port;
        (void)out_vc;
    }

    /**
     * A head flit entered input VC (@p router, @p in_port, @p in_vc)
     * — the channel transitioned free -> occupied by @p msg. Fires
     * for network arrivals and for injection starts alike.
     */
    virtual void
    onChannelOccupied(NodeId router, PortId in_port, VcId in_vc,
                      MsgId msg)
    {
        (void)router;
        (void)in_port;
        (void)in_vc;
        (void)msg;
    }

    /**
     * A previously granted route for the head in (@p router,
     * @p in_port, @p in_vc) was backed out before any flit crossed
     * (the output link died under it); the head will re-route. The
     * channel stays occupied by the same worm.
     */
    virtual void
    onRouteRetracted(NodeId router, PortId in_port, VcId in_vc)
    {
        (void)router;
        (void)in_port;
        (void)in_vc;
    }

    /**
     * Recovery took over the head in (@p router, @p in_port,
     * @p in_vc): the worm stops taking part in routing (the oracle no
     * longer counts it blocked) and will drain or be killed through
     * the recovery path. Exact mechanisms must drop any wait-for
     * state involving this channel.
     */
    virtual void
    onHeadRecovering(NodeId router, PortId in_port, VcId in_vc)
    {
        (void)router;
        (void)in_port;
        (void)in_vc;
    }

    /**
     * True when this detector wants onBlockedCandidates() on every
     * routing failure. Gated so channel-local mechanisms keep the
     * candidate list off the hot path entirely.
     */
    virtual bool wantsBlockedCandidates() const { return false; }

    /**
     * The complete feasible candidate set the head in (@p router,
     * @p in_port, @p in_vc) failed to allocate this cycle — every
     * non-faulted (port, vcMask) the routing function offered. Fires
     * immediately before the matching onRoutingFailed() and only when
     * wantsBlockedCandidates() is true. The pointer is valid only for
     * the duration of the call.
     */
    virtual void
    onBlockedCandidates(NodeId router, PortId in_port, VcId in_vc,
                        MsgId msg, const BlockedCandidate *cands,
                        std::size_t count, Cycle now)
    {
        (void)router;
        (void)in_port;
        (void)in_vc;
        (void)msg;
        (void)cands;
        (void)count;
        (void)now;
    }

    /** A worm's tail left (@p router, @p in_port, @p in_vc). */
    virtual void
    onInputVcFreed(NodeId router, PortId in_port, VcId in_vc)
    {
        (void)router;
        (void)in_port;
        (void)in_vc;
    }

    /**
     * Once per router per cycle, after the switch phase.
     * @param tx_mask output ports that transmitted a flit this cycle
     * @param occupied_mask output ports with >= 1 allocated VC
     */
    virtual void onCycleEnd(NodeId router, PortMask tx_mask,
                            PortMask occupied_mask, Cycle now) = 0;

    /**
     * Source-side observation: the message injecting through
     * (@p router, @p in_port, @p in_vc) could not push a flit this
     * cycle (buffer back-pressure or port bandwidth). Source-timeout
     * mechanisms (Reeves et al.; compressionless routing) detect
     * here; router-centric mechanisms ignore it.
     *
     * @param age cycles since the message started injecting
     * @param stall cycles since its last flit entered the network
     * @return true to mark the message as presumed deadlocked.
     */
    /** True when the detector consumes onInjectionStalled() reports.
     *  Router-centric mechanisms leave this false and the network
     *  skips the per-cycle source-side stall scan entirely. */
    virtual bool wantsInjectionStallReports() const { return false; }

    virtual bool
    onInjectionStalled(NodeId router, PortId in_port, VcId in_vc,
                       MsgId msg, Cycle age, Cycle stall, Cycle now)
    {
        (void)router;
        (void)in_port;
        (void)in_vc;
        (void)msg;
        (void)age;
        (void)stall;
        (void)now;
        return false;
    }

    /**
     * Fault notification: output physical channel @p out_port of
     * @p router changed fault state. A faulted channel cannot
     * transmit, so sound detectors must exclude it from inactivity
     * tracking and from "all feasible channels flagged" checks —
     * otherwise every message routed toward the dead link becomes a
     * false presumed deadlock. Default: ignore (timeout-style
     * detectors key off the blocked head, not the channel).
     */
    virtual void
    onPortFaultChanged(NodeId router, PortId out_port, bool faulty)
    {
        (void)router;
        (void)out_port;
        (void)faulty;
    }

    /**
     * True when onCycleEnd with tx_mask == 0 and occupied_mask == 0
     * is a stable reset: one such call after a router's last activity
     * leaves this detector's per-router state exactly as init() did,
     * and further idle calls change nothing. The simulator then skips
     * fully idle routers after a single trailing cycle-end call
     * (activity-driven core). Detectors that accumulate state even on
     * idle routers — e.g. ungated PDM, which times *unoccupied*
     * channels too — must keep the default and receive the exhaustive
     * per-router sweep every cycle.
     */
    virtual bool idleCycleEndStable() const { return false; }

    /**
     * The routing function changed under a live network (online
     * reconfiguration). Per-channel *waiting/grant* state tied to the
     * old routing relation is now meaningless and must be dropped;
     * activity counters that time channel inactivity independently of
     * routing may be kept. Blocked heads are re-presented as fresh
     * first attempts by the Network afterwards. Default: nothing to
     * drop.
     */
    virtual void onRoutingChanged() {}

    /**
     * Checkpoint support: serialize all dynamic state. Stateless
     * detectors keep the defaults. Writers and readers must pair
     * exactly; the checkpoint header's config string guarantees the
     * same detector spec on both sides.
     */
    virtual void saveState(Serializer &s) const { (void)s; }
    virtual void loadState(Deserializer &d) { (void)d; }

    /**
     * Recompute whatever derived state the detector keeps from its
     * authoritative state and panic (PanicError) on a divergence.
     * Network::audit() calls it at step() boundaries. Default: no
     * derived state.
     */
    virtual void audit() const {}

    /** Cumulative control-plane traffic since init(); see
     *  ControlTraffic. Local mechanisms keep the zero default. */
    virtual ControlTraffic controlTraffic() const { return {}; }

    /** Detector name for reports. */
    virtual std::string name() const = 0;
};

/**
 * Build a detector from a spec string:
 *   "ndm:<t2>[:t1][:coarse|selective]"  (default t1=1, selective)
 *   "pdm:<threshold>[:gated]"
 *   "timeout:<threshold>"            (header-blocked, Disha-style)
 *   "src-age-timeout:<threshold>"    (Reeves et al.)
 *   "inj-stall-timeout:<threshold>"  (compressionless routing)
 *   "dwfg[:<trigger>][:bw=<n>][:hop=<n>][:retry=<n>]"
 *       exact distributed wait-for-graph detection (see dwfg.hh)
 *   "none"
 */
std::unique_ptr<DeadlockDetector>
makeDetector(const std::string &spec);

} // namespace wormnet

#endif // WORMNET_DETECTION_DETECTOR_HH
