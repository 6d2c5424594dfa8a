/**
 * @file
 * NDM — the paper's New Detection Mechanism (Section 3).
 *
 * Hardware modelled per router:
 *  - per output physical channel: an inactivity counter that counts
 *    idle cycles while the channel is occupied (reset on any flit
 *    transmission), an I flag (counter > t1, t1 tiny) and a DT flag
 *    (counter > t2, the tuned detection threshold);
 *  - per input physical channel: a G/P (Generate/Propagate) flag.
 *
 * Flag protocol:
 *  - First failed routing attempt of a head: if the input physical
 *    channel still has a free VC -> P. Otherwise test the I flags of
 *    the feasible output channels: all set (occupants were already
 *    blocked) -> P; any clear (an occupant is advancing and may be
 *    the root of the blocked tree) -> G.
 *  - Subsequent failed attempts: if every feasible output channel has
 *    DT set and the input flag is G, mark the message deadlocked.
 *    With P, wait — a G flag elsewhere covers the cycle.
 *  - The flag resets to P when any worm on that input channel is
 *    routed or frees a VC.
 *  - When an I flag is reset by a transmission (a new potential root
 *    appeared — the paper's Figure 5 scenario), P flags are re-armed
 *    to G: either all flags in the router (the paper's simple
 *    implementation) or only the flags of input channels with a
 *    blocked head waiting on that output channel (the selective
 *    variant the paper leaves as future work).
 *
 * Representation: the per-channel counters and I/DT flags are not
 * stored materially. A channel that is occupied and idle holds only
 * the cycle its idle run began (since_) plus a run bit in the node's
 * runMask_; the counter is the run length (now - since + 1) and the
 * flags are threshold comparisons against it, evaluated at read time.
 * This turns the per-node cycle-end work — formerly a loop over every
 * output channel incrementing counters and testing thresholds — into
 * pure mask arithmetic that is zero-cost in the steady blocked state
 * (no transmissions, occupied set unchanged), which is exactly the
 * state a congested or deadlocking network spends most cycles in.
 */

#ifndef WORMNET_DETECTION_NDM_HH
#define WORMNET_DETECTION_NDM_HH

#include <vector>

#include "detection/detector.hh"

namespace wormnet
{

/** How P flags are re-armed to G when an I flag is reset. */
enum class GpRearmPolicy : std::uint8_t
{
    /** Flip every P flag in the router (paper's simple scheme). */
    AllInRouter,
    /** Flip only input channels with a blocked head that was waiting
     *  on the output channel whose I flag was reset. */
    WaitersOnChannel,
};

/**
 * Configuration for NdmDetector.
 *
 * The re-arm default is the selective policy: the paper's prose
 * specifies "the G/P flags of those channels containing messages
 * waiting for that output channel should be set to G" and notes that
 * the coarser all-flags-in-router implementation "may lead to an
 * increase in the number of false deadlocks detected". Our
 * measurements confirm that only the selective policy reproduces the
 * paper's ~10x false-positive reduction over PDM (see
 * bench/ablation_gp_rearm); the coarse variant is kept for that
 * ablation.
 */
struct NdmParams
{
    Cycle t1 = 1;    ///< inactivity threshold for the I flag
    Cycle t2 = 32;   ///< detection threshold for the DT flag
    GpRearmPolicy rearm = GpRearmPolicy::WaitersOnChannel;
};

/** The paper's deadlock-detection mechanism. */
class NdmDetector : public DeadlockDetector
{
  public:
    explicit NdmDetector(const NdmParams &params);

    void init(const DetectorContext &ctx) override;
    bool onRoutingFailed(NodeId router, PortId in_port, VcId in_vc,
                         MsgId msg, PortMask feasible_ports,
                         bool input_pc_fully_busy, bool first_attempt,
                         Cycle now) override;
    void onMessageRouted(NodeId router, PortId in_port, VcId in_vc,
                         MsgId msg, PortId out_port,
                         VcId out_vc) override;
    void onInputVcFreed(NodeId router, PortId in_port,
                        VcId in_vc) override;
    void onCycleEnd(NodeId router, PortMask tx_mask,
                    PortMask occupied_mask, Cycle now) override;
    void onPortFaultChanged(NodeId router, PortId out_port,
                            bool faulty) override;
    /** Idle (0, 0) cycle-ends only re-clear already-clear state. */
    bool idleCycleEndStable() const override { return true; }
    /** Drop routing-relation state (G/P flags, waiting masks); keep
     *  the channel-activity counters and I/DT flags, which time
     *  transmissions independent of the routing function. */
    void onRoutingChanged() override;
    void saveState(Serializer &s) const override;
    /** Restores the checkpointed state and rebuilds waiters_. */
    void loadState(Deserializer &d) override;
    /** Recomputes waiters_ from waiting_. */
    void audit() const override;
    std::string name() const override;

    /** @name White-box accessors for unit tests. */
    /// @{
    Cycle counter(NodeId router, PortId out_port) const;
    bool iFlag(NodeId router, PortId out_port) const;
    bool dtFlag(NodeId router, PortId out_port) const;
    /** true = G(enerate), false = P(ropagate). */
    bool gpFlag(NodeId router, PortId in_port) const;
    /// @}

    const NdmParams &params() const { return params_; }

  private:
    std::size_t
    outIdx(NodeId router, PortId port) const
    {
        return std::size_t(router) * ctx_.numOutPorts + port;
    }

    std::size_t
    inIdx(NodeId router, PortId port) const
    {
        return std::size_t(router) * ctx_.numInPorts + port;
    }

    std::size_t
    vcIdx(NodeId router, PortId port, VcId vc) const
    {
        return (std::size_t(router) * ctx_.numInPorts + port) *
                   ctx_.vcs + vc;
    }

    /** Apply the re-arm policy after I on @p out_port was reset. */
    void rearm(NodeId router, PortId out_port);

    /** Set the feasible-port mask a blocked head in (@p router,
     *  @p in_port, @p in_vc) waits on (0 when it stops waiting),
     *  keeping waiters_ in step. The only writer of both. */
    void setWaiting(NodeId router, PortId in_port, VcId in_vc,
                    PortMask feasible);

    /** waiters_ as waiting_ implies it. */
    std::vector<PortMask> computeWaiters() const;

    /** Inactivity flag of (router, out_port) as observed during cycle
     *  @p now (i.e. after the cycle-end of now - 1): the channel has
     *  an idle run longer than @p threshold cycles. */
    bool
    flagAt(NodeId router, PortId out_port, Cycle now,
           Cycle threshold) const
    {
        return ((runMask_[router] >> out_port) & 1u) &&
               now - since_[outIdx(router, out_port)] > threshold;
    }

    NdmParams params_;
    DetectorContext ctx_;

    /** Per output physical channel: cycle the current occupied-idle
     *  run started (0 and don't-care when the run bit is clear). */
    std::vector<Cycle> since_;
    /** Per router: output channels with an idle run in progress. */
    std::vector<PortMask> runMask_;
    /** Per router: the `now` of its newest onCycleEnd — anchors the
     *  white-box counter/flag accessors, which have no now param. */
    std::vector<Cycle> lastCycleEnd_;

    /** Per input physical channel: true = G. */
    std::vector<std::uint8_t> gp_;

    /** Per input VC: feasible-port mask of the currently blocked head
     *  (0 when not blocked). */
    std::vector<PortMask> waiting_;

    /** Per router: faulted output channels — excluded from inactivity
     *  tracking and from the all-DT detection test, since a dead link
     *  will never transmit and would flag forever. */
    std::vector<PortMask> faultyOut_;

  protected:
    /** Per output channel: bit p set when some VC of input channel p
     *  waits on it (the OR over that channel's waiting_ entries). The
     *  selective re-arm walks these bits. Derived from waiting_: not
     *  checkpointed, rebuilt on load, recomputed by audit(). Protected
     *  so that a subclass can corrupt it to exercise the audit. */
    std::vector<PortMask> waiters_;
};

} // namespace wormnet

#endif // WORMNET_DETECTION_NDM_HH
