/**
 * @file
 * PDM — the Previous Detection Mechanism (paper Section 2, from
 * Martínez et al., ICPP 1997).
 *
 * Each output physical channel has a single inactivity counter and an
 * IF (inactivity) flag: the counter increments every clock cycle and
 * resets when a flit crosses the channel; IF sets when the counter
 * exceeds the threshold. A blocked message is presumed deadlocked as
 * soon as all its feasible output channels are busy with IF set —
 * there is no Generate/Propagate filtering, so every message in a
 * blocked tree eventually flags, which is the false-positive and
 * recovery-overhead problem NDM addresses.
 */

#ifndef WORMNET_DETECTION_PDM_HH
#define WORMNET_DETECTION_PDM_HH

#include <vector>

#include "detection/detector.hh"

namespace wormnet
{

/** Configuration for PdmDetector. */
struct PdmParams
{
    Cycle threshold = 32;
    /**
     * The ICPP'97 text resets the counter only on flit transmission.
     * With gateOccupancy the counter additionally freezes/resets while
     * the channel has no allocated VC (fairness ablation; not the
     * literal published mechanism).
     */
    bool gateOccupancy = false;
};

/** The prior inactivity-flag detection mechanism. */
class PdmDetector : public DeadlockDetector
{
  public:
    explicit PdmDetector(const PdmParams &params);

    void init(const DetectorContext &ctx) override;
    bool onRoutingFailed(NodeId router, PortId in_port, VcId in_vc,
                         MsgId msg, PortMask feasible_ports,
                         bool input_pc_fully_busy, bool first_attempt,
                         Cycle now) override;
    void onCycleEnd(NodeId router, PortMask tx_mask,
                    PortMask occupied_mask, Cycle now) override;
    void onPortFaultChanged(NodeId router, PortId out_port,
                            bool faulty) override;
    /** Ungated PDM times unoccupied channels, so idle routers still
     *  advance counters; only the gated variant may be skipped. */
    bool idleCycleEndStable() const override
    {
        return params_.gateOccupancy;
    }
    /** Drop the IF verdict flags; keep the activity counters. */
    void onRoutingChanged() override;
    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;
    std::string name() const override;

    /** @name White-box accessors for unit tests. */
    /// @{
    Cycle counter(NodeId router, PortId out_port) const;
    bool ifFlag(NodeId router, PortId out_port) const;
    /// @}

    const PdmParams &params() const { return params_; }

  private:
    std::size_t
    outIdx(NodeId router, PortId port) const
    {
        return std::size_t(router) * ctx_.numOutPorts + port;
    }

    PdmParams params_;
    DetectorContext ctx_;
    std::vector<Cycle> counters_;
    std::vector<std::uint8_t> ifFlags_;
    /** Per router: faulted output channels, never timed or judged. */
    std::vector<PortMask> faultyOut_;
};

} // namespace wormnet

#endif // WORMNET_DETECTION_PDM_HH
