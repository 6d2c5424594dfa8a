/**
 * @file
 * Crude timeout detection (Disha-style): a message is presumed
 * deadlocked when its header has been blocked at a node for longer
 * than a threshold, regardless of what the requested channels are
 * doing. This is the baseline the prior mechanism (PDM) already
 * improved upon by an order of magnitude; it is included to reproduce
 * the paper's "two orders of magnitude vs. crude timeouts" claim.
 */

#ifndef WORMNET_DETECTION_TIMEOUT_HH
#define WORMNET_DETECTION_TIMEOUT_HH

#include <vector>

#include "detection/detector.hh"

namespace wormnet
{

/** Configuration for TimeoutDetector. */
struct TimeoutParams
{
    Cycle threshold = 32;
};

/** Header-blocked-time timeout detection. */
class TimeoutDetector : public DeadlockDetector
{
  public:
    explicit TimeoutDetector(const TimeoutParams &params);

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
    void
    onCycleEnd(NodeId, PortMask, PortMask, Cycle) override
    {
    }
    bool idleCycleEndStable() const override { return true; }
    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;
    std::string name() const override;

  private:
    std::size_t
    vcIdx(NodeId router, PortId port, VcId vc) const
    {
        return (std::size_t(router) * ctx_.numInPorts + port) *
                   ctx_.vcs + vc;
    }

    TimeoutParams params_;
    DetectorContext ctx_;
    /** First-failure cycle of the head blocked in each input VC. */
    std::vector<Cycle> blockedSince_;
};

/** Never detects; used with deadlock-avoidance routing baselines. */
class NullDetector : public DeadlockDetector
{
  public:
    void init(const DetectorContext &) override {}
    bool
    onRoutingFailed(NodeId, PortId, VcId, MsgId, PortMask, bool, bool,
                    Cycle) override
    {
        return false;
    }
    void onCycleEnd(NodeId, PortMask, PortMask, Cycle) override {}
    bool idleCycleEndStable() const override { return true; }
    std::string name() const override { return "none"; }
};

} // namespace wormnet

#endif // WORMNET_DETECTION_TIMEOUT_HH
