/**
 * @file
 * Source-node timeout detection mechanisms from the paper's related
 * work (Section 1):
 *
 *  - SourceAgeTimeoutDetector, after Reeves, Gehringer &
 *    Chandiramani: "a packet is considered to be deadlocked when the
 *    time since it was injected is longer than a threshold" — the
 *    message's age since injection start is the trigger.
 *
 *  - InjectionStallTimeoutDetector, after Kim, Liu & Chien
 *    (compressionless routing): "a deadlock is detected if the time
 *    since the last flit was injected exceeds a threshold" — worm
 *    progress is inferred from the source's ability to keep feeding
 *    flits, since a blocked worm back-pressures its injection
 *    channel within a few cycles (small buffers, no compression).
 *
 * Both observe only the source node and only apply while the worm is
 * still partly at the source; they are the crudest comparators for
 * NDM and exhibit the strongest message-length sensitivity.
 */

#ifndef WORMNET_DETECTION_SOURCE_TIMEOUT_HH
#define WORMNET_DETECTION_SOURCE_TIMEOUT_HH

#include "detection/detector.hh"

namespace wormnet
{

/** Shared base: verdicts only from the injection-stall hook. */
class SourceTimeoutDetectorBase : public DeadlockDetector
{
  public:
    explicit SourceTimeoutDetectorBase(Cycle threshold);

    void init(const DetectorContext &) override {}
    bool
    onRoutingFailed(NodeId, PortId, VcId, MsgId, PortMask, bool,
                    bool, Cycle) override
    {
        return false;
    }
    void onCycleEnd(NodeId, PortMask, PortMask, Cycle) override {}
    bool idleCycleEndStable() const override { return true; }
    bool wantsInjectionStallReports() const override { return true; }

  protected:
    Cycle threshold_;
};

/** Reeves-style: message age since injection start. */
class SourceAgeTimeoutDetector : public SourceTimeoutDetectorBase
{
  public:
    using SourceTimeoutDetectorBase::SourceTimeoutDetectorBase;

    bool onInjectionStalled(NodeId router, PortId in_port, VcId in_vc,
                            MsgId msg, Cycle age, Cycle stall,
                            Cycle now) override;
    std::string name() const override;
};

/** Compressionless-routing-style: time since the last flit entered
 *  the network. */
class InjectionStallTimeoutDetector : public SourceTimeoutDetectorBase
{
  public:
    using SourceTimeoutDetectorBase::SourceTimeoutDetectorBase;

    bool onInjectionStalled(NodeId router, PortId in_port, VcId in_vc,
                            MsgId msg, Cycle age, Cycle stall,
                            Cycle now) override;
    std::string name() const override;
};

} // namespace wormnet

#endif // WORMNET_DETECTION_SOURCE_TIMEOUT_HH
