#include "recovery/regressive.hh"

#include <algorithm>
#include <sstream>

#include "common/contracts.hh"
#include "common/log.hh"
#include "sim/network.hh"

namespace wormnet
{

RegressiveRecovery::RegressiveRecovery(const RegressiveParams &params)
    : params_(params)
{
}

void
RegressiveRecovery::init(Network &net)
{
    net_ = &net;
    killList_.clear();
}

void
RegressiveRecovery::onDeadlockDetected(MsgId msg)
{
    WORMNET_ASSERT(net_ != nullptr);
    Message &m = net_->messages().get(msg);
    WORMNET_ASSERT(m.status == MsgStatus::Active);
    WORMNET_ASSERT(m.numLinks() > 0);

    // Mark now so further verdicts this cycle are ignored; remove the
    // flits at tick() (after the switch phase) so the cycle's
    // transfers act on consistent state.
    const PathLink head = m.headLink();
    InputVc &vc = net_->inputVc(head.node, head.port, head.vc);
    WORMNET_ASSERT(vc.msg == msg);
    m.status = MsgStatus::Recovering;
    net_->setHeadRecovering(msg);
    killList_.push_back(msg);
}

void
RegressiveRecovery::tick()
{
    WORMNET_ASSERT(net_ != nullptr);
    for (const MsgId msg : killList_) {
        const Message &m = net_->messages().get(msg);
        if (m.retries >= params_.maxRetries) {
            net_->killAndAbandon(msg);
            continue;
        }
        // Capped linear back-off with deterministic per-message
        // jitter so the members of a killed cycle do not retry in
        // lockstep.
        const Cycle steps = std::min<Cycle>(m.retries + 1,
                                            params_.backoffCap);
        const Cycle backoff = params_.retryDelay * steps;
        const Cycle jitter =
            (static_cast<Cycle>(msg) * 2654435761u) %
            (params_.retryDelay + 1);
        net_->killAndRequeue(msg, backoff + jitter);
    }
    killList_.clear();
}

void
RegressiveRecovery::onMessageKilled(MsgId msg)
{
    // The fault path beat us to the kill; drop our pending one so the
    // message is not killed twice.
    killList_.erase(
        std::remove(killList_.begin(), killList_.end(), msg),
        killList_.end());
}

std::size_t
RegressiveRecovery::pending() const
{
    return killList_.size();
}

void
RegressiveRecovery::saveState(Serializer &s) const
{
    // killList_ is drained by tick() every cycle, so at a step
    // boundary it is normally empty; serialize it anyway for safety.
    s.u32(static_cast<std::uint32_t>(killList_.size()));
    for (const MsgId m : killList_)
        s.u32(m);
}

void
RegressiveRecovery::loadState(Deserializer &d)
{
    killList_.assign(d.u32(), kInvalidMsg);
    for (MsgId &m : killList_)
        m = d.u32();
}

std::string
RegressiveRecovery::name() const
{
    std::ostringstream os;
    os << "regressive(retry=" << params_.retryDelay
       << ", max=" << params_.maxRetries << ")";
    return os.str();
}

} // namespace wormnet
