#include "recovery/disha.hh"

#include <algorithm>
#include <sstream>

#include "common/contracts.hh"
#include "common/log.hh"
#include "sim/network.hh"

namespace wormnet
{

DishaRecovery::DishaRecovery(const DishaParams &params)
    : params_(params)
{
    if (params.tokens < 1)
        fatal("disha recovery needs at least one token");
}

void
DishaRecovery::init(Network &net)
{
    net_ = &net;
    freeTokens_ = params_.tokens;
    waiting_.clear();
    draining_.clear();
}

void
DishaRecovery::onDeadlockDetected(MsgId msg)
{
    WORMNET_ASSERT(net_ != nullptr);
    Message &m = net_->messages().get(msg);
    WORMNET_ASSERT(m.status == MsgStatus::Active);
    WORMNET_ASSERT(m.numLinks() > 0);

    const PathLink head = m.headLink();
    InputVc &vc = net_->inputVc(head.node, head.port, head.vc);
    WORMNET_ASSERT(vc.msg == msg);
    if (vc.routed)
        return; // advancing again; verdict is stale

    // Mark now (so the verdict is not re-raised every cycle) but the
    // worm keeps holding its channels until a lane token arrives.
    m.status = MsgStatus::Recovering;
    net_->setHeadRecovering(msg);
    waiting_.push_back(msg);
    grantTokens();
}

void
DishaRecovery::grantTokens()
{
    while (freeTokens_ > 0 && !waiting_.empty()) {
        const MsgId msg = waiting_.front();
        waiting_.pop_front();
        --freeTokens_;
        const Message &m = net_->messages().get(msg);
        draining_.push_back(
            Drain{msg, net_->now() + params_.tokenHandoff,
                  m.numLinks() > 0 ? m.headLink().node
                                   : m.src});
    }
}

void
DishaRecovery::tick()
{
    WORMNET_ASSERT(net_ != nullptr);
    const Cycle now = net_->now();

    while (!deliveries_.empty() && deliveries_.top().when <= now) {
        const MsgId msg = deliveries_.top().msg;
        deliveries_.pop();
        net_->markDelivered(msg, true);
        ++freeTokens_;
    }
    grantTokens();

    for (std::size_t i = 0; i < draining_.size();) {
        const Drain &d = draining_[i];
        if (d.eligibleAt > now) {
            ++i;
            continue;
        }
        FlitType type;
        if (!net_->drainHeaderFlit(d.msg, type)) {
            ++i;
            continue;
        }
        if (isTailFlit(type)) {
            Message &m = net_->messages().get(d.msg);
            WORMNET_ASSERT(m.numLinks() == 0);
            const Cycle dist =
                net_->topology().distance(d.headNode, m.dst);
            deliveries_.push(PendingDelivery{
                now + params_.laneHopCost * std::max<Cycle>(dist, 1),
                d.msg});
            draining_.erase(draining_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            continue;
        }
        ++i;
    }
}

void
DishaRecovery::onMessageKilled(MsgId msg)
{
    // Fault-killed while queueing for a token: just forget it.
    const auto w = std::find(waiting_.begin(), waiting_.end(), msg);
    if (w != waiting_.end()) {
        waiting_.erase(w);
        return;
    }
    // Fault-killed mid-drain: return the token.
    const auto d = std::find_if(draining_.begin(), draining_.end(),
                                [msg](const Drain &dr) {
                                    return dr.msg == msg;
                                });
    if (d != draining_.end()) {
        draining_.erase(d);
        ++freeTokens_;
        grantTokens();
    }
}

std::size_t
DishaRecovery::pending() const
{
    return waiting_.size() + draining_.size() + deliveries_.size();
}

void
DishaRecovery::saveState(Serializer &s) const
{
    s.u32(freeTokens_);
    s.u32(static_cast<std::uint32_t>(waiting_.size()));
    for (const MsgId m : waiting_)
        s.u32(m);
    s.u32(static_cast<std::uint32_t>(draining_.size()));
    for (const Drain &dr : draining_) {
        s.u32(dr.msg);
        s.u64(dr.eligibleAt);
        s.u32(dr.headNode);
    }
    const auto &heap = pqContainer(deliveries_);
    s.u32(static_cast<std::uint32_t>(heap.size()));
    for (const PendingDelivery &pd : heap) {
        s.u64(pd.when);
        s.u32(pd.msg);
    }
}

void
DishaRecovery::loadState(Deserializer &d)
{
    freeTokens_ = d.u32();
    waiting_.assign(d.u32(), kInvalidMsg);
    for (MsgId &m : waiting_)
        m = d.u32();
    draining_.assign(d.u32(), Drain{});
    for (Drain &dr : draining_) {
        dr.msg = d.u32();
        dr.eligibleAt = d.u64();
        dr.headNode = d.u32();
    }
    auto &heap = pqContainer(deliveries_);
    heap.clear();
    heap.resize(d.u32());
    for (PendingDelivery &pd : heap) {
        pd.when = d.u64();
        pd.msg = d.u32();
    }
}

std::string
DishaRecovery::name() const
{
    std::ostringstream os;
    os << "disha(tokens=" << params_.tokens
       << ", hop=" << params_.laneHopCost
       << ", handoff=" << params_.tokenHandoff << ")";
    return os.str();
}

} // namespace wormnet
