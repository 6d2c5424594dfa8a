#include "recovery/progressive.hh"

#include <algorithm>
#include <sstream>

#include "common/contracts.hh"
#include "common/log.hh"
#include "sim/network.hh"

namespace wormnet
{

ProgressiveRecovery::ProgressiveRecovery(
    const ProgressiveParams &params)
    : params_(params)
{
}

void
ProgressiveRecovery::init(Network &net)
{
    net_ = &net;
    draining_.assign(net.numNodes(), {});
    drainRr_.assign(net.numNodes(), 0);
    numDraining_ = 0;
}

void
ProgressiveRecovery::onDeadlockDetected(MsgId msg)
{
    WORMNET_ASSERT(net_ != nullptr);
    Message &m = net_->messages().get(msg);
    WORMNET_ASSERT(m.status == MsgStatus::Active);
    WORMNET_ASSERT(m.numLinks() > 0);

    const PathLink head = m.headLink();
    InputVc &vc = net_->inputVc(head.node, head.port, head.vc);
    WORMNET_ASSERT(vc.msg == msg);
    if (vc.routed) {
        // Source-side mechanisms can raise verdicts on worms whose
        // header is actually advancing (injection stalled for
        // bandwidth reasons). Absorbing an advancing worm is not
        // meaningful for progressive recovery: ignore the verdict;
        // it will re-fire if the worm truly blocks.
        return;
    }

    m.status = MsgStatus::Recovering;
    net_->setHeadRecovering(msg);
    draining_[head.node].push_back(msg);
    ++numDraining_;
}

void
ProgressiveRecovery::tick()
{
    WORMNET_ASSERT(net_ != nullptr);
    const Cycle now = net_->now();

    // Complete deliveries that reached their destination.
    while (!deliveries_.empty() && deliveries_.top().when <= now) {
        const MsgId msg = deliveries_.top().msg;
        deliveries_.pop();
        net_->markDelivered(msg, true);
    }

    if (numDraining_ == 0)
        return;

    // One recovery-buffer flit per node per cycle, round-robin over
    // the node's draining messages.
    for (NodeId node = 0; node < net_->numNodes(); ++node) {
        auto &list = draining_[node];
        if (list.empty())
            continue;
        const std::size_t n = list.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t idx = (drainRr_[node] + k) % n;
            const MsgId msg = list[idx];
            FlitType type;
            if (!net_->drainHeaderFlit(msg, type))
                continue;
            drainRr_[node] = (idx + 1) % n;
            if (isTailFlit(type)) {
                // Worm fully absorbed: deliver via recovery path.
                Message &m = net_->messages().get(msg);
                WORMNET_ASSERT(m.numLinks() == 0);
                const Cycle dist = net_->topology().distance(
                    node, m.dst);
                deliveries_.push(PendingDelivery{
                    now + params_.softwareOverhead +
                        params_.perHopCost * dist,
                    msg});
                list.erase(list.begin() +
                           static_cast<std::ptrdiff_t>(idx));
                --numDraining_;
                if (drainRr_[node] >= list.size())
                    drainRr_[node] = 0;
            }
            break; // one flit per node per cycle
        }
    }
}

void
ProgressiveRecovery::onMessageKilled(MsgId msg)
{
    // A fault strands a worm only while it still holds channels, i.e.
    // while it may be on some node's drain list. Fully absorbed
    // messages (in deliveries_) hold nothing and are never
    // fault-killed.
    for (auto &list : draining_) {
        const auto it = std::find(list.begin(), list.end(), msg);
        if (it == list.end())
            continue;
        list.erase(it);
        --numDraining_;
        return;
    }
}

std::size_t
ProgressiveRecovery::pending() const
{
    return numDraining_ + deliveries_.size();
}

void
ProgressiveRecovery::saveState(Serializer &s) const
{
    s.u64(static_cast<std::uint64_t>(draining_.size()));
    for (const auto &list : draining_) {
        s.u32(static_cast<std::uint32_t>(list.size()));
        for (const MsgId m : list)
            s.u32(m);
    }
    for (const std::size_t rr : drainRr_)
        s.u64(rr);
    s.u64(numDraining_);
    const auto &heap = pqContainer(deliveries_);
    s.u32(static_cast<std::uint32_t>(heap.size()));
    for (const PendingDelivery &pd : heap) {
        s.u64(pd.when);
        s.u32(pd.msg);
    }
}

void
ProgressiveRecovery::loadState(Deserializer &d)
{
    draining_.assign(d.u64(), {});
    for (auto &list : draining_) {
        list.assign(d.u32(), kInvalidMsg);
        for (MsgId &m : list)
            m = d.u32();
    }
    drainRr_.assign(draining_.size(), 0);
    for (std::size_t &rr : drainRr_)
        rr = d.u64();
    numDraining_ = d.u64();
    auto &heap = pqContainer(deliveries_);
    heap.clear();
    heap.resize(d.u32());
    for (PendingDelivery &pd : heap) {
        pd.when = d.u64();
        pd.msg = d.u32();
    }
}

std::string
ProgressiveRecovery::name() const
{
    std::ostringstream os;
    os << "progressive(sw=" << params_.softwareOverhead
       << ", hop=" << params_.perHopCost << ")";
    return os.str();
}

} // namespace wormnet
