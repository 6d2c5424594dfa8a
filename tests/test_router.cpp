/**
 * @file
 * Unit tests for the router data model (worm buffers, VC records, router
 * views) and for single-message flit transport through a small
 * network: pipeline timing, wormhole spreading, buffer bounds and
 * flit conservation.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/simulation.hh"
#include "router/channel.hh"
#include "router/flit.hh"
#include "router/message.hh"
#include "router/router.hh"

namespace wormnet
{
namespace
{

/** Passes a whole worm of @p length flits through a fresh VC, each
 *  flit popped once it is ready, and returns the popped types. */
std::vector<FlitType>
wormTypes(unsigned length)
{
    InputVc vc;
    vc.msg = 1;
    vc.length = length;
    std::vector<FlitType> types;
    Cycle now = 0;
    for (unsigned i = 0; i < length; ++i, ++now) {
        vc.buf.push(now, 4);
        EXPECT_TRUE(vc.buf.frontReady(now + 1));
        EXPECT_EQ(vc.buf.front, i);
        types.push_back(vc.frontType());
        vc.buf.pop();
    }
    EXPECT_TRUE(vc.buf.empty());
    return types;
}

TEST(WormBuffer, TypeSequence)
{
    EXPECT_EQ(wormTypes(1), std::vector<FlitType>{FlitType::HeadTail});
    EXPECT_EQ(wormTypes(2),
              (std::vector<FlitType>{FlitType::Head, FlitType::Tail}));
    std::vector<FlitType> sixteen(16, FlitType::Body);
    sixteen.front() = FlitType::Head;
    sixteen.back() = FlitType::Tail;
    EXPECT_EQ(wormTypes(16), sixteen);
}

TEST(WormBuffer, ReadyRule)
{
    // A lone flit is ready from the cycle after it arrived.
    WormBuffer buf;
    buf.push(10, 4);
    EXPECT_FALSE(buf.frontReady(10));
    EXPECT_TRUE(buf.frontReady(11));

    // With two or more buffered, the front arrived at least a cycle
    // before the newest and is ready although the newest is not.
    buf.push(11, 4);
    EXPECT_EQ(buf.count, 2u);
    EXPECT_EQ(buf.newestReadyAt, 12u);
    EXPECT_TRUE(buf.frontReady(11));
    buf.push(12, 4);
    EXPECT_TRUE(buf.frontReady(12));

    // Popping down to the flit that arrived this cycle makes the
    // front unready again until the next cycle.
    buf.pop();
    buf.pop();
    EXPECT_EQ(buf.front, 2u);
    EXPECT_EQ(buf.count, 1u);
    EXPECT_FALSE(buf.frontReady(12));
    EXPECT_TRUE(buf.frontReady(13));
}

TEST(WormBuffer, SecondPushInOneCyclePanics)
{
    WormBuffer buf;
    buf.push(5, 4);
    EXPECT_THROW(buf.push(5, 4), PanicError);
    EXPECT_NO_THROW(buf.push(6, 4));
}

TEST(WormBuffer, OverflowAndUnderflowPanic)
{
    WormBuffer buf;
    buf.push(0, 2);
    buf.push(1, 2);
    EXPECT_THROW(buf.push(2, 2), PanicError);
    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_THROW(buf.pop(), PanicError);
}

TEST(FlitTypes, PositionMapping)
{
    EXPECT_EQ(flitTypeAt(0, 1), FlitType::HeadTail);
    EXPECT_EQ(flitTypeAt(0, 4), FlitType::Head);
    EXPECT_EQ(flitTypeAt(1, 4), FlitType::Body);
    EXPECT_EQ(flitTypeAt(2, 4), FlitType::Body);
    EXPECT_EQ(flitTypeAt(3, 4), FlitType::Tail);
    EXPECT_TRUE(isHeadFlit(FlitType::HeadTail));
    EXPECT_TRUE(isTailFlit(FlitType::HeadTail));
    EXPECT_FALSE(isHeadFlit(FlitType::Tail));
    EXPECT_FALSE(isTailFlit(FlitType::Head));
}

TEST(InputVc, ReleaseResetsWormState)
{
    InputVc vc;
    vc.msg = 7;
    vc.length = 3;
    vc.buf.push(0, 4);
    vc.routed = true;
    vc.outPort = 2;
    vc.outVc = 1;
    vc.attempted = true;
    vc.lastFeasible = 0x5;
    vc.recovering = true;
    vc.release();
    EXPECT_TRUE(vc.free());
    EXPECT_TRUE(vc.buf.empty());
    EXPECT_EQ(vc.buf.front, 0u);
    EXPECT_EQ(vc.length, 0u);
    EXPECT_FALSE(vc.routed);
    EXPECT_EQ(vc.outPort, kInvalidPort);
    EXPECT_FALSE(vc.attempted);
    EXPECT_EQ(vc.lastFeasible, 0u);
    EXPECT_FALSE(vc.recovering);
}

TEST(Message, LinkChainFifoOrder)
{
    PathSlab slab;
    Message m;
    m.bindSlab(&slab);
    m.pushLink(1, 0, 0);
    m.pushLink(2, 1, 0);
    m.pushLink(3, 2, 1);
    EXPECT_EQ(m.numLinks(), 3u);
    EXPECT_EQ(m.link(0).node, 1u);
    EXPECT_EQ(m.headLink().node, 3u);
    m.popFrontLink();
    EXPECT_EQ(m.numLinks(), 2u);
    EXPECT_EQ(m.link(0).node, 2u);
    m.popFrontLink();
    m.popFrontLink();
    EXPECT_EQ(m.numLinks(), 0u);
}

TEST(MessageStore, CreateAssignsDenseIds)
{
    MessageStore store;
    const MsgId a = store.create(0, 1, 16, 5, false);
    const MsgId b = store.create(2, 3, 64, 6, true);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(store.get(a).length, 16u);
    EXPECT_TRUE(store.get(b).measured);
    EXPECT_EQ(store.size(), 2u);
}

/** A traffic-free network for inspecting Network-owned routers. */
SimulationConfig
quietConfig()
{
    SimulationConfig cfg;
    cfg.flitRate = 0.0;
    cfg.detector = "none";
    cfg.recovery = "none";
    cfg.oraclePeriod = 0;
    return cfg;
}

TEST(Router, ShapeAndPortClassification)
{
    SimulationConfig cfg = quietConfig();
    cfg.radix = 4;
    cfg.dims = 2; // 4 network ports
    cfg.injPorts = 2;
    cfg.ejePorts = 3;
    cfg.vcs = 3;
    cfg.bufDepth = 4;
    Simulation sim(cfg);
    const RouterParams &rp = sim.net().routerParams();
    EXPECT_EQ(rp.numInPorts(), 6u);
    EXPECT_EQ(rp.numOutPorts(), 7u);
    EXPECT_FALSE(rp.isInjectionPort(3));
    EXPECT_TRUE(rp.isInjectionPort(4));
    EXPECT_FALSE(rp.isEjectionPort(3));
    EXPECT_TRUE(rp.isEjectionPort(4));
    EXPECT_TRUE(rp.isEjectionPort(6));
}

TEST(Router, OccupancyHelpers)
{
    // Occupancy read through the Network's VC accessors while the
    // network's own transport moves two worms along a 1-D mesh.
    const auto pc_fully_busy = [](const Network &net, NodeId node,
                                  PortId port) {
        for (VcId v = 0; v < net.routerParams().vcs; ++v) {
            if (net.inputVc(node, port, v).free())
                return false;
        }
        return true;
    };
    const auto pc_occupied = [](const Network &net, NodeId node,
                                PortId port) {
        for (VcId v = 0; v < net.routerParams().vcs; ++v) {
            if (net.outputVc(node, port, v).allocated())
                return true;
        }
        return false;
    };
    const auto busy_network_vcs = [](const Network &net, NodeId node) {
        unsigned busy = 0;
        for (PortId q = 0; q < net.routerParams().netPorts; ++q) {
            for (VcId v = 0; v < net.routerParams().vcs; ++v)
                busy += net.outputVc(node, q, v).allocated();
        }
        return busy;
    };

    SimulationConfig cfg = quietConfig();
    cfg.topology = "mesh";
    cfg.radix = 4;
    cfg.dims = 1;
    cfg.vcs = 2;
    cfg.injPorts = 2; // both worms start in the same cycle
    cfg.ejePorts = 1;
    Simulation sim(cfg);
    Network &net = sim.net();
    const NodeId src = 0;
    const NodeId mid = 1;
    const NodeId dst = 3;
    const PortId east = Topology::outPort(0, true);
    const PortId mid_in = Topology::peerInPort(east);
    const PortId eject = 2;

    EXPECT_FALSE(pc_fully_busy(net, mid, mid_in));
    EXPECT_FALSE(pc_occupied(net, src, east));
    EXPECT_EQ(busy_network_vcs(net, src), 0u);

    net.injectMessage(0, 3, 16);
    net.injectMessage(0, 3, 16);
    for (int i = 0; i < 20 && !pc_fully_busy(net, mid, mid_in); ++i)
        net.step();
    EXPECT_TRUE(pc_fully_busy(net, mid, mid_in));
    EXPECT_TRUE(pc_occupied(net, src, east));
    EXPECT_EQ(busy_network_vcs(net, src), 2u);

    // An allocated ejection VC is occupied but not a network VC.
    for (int i = 0; i < 40 && !pc_occupied(net, dst, eject); ++i)
        net.step();
    EXPECT_TRUE(pc_occupied(net, dst, eject));
    EXPECT_EQ(busy_network_vcs(net, dst), 0u);

    net.run(200);
    EXPECT_EQ(net.stats().delivered, 2u);
    EXPECT_FALSE(pc_fully_busy(net, mid, mid_in));
    EXPECT_FALSE(pc_occupied(net, src, east));
    EXPECT_EQ(busy_network_vcs(net, src), 0u);
}

TEST(Router, CreditsStartFull)
{
    Simulation sim(quietConfig());
    const Network &net = sim.net();
    const RouterParams &p = net.routerParams();
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        for (PortId q = 0; q < p.numOutPorts(); ++q)
            for (VcId v = 0; v < p.vcs; ++v)
                EXPECT_EQ(net.outputVc(n, q, v).credits, p.bufDepth);
    }
}

TEST(Router, WidestVcShapeDelivers)
{
    // 32 VCs fill the per-port VC masks: every lane must still start
    // free downstream and be offered by the routing function.
    SimulationConfig cfg = quietConfig();
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.vcs = RouterParams::kMaxVcs;
    Simulation sim(cfg);
    Network &net = sim.net();
    for (VcId v = 0; v < 4; ++v)
        net.injectMessage(0, 10, 8);
    net.run(200);
    EXPECT_EQ(net.stats().delivered, 4u);
    net.audit();
}

/** Fixture: a quiet network we inject individual messages into. */
class SingleMessage : public ::testing::Test
{
  protected:
    SimulationConfig
    baseConfig()
    {
        SimulationConfig cfg;
        cfg.radix = 4;
        cfg.dims = 1;
        cfg.flitRate = 0.0; // no background traffic
        cfg.detector = "none";
        cfg.recovery = "none";
        cfg.oraclePeriod = 0;
        return cfg;
    }
};

TEST_F(SingleMessage, DeliveredIntact)
{
    Simulation sim(baseConfig());
    const MsgId id = sim.net().injectMessage(0, 2, 16);
    for (int i = 0; i < 200; ++i)
        sim.net().step();
    const Message &m = sim.net().messages().get(id);
    EXPECT_EQ(m.status, MsgStatus::Delivered);
    EXPECT_EQ(m.flitsInjected, 16u);
    EXPECT_EQ(m.flitsEjected, 16u);
    EXPECT_EQ(m.numLinks(), 0u);
    EXPECT_EQ(sim.net().stats().delivered, 1u);
    EXPECT_EQ(sim.net().stats().flitsDelivered, 16u);
}

TEST_F(SingleMessage, SingleFlitMessage)
{
    Simulation sim(baseConfig());
    const MsgId id = sim.net().injectMessage(1, 3, 1);
    for (int i = 0; i < 100; ++i)
        sim.net().step();
    EXPECT_EQ(sim.net().messages().get(id).status,
              MsgStatus::Delivered);
}

TEST_F(SingleMessage, LatencyScalesWithDistance)
{
    // Distance 1 vs distance 2 on the ring: the longer path takes
    // strictly longer, in pipelined-header steps.
    Cycle t1 = 0, t2 = 0;
    {
        Simulation sim(baseConfig());
        const MsgId id = sim.net().injectMessage(0, 1, 8);
        for (int i = 0; i < 200; ++i)
            sim.net().step();
        t1 = sim.net().messages().get(id).deliverCycle;
    }
    {
        Simulation sim(baseConfig());
        const MsgId id = sim.net().injectMessage(0, 2, 8);
        for (int i = 0; i < 200; ++i)
            sim.net().step();
        t2 = sim.net().messages().get(id).deliverCycle;
    }
    EXPECT_GT(t2, t1);
    EXPECT_LE(t2 - t1, 6u); // one extra hop costs a few cycles
}

TEST_F(SingleMessage, ThroughputOneFlitPerCycle)
{
    // A long message streams at 1 flit/cycle once the pipeline fills:
    // delivery time ~ length + constant.
    Simulation sim(baseConfig());
    const MsgId id = sim.net().injectMessage(0, 1, 64);
    Cycle delivered = 0;
    for (int i = 0; i < 400; ++i) {
        sim.net().step();
        if (sim.net().messages().get(id).status ==
            MsgStatus::Delivered) {
            delivered = sim.net().now();
            break;
        }
    }
    ASSERT_GT(delivered, 0u);
    EXPECT_LT(delivered, 64u + 20u);
}

TEST_F(SingleMessage, WormSpreadsOverMultipleRouters)
{
    // A 16-flit worm crossing 2 hops with 4-flit buffers must occupy
    // several VCs at once mid-flight.
    SimulationConfig cfg = baseConfig();
    cfg.radix = 8;
    Simulation sim(cfg);
    const MsgId id = sim.net().injectMessage(0, 4, 16);
    std::size_t max_links = 0;
    for (int i = 0; i < 300; ++i) {
        sim.net().step();
        max_links = std::max(max_links,
                             sim.net().messages().get(id).numLinks());
    }
    EXPECT_EQ(sim.net().messages().get(id).status,
              MsgStatus::Delivered);
    EXPECT_GE(max_links, 3u);
}

TEST_F(SingleMessage, BuffersNeverOverflow)
{
    // Buffer bounds are asserted inside WormBuffer::push; a run with
    // many concurrent messages exercises them.
    SimulationConfig cfg = baseConfig();
    cfg.radix = 4;
    cfg.dims = 2;
    Simulation sim(cfg);
    for (NodeId n = 0; n < 16; ++n)
        sim.net().injectMessage(n, (n + 5) % 16, 24);
    EXPECT_NO_THROW({
        for (int i = 0; i < 500; ++i)
            sim.net().step();
    });
    EXPECT_EQ(sim.net().stats().delivered, 16u);
}

TEST_F(SingleMessage, TwoMessagesShareAPhysicalChannel)
{
    // Two worms from the same source to the same destination must
    // multiplex the channel through different VCs and both arrive.
    Simulation sim(baseConfig());
    const MsgId a = sim.net().injectMessage(0, 2, 32);
    const MsgId b = sim.net().injectMessage(0, 2, 32);
    for (int i = 0; i < 500; ++i)
        sim.net().step();
    EXPECT_EQ(sim.net().messages().get(a).status,
              MsgStatus::Delivered);
    EXPECT_EQ(sim.net().messages().get(b).status,
              MsgStatus::Delivered);
}

TEST_F(SingleMessage, ManyToOneDestinationContention)
{
    // All nodes send to node 0; ejection bandwidth (4 ports) must
    // eventually deliver everything.
    SimulationConfig cfg = baseConfig();
    cfg.radix = 4;
    cfg.dims = 2;
    Simulation sim(cfg);
    for (NodeId n = 1; n < 16; ++n)
        sim.net().injectMessage(n, 0, 16);
    for (int i = 0; i < 1000; ++i)
        sim.net().step();
    EXPECT_EQ(sim.net().stats().delivered, 15u);
}

TEST_F(SingleMessage, InFlightAccounting)
{
    Simulation sim(baseConfig());
    EXPECT_EQ(sim.net().inFlight(), 0u);
    sim.net().injectMessage(0, 2, 16);
    sim.net().step();
    sim.net().step();
    EXPECT_EQ(sim.net().inFlight(), 1u);
    for (int i = 0; i < 200; ++i)
        sim.net().step();
    EXPECT_EQ(sim.net().inFlight(), 0u);
}

TEST_F(SingleMessage, InvalidInjectionPanics)
{
    Simulation sim(baseConfig());
    EXPECT_THROW(sim.net().injectMessage(99, 0, 16), PanicError);
    EXPECT_THROW(sim.net().injectMessage(0, 99, 16), PanicError);
    EXPECT_THROW(sim.net().injectMessage(0, 1, 0), PanicError);
}

} // namespace
} // namespace wormnet
