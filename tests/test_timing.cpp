/**
 * @file
 * Golden-timing tests: cycle-exact behaviour of the router pipeline
 * on minimal networks. These pin down the simulator's timing model
 * (1-cycle routing, 1-cycle transfer+link, credit loop) so that
 * accidental changes to the kernel's phase ordering are caught
 * immediately.
 */

#include <gtest/gtest.h>

#include "core/simulation.hh"
#include "sim/trace.hh"

namespace wormnet
{
namespace
{

SimulationConfig
lineConfig()
{
    SimulationConfig cfg;
    cfg.topology = "torus";
    cfg.radix = 8;
    cfg.dims = 1;
    cfg.vcs = 1;
    cfg.injPorts = 1;
    cfg.ejePorts = 1;
    cfg.flitRate = 0.0;
    cfg.detector = "none";
    cfg.recovery = "none";
    cfg.oraclePeriod = 0;
    cfg.injectionLimit = false;
    cfg.selection = "firstfit";
    return cfg;
}

TEST(Timing, HeadFlitHopLatency)
{
    // Trace the Routed events of a head crossing three routers: the
    // per-hop cadence must be constant (pipelined header).
    Simulation sim(lineConfig());
    Tracer tracer;
    sim.net().attachTracer(&tracer);
    const MsgId id = sim.net().injectMessage(0, 3, 4);
    sim.net().run(60);

    std::vector<Cycle> routed;
    for (const auto &r : tracer.messageHistory(id))
        if (r.event == TraceEvent::Routed)
            routed.push_back(r.cycle);
    // Hops at nodes 0,1,2 plus the ejection grant at node 3. A head
    // is routed in the cycle after it arrives, and a fresh grant
    // can win the switch from the next cycle on: two cycles a hop.
    ASSERT_EQ(routed.size(), 4u);
    for (std::size_t i = 1; i < routed.size(); ++i)
        EXPECT_EQ(routed[i] - routed[i - 1], 2u) << "hop " << i;
}

TEST(Timing, FlitIntoEmptyRoutedVcCrossesNextCycle)
{
    // Two worms from node 0 share the link to node 1 on separate
    // VCs, so the switch alternates them and each VC at node 1
    // receives a flit every other cycle while draining at one a
    // cycle: the worms are stretched thin and their VCs at node 1
    // keep running empty. One worm ejects at node 1, the other moves
    // on to node 2. A flit that enters an empty routed VC must stay
    // buffered through the cycle it arrives in and cross in the next.
    SimulationConfig cfg = lineConfig();
    cfg.vcs = 2;
    cfg.injPorts = 2;
    Simulation sim(cfg);
    Network &net = sim.net();
    net.injectMessage(0, 1, 32);
    net.injectMessage(0, 2, 32);
    const LinkEnd east = net.downstream(0, Topology::outPort(0, true));
    ASSERT_EQ(east.node, 1u);

    struct Seen
    {
        bool free;
        bool routed;
        std::uint32_t count;
        std::uint32_t front;
    };
    const auto look = [&](VcId v) {
        const InputVc &vc = net.inputVc(1, east.port, v);
        return Seen{vc.free(), vc.routed, vc.buf.count, vc.buf.front};
    };
    unsigned arrivals = 0;
    // Per VC: the front a fresh arrival must have reached by the end
    // of the next cycle (0 when nothing is due).
    std::uint32_t due[2] = {0, 0};
    for (int t = 0; t < 120; ++t) {
        const Seen before[2] = {look(0), look(1)};
        net.step();
        for (VcId v = 0; v < 2; ++v) {
            const Seen after = look(v);
            if (due[v] != 0) {
                // A crossing tail frees the VC.
                EXPECT_TRUE(after.front == due[v] || after.free)
                    << "flit that arrived in cycle " << t - 1
                    << " did not cross in cycle " << t;
                due[v] = 0;
            }
            if (!before[v].routed || before[v].count != 0 ||
                after.count + after.front <= before[v].front)
                continue; // not a flit entering an empty routed VC
            ++arrivals;
            EXPECT_EQ(after.count, 1u) << "cycle " << t;
            EXPECT_EQ(after.front, before[v].front)
                << "flit crossed in its arrival cycle " << t;
            due[v] = after.front + 1;
        }
    }
    EXPECT_GE(arrivals, 20u) << "scenario must stretch the worms";
}

TEST(Timing, InjectionIsOneFlitPerCyclePerPort)
{
    Simulation sim(lineConfig());
    const MsgId id = sim.net().injectMessage(0, 4, 12);
    // After k cycles at most k flits have been injected.
    for (int k = 1; k <= 14; ++k) {
        sim.net().step();
        EXPECT_LE(sim.net().messages().get(id).flitsInjected,
                  static_cast<unsigned>(k));
    }
    // And injection is not slower than 1 flit/cycle when unblocked:
    // 12 flits are in by cycle 14.
    EXPECT_EQ(sim.net().messages().get(id).flitsInjected, 12u);
}

TEST(Timing, EjectionConsumesOneFlitPerCyclePerPort)
{
    Simulation sim(lineConfig());
    const MsgId id = sim.net().injectMessage(0, 1, 10);
    Cycle first_eject = 0, done = 0;
    for (int k = 0; k < 60 && done == 0; ++k) {
        sim.net().step();
        const Message &m = sim.net().messages().get(id);
        if (m.flitsEjected > 0 && first_eject == 0)
            first_eject = sim.net().now();
        if (m.status == MsgStatus::Delivered)
            done = sim.net().now();
    }
    ASSERT_GT(done, 0u);
    // 10 flits at 1/cycle after the first: exactly 9 cycles apart.
    EXPECT_EQ(done - first_eject, 9u);
}

TEST(Timing, SaturatedChannelSustainsFullBandwidth)
{
    // Back-to-back worms over one channel: the channel must carry
    // one flit per cycle once the pipeline fills (no credit bubbles
    // in steady state).
    Simulation sim(lineConfig());
    for (int i = 0; i < 6; ++i)
        sim.net().injectMessage(0, 2, 32);
    sim.net().run(40); // fill
    sim.net().startMeasurement();
    sim.net().run(100);
    // Channel 0->1 utilisation ~1 while traffic lasts.
    EXPECT_GT(sim.net().channelUtilization(0, 0), 0.9);
}

TEST(Timing, BlockedWormFreezesExactlyWhereItStands)
{
    // A worm blocked mid-network holds its buffers but transmits
    // nothing: the blocked channel's tx counter stays frozen.
    Simulation sim(lineConfig());
    sim.net().injectMessage(1, 5, 64); // blocker takes channel 1->2
    sim.net().run(8);
    sim.net().injectMessage(0, 2, 32); // victim blocks at node 1
    sim.net().run(30);
    sim.net().startMeasurement();
    const std::uint64_t before = sim.net().channelTxCount(0, 0);
    sim.net().run(10);
    // Victim's first channel (0 -> 1) is frozen: buffers full,
    // nothing moves until the blocker's tail passes.
    EXPECT_EQ(sim.net().channelTxCount(0, 0), before);
}

TEST(Timing, DetectionLatencyStatIsPopulated)
{
    // Engineered deadlock with a small oracle period: the detection
    // latency statistic must land near t2 (the deadlock forms, DT
    // trips t2 cycles later, modulo oracle quantisation).
    SimulationConfig cfg = lineConfig();
    cfg.radix = 12;
    cfg.detector = "ndm:64";
    cfg.recovery = "progressive";
    cfg.oraclePeriod = 4;
    Simulation sim(cfg);
    sim.net().injectMessage(0, 4, 48);
    sim.net().injectMessage(3, 7, 48);
    sim.net().injectMessage(6, 10, 48);
    sim.net().injectMessage(9, 1, 48);
    sim.net().run(3000);
    const SimStats &s = sim.net().stats();
    ASSERT_GE(s.detections, 1u);
    ASSERT_GE(s.detectionLatency.count(), 1u);
    EXPECT_GT(s.detectionLatency.mean(), 0.0);
    EXPECT_LT(s.detectionLatency.mean(), 400.0);
}

} // namespace
} // namespace wormnet
