/**
 * @file
 * Integration tests for the Network kernel: conservation invariants,
 * determinism, measurement windows, injection limitation and
 * multi-message behaviour under sustained load.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/simulation.hh"

namespace wormnet
{
namespace
{

SimulationConfig
smallConfig()
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.15;
    cfg.detector = "ndm:32";
    cfg.recovery = "progressive";
    cfg.seed = 11;
    return cfg;
}

TEST(Network, ConservationAfterDrain)
{
    Simulation sim(smallConfig());
    sim.net().run(4000);
    sim.net().setFlitRate(0.0);
    sim.net().run(4000);

    const SimStats &s = sim.net().stats();
    EXPECT_GT(s.generated, 200u);
    // Once drained, every injected message was delivered.
    EXPECT_EQ(s.delivered, s.injected);
    EXPECT_EQ(sim.net().inFlight(), 0u);
    EXPECT_EQ(sim.net().totalQueued(), 0u);
    // And everything generated was eventually injected.
    EXPECT_EQ(s.injected, s.generated);
}

TEST(Network, FlitConservation)
{
    Simulation sim(smallConfig());
    sim.net().run(3000);
    sim.net().setFlitRate(0.0);
    sim.net().run(3000);
    const SimStats &s = sim.net().stats();
    // Every delivered message contributed exactly `length` flits.
    std::uint64_t expected = 0;
    for (MsgId id = 0; id < sim.net().messages().size(); ++id) {
        const Message &m = sim.net().messages().get(id);
        if (m.status == MsgStatus::Delivered && !m.recovered)
            expected += m.length;
    }
    EXPECT_EQ(s.flitsDelivered, expected);
}

TEST(Network, DeterministicGivenSeed)
{
    SimSummary a, b;
    {
        Simulation sim(smallConfig());
        a = sim.warmupAndMeasure(1000, 3000);
    }
    {
        Simulation sim(smallConfig());
        b = sim.warmupAndMeasure(1000, 3000);
    }
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.detectedMessages, b.detectedMessages);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_DOUBLE_EQ(a.acceptedFlitRate, b.acceptedFlitRate);
}

TEST(Network, DifferentSeedsDiffer)
{
    SimulationConfig cfg = smallConfig();
    Simulation sim_a(cfg);
    cfg.seed = 12;
    Simulation sim_b(cfg);
    const SimSummary a = sim_a.warmupAndMeasure(1000, 3000);
    const SimSummary b = sim_b.warmupAndMeasure(1000, 3000);
    EXPECT_NE(a.avgLatency, b.avgLatency);
}

TEST(Network, MeasurementWindowResets)
{
    Simulation sim(smallConfig());
    sim.net().run(2000);
    const std::uint64_t before = sim.net().stats().delivered;
    EXPECT_GT(before, 0u);
    EXPECT_EQ(sim.net().stats().wDelivered, 0u); // not measuring yet
    sim.net().startMeasurement();
    EXPECT_EQ(sim.net().stats().wDelivered, 0u);
    sim.net().run(2000);
    EXPECT_GT(sim.net().stats().wDelivered, 0u);
    EXPECT_LT(sim.net().stats().wDelivered,
              sim.net().stats().delivered);
}

TEST(Network, AcceptedMatchesOfferedBelowSaturation)
{
    SimulationConfig cfg = smallConfig();
    cfg.flitRate = 0.2;
    Simulation sim(cfg);
    const SimSummary s = sim.warmupAndMeasure(2000, 6000);
    EXPECT_NEAR(s.acceptedFlitRate, 0.2, 0.03);
}

TEST(Network, LatencyAboveZeroLoadBound)
{
    // At near-zero load, latency approaches the no-contention bound:
    // ~3 cycles/hop plus serialisation (length flits).
    SimulationConfig cfg = smallConfig();
    cfg.flitRate = 0.01;
    cfg.lengths = "16";
    Simulation sim(cfg);
    const SimSummary s = sim.warmupAndMeasure(1000, 8000);
    EXPECT_GT(s.avgLatency, 16.0);
    EXPECT_LT(s.avgLatency, 50.0);
}

TEST(Network, LatencyGrowsWithLoad)
{
    SimulationConfig lo = smallConfig(), hi = smallConfig();
    lo.flitRate = 0.05;
    hi.flitRate = 0.5;
    Simulation sim_lo(lo), sim_hi(hi);
    const SimSummary a = sim_lo.warmupAndMeasure(1500, 4000);
    const SimSummary b = sim_hi.warmupAndMeasure(1500, 4000);
    EXPECT_GT(b.avgLatency, a.avgLatency);
}

TEST(Network, InjectionLimitThrottlesUnderOverload)
{
    // With the limiter, accepted throughput beyond saturation stays
    // near the peak instead of collapsing.
    SimulationConfig with = smallConfig(), without = smallConfig();
    with.flitRate = 1.2;
    without.flitRate = 1.2;
    without.injectionLimit = false;
    Simulation sim_with(with), sim_without(without);
    const SimSummary a = sim_with.warmupAndMeasure(2000, 6000);
    const SimSummary b = sim_without.warmupAndMeasure(2000, 6000);
    EXPECT_GT(a.acceptedFlitRate, b.acceptedFlitRate * 0.95);
    // And the limited network holds messages at the sources.
    EXPECT_GT(sim_with.net().totalQueued(), 0u);
}

TEST(Network, SourceQueueCapDropsExcess)
{
    SimulationConfig cfg = smallConfig();
    cfg.flitRate = 1.5;
    cfg.maxSourceQueue = 8;
    Simulation sim(cfg);
    sim.net().run(4000);
    for (NodeId n = 0; n < sim.net().numNodes(); ++n)
        EXPECT_LE(sim.net().sourceQueueLength(n), 8u);
}

TEST(Network, MixedLengthsDeliver)
{
    SimulationConfig cfg = smallConfig();
    cfg.lengths = "sl";
    cfg.flitRate = 0.3;
    Simulation sim(cfg);
    const SimSummary s = sim.warmupAndMeasure(1500, 5000);
    EXPECT_GT(s.delivered, 300u);
}

TEST(Network, HotspotDeliversWithMultiPortEjection)
{
    SimulationConfig cfg = smallConfig();
    cfg.pattern = "hotspot:0.2:0";
    cfg.flitRate = 0.2;
    Simulation sim(cfg);
    const SimSummary s = sim.warmupAndMeasure(2000, 5000);
    EXPECT_GT(s.delivered, 200u);
    EXPECT_GT(s.acceptedFlitRate, 0.1);
}

TEST(Network, NoDetectionsAtLowLoad)
{
    SimulationConfig cfg = smallConfig();
    cfg.flitRate = 0.05;
    cfg.detector = "ndm:32";
    Simulation sim(cfg);
    const SimSummary s = sim.warmupAndMeasure(2000, 8000);
    EXPECT_EQ(s.detectedMessages, 0u);
}

TEST(Network, DetectorConfigRoundTrip)
{
    // The config string reaches the detector (name check only).
    SimulationConfig cfg = smallConfig();
    cfg.detector = "pdm:64";
    Simulation sim(cfg);
    EXPECT_NO_THROW(sim.net().run(100));
}

TEST(Network, FromConfigMapping)
{
    Config cli = Config::parseString(
        "radix=4,dims=3,vcs=2,rate=0.1,pattern=bitrev,lengths=l,"
        "detector=pdm:16,recovery=regressive,seed=99,"
        "injection-limit=false,selection=firstfit");
    const SimulationConfig cfg = SimulationConfig::fromConfig(cli);
    EXPECT_EQ(cfg.radix, 4u);
    EXPECT_EQ(cfg.dims, 3u);
    EXPECT_EQ(cfg.vcs, 2u);
    EXPECT_DOUBLE_EQ(cfg.flitRate, 0.1);
    EXPECT_EQ(cfg.pattern, "bitrev");
    EXPECT_EQ(cfg.lengths, "l");
    EXPECT_EQ(cfg.detector, "pdm:16");
    EXPECT_EQ(cfg.recovery, "regressive");
    EXPECT_EQ(cfg.seed, 99u);
    EXPECT_FALSE(cfg.injectionLimit);
    EXPECT_EQ(cfg.selection, "firstfit");
    EXPECT_NO_THROW(Simulation{cfg});
}

TEST(Network, InvalidConfigIsFatal)
{
    SimulationConfig cfg = smallConfig();
    cfg.topology = "hypercube-of-cliques";
    EXPECT_THROW(Simulation{cfg}, FatalError);

    cfg = smallConfig();
    cfg.selection = "psychic";
    EXPECT_THROW(Simulation{cfg}, FatalError);

    cfg = smallConfig();
    cfg.injPorts = 0;
    EXPECT_THROW(Simulation{cfg}, FatalError);
}

// Every network steps on one thread. sim-jobs survives only as a
// config key that accepts 0 or 1 (the benchmark driver passes 1);
// asking for more must fail loudly, not silently run sequentially.
TEST(Network, SimJobsAboveOneIsFatal)
{
    SimulationConfig cfg = smallConfig();
    cfg.simJobs = 1;
    EXPECT_NO_THROW(Simulation{cfg});
    cfg.simJobs = 2;
    EXPECT_THROW(Simulation{cfg}, FatalError);

    const Config cli = Config::parseString("sim-jobs=1");
    EXPECT_EQ(SimulationConfig::fromConfig(cli).simJobs, 1u);
}

TEST(Network, MeshTopologyEndToEnd)
{
    SimulationConfig cfg = smallConfig();
    cfg.topology = "mesh";
    cfg.routing = "dor";
    cfg.detector = "none";
    cfg.recovery = "none";
    cfg.flitRate = 0.08;
    Simulation sim(cfg);
    sim.net().run(3000);
    sim.net().setFlitRate(0.0);
    sim.net().run(3000);
    EXPECT_EQ(sim.net().stats().delivered,
              sim.net().stats().injected);
    EXPECT_GT(sim.net().stats().delivered, 100u);
}

TEST(Network, ChannelUtilizationTracksLoad)
{
    SimulationConfig cfg = smallConfig();
    cfg.flitRate = 0.3;
    Simulation sim(cfg);
    sim.warmupAndMeasure(1000, 4000);
    const RunningStat util = sim.net().utilizationSummary();
    // 16 channels per 4x4 torus... utilisation bounded by 1 and
    // roughly rate * avg_distance / channels-per-node.
    EXPECT_GT(util.mean(), 0.05);
    EXPECT_LE(util.max(), 1.0);
    // Uniform traffic on a symmetric torus: no channel starves.
    EXPECT_GT(util.min(), 0.01);
}

TEST(Network, ChannelUtilizationZeroWhenIdle)
{
    SimulationConfig cfg = smallConfig();
    cfg.flitRate = 0.0;
    Simulation sim(cfg);
    sim.warmupAndMeasure(100, 500);
    EXPECT_DOUBLE_EQ(sim.net().utilizationSummary().mean(), 0.0);
}

TEST(Network, HotspotSkewsUtilization)
{
    SimulationConfig cfg = smallConfig();
    cfg.pattern = "hotspot:0.3:0";
    cfg.flitRate = 0.15;
    Simulation sim(cfg);
    sim.warmupAndMeasure(1000, 4000);
    const RunningStat util = sim.net().utilizationSummary();
    // Channels near the hot node run far above the network mean.
    EXPECT_GT(util.max(), 2.0 * util.mean());
}

TEST(Network, MixedRadixTorusEndToEnd)
{
    SimulationConfig cfg = smallConfig();
    cfg.radices = "8x4";
    cfg.flitRate = 0.2;
    Simulation sim(cfg);
    EXPECT_EQ(sim.topology().numNodes(), 32u);
    sim.net().run(3000);
    sim.net().setFlitRate(0.0);
    sim.net().run(3000);
    EXPECT_EQ(sim.net().stats().delivered,
              sim.net().stats().injected);
    EXPECT_GT(sim.net().stats().delivered, 200u);
    EXPECT_EQ(sim.net().inFlight(), 0u);
}

TEST(Network, MixedRadicesRequireTorus)
{
    SimulationConfig cfg = smallConfig();
    cfg.topology = "mesh";
    cfg.radices = "4x4";
    EXPECT_THROW(Simulation{cfg}, FatalError);
}

TEST(Network, BigTorusSpotCheck)
{
    // The paper's 8-ary 3-cube (512 nodes) runs and delivers.
    SimulationConfig cfg;
    cfg.radix = 8;
    cfg.dims = 3;
    cfg.flitRate = 0.1;
    cfg.seed = 3;
    Simulation sim(cfg);
    const SimSummary s = sim.warmupAndMeasure(500, 1500);
    EXPECT_GT(s.delivered, 2000u);
    EXPECT_NEAR(s.acceptedFlitRate, 0.1, 0.02);
}

/**
 * The Network's flat link tables describe the topology exactly: each
 * network output port's downstream end is the topology neighbour's
 * peer input port, each wired input port's upstream end points back,
 * and injection, ejection and dangling mesh-edge ports stay invalid.
 */
void
expectLinkTablesMatchTopology(const SimulationConfig &cfg)
{
    Simulation sim(cfg);
    const Network &net = sim.net();
    const Topology &topo = sim.topology();
    const RouterParams &rp = net.routerParams();
    std::size_t down_links = 0;
    std::size_t up_links = 0;
    std::size_t dangling = 0;
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        for (PortId q = 0; q < rp.numOutPorts(); ++q) {
            const LinkEnd &down = net.downstream(n, q);
            if (q >= rp.netPorts) {
                EXPECT_FALSE(down.valid()) << n << ":" << q;
                continue;
            }
            const NodeId peer =
                topo.neighbor(n, Topology::dimOfPort(q),
                              Topology::isPositivePort(q));
            if (peer == kInvalidNode) {
                EXPECT_FALSE(down.valid()) << n << ":" << q;
                ++dangling;
                continue;
            }
            ++down_links;
            EXPECT_EQ(down.node, peer) << n << ":" << q;
            EXPECT_EQ(down.port, Topology::peerInPort(q))
                << n << ":" << q;
            const LinkEnd &back = net.upstream(down.node, down.port);
            EXPECT_EQ(back.node, n) << n << ":" << q;
            EXPECT_EQ(back.port, q) << n << ":" << q;
        }
        for (PortId p = 0; p < rp.numInPorts(); ++p) {
            const LinkEnd &up = net.upstream(n, p);
            if (p >= rp.netPorts) {
                EXPECT_FALSE(up.valid()) << n << ":" << p;
                continue;
            }
            if (!up.valid())
                continue;
            ++up_links;
            const LinkEnd &fwd = net.downstream(up.node, up.port);
            EXPECT_EQ(fwd.node, n) << n << ":" << p;
            EXPECT_EQ(fwd.port, p) << n << ":" << p;
        }
    }
    EXPECT_EQ(down_links, up_links);
    EXPECT_EQ(down_links + dangling,
              std::size_t(net.numNodes()) * rp.netPorts);
    if (topo.wraparound())
        EXPECT_EQ(dangling, 0u);
    else
        EXPECT_GT(dangling, 0u);
}

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

TEST(LinkTables, TorusMatchesTopology)
{
    SimulationConfig cfg = quietConfig();
    cfg.radix = 4;
    cfg.dims = 3;
    expectLinkTablesMatchTopology(cfg);
}

TEST(LinkTables, MeshEdgePortsStayInvalid)
{
    SimulationConfig cfg = quietConfig();
    cfg.topology = "mesh";
    cfg.radix = 4;
    cfg.dims = 2;
    expectLinkTablesMatchTopology(cfg);
}

TEST(LinkTables, MixedRadixTorusMatchesTopology)
{
    SimulationConfig cfg = quietConfig();
    cfg.radices = "5x3x2";
    expectLinkTablesMatchTopology(cfg);
}

} // namespace
} // namespace wormnet
