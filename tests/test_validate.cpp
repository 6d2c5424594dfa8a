/**
 * @file
 * Tests for (and with) Network::audit(): it passes throughout
 * randomised runs of every mechanism combination, and it fires when
 * primary state or a derived cache is corrupted behind the kernel's
 * back.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/log.hh"
#include "core/simulation.hh"
#include "detection/ndm.hh"
#include "routing/routing.hh"
#include "sim/network.hh"
#include "topology/torus.hh"
#include "traffic/length.hh"
#include "traffic/pattern.hh"

namespace wormnet
{
namespace
{

TEST(Validate, EmptyNetworkIsValid)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.0;
    Simulation sim(cfg);
    EXPECT_NO_THROW(sim.net().audit());
    sim.net().run(100);
    EXPECT_NO_THROW(sim.net().audit());
}

TEST(Validate, DetectsForeignFlit)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.0;
    Simulation sim(cfg);
    // Corrupt: claim a VC for message 0 with no flits injected...
    sim.net().injectMessage(0, 5, 4);
    sim.net().inputVc(0, 0, 0).msg = 0;
    EXPECT_THROW(sim.net().audit(), PanicError);
}

TEST(Validate, DetectsCreditDrift)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.0;
    Simulation sim(cfg);
    sim.net().outputVc(0, 0, 0).credits = 1;
    EXPECT_THROW(sim.net().audit(), PanicError);
}

TEST(Validate, DetectsDanglingAllocation)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.0;
    Simulation sim(cfg);
    OutputVc &out = sim.net().outputVc(3, 1, 2);
    out.msg = 0;
    sim.net().injectMessage(0, 5, 4); // message 0 exists, holds nothing
    EXPECT_THROW(sim.net().audit(), PanicError);
}

/** A 4x4 torus past saturation, so blocked heads, mid-injection
 *  worms and busy injection VCs all exist when the caches are
 *  corrupted below. */
SimulationConfig
saturatedConfig()
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.8;
    cfg.oraclePeriod = 0;
    cfg.seed = 5;
    return cfg;
}

/** The first input VC (ascending node, port, VC) satisfying @p pick,
 *  or nullptr. */
template <typename Pick>
InputVc *
findInputVc(Network &net, Pick pick)
{
    const RouterParams &rp = net.routerParams();
    for (NodeId node = 0; node < net.numNodes(); ++node) {
        for (PortId p = 0; p < rp.numInPorts(); ++p) {
            for (VcId v = 0; v < rp.vcs; ++v) {
                InputVc &vc = net.inputVc(node, p, v);
                if (pick(vc, p))
                    return &vc;
            }
        }
    }
    return nullptr;
}

TEST(Validate, DetectsStaleRoutableFlag)
{
    Simulation sim(saturatedConfig());
    sim.net().run(400);
    ASSERT_NO_THROW(sim.net().audit());
    // A head that already failed to route: routable, yet flagged as
    // not in the routing phase's mask.
    InputVc *vc = findInputVc(sim.net(), [](const InputVc &c, PortId) {
        return c.inRouteSet && c.attempted;
    });
    ASSERT_NE(vc, nullptr) << "scenario must leave a blocked head";
    vc->inRouteSet = false;
    EXPECT_THROW(sim.net().audit(), PanicError);
}

TEST(Validate, DetectsStaleCachedDst)
{
    Simulation sim(saturatedConfig());
    sim.net().run(400);
    ASSERT_NO_THROW(sim.net().audit());
    InputVc *vc = findInputVc(sim.net(), [](const InputVc &c, PortId) {
        return !c.free();
    });
    ASSERT_NE(vc, nullptr);
    vc->dst = (vc->dst + 1) % sim.net().numNodes();
    EXPECT_THROW(sim.net().audit(), PanicError);
}

TEST(Validate, DetectsStaleMidInjectionMask)
{
    Simulation sim(saturatedConfig());
    sim.net().run(400);
    ASSERT_NO_THROW(sim.net().audit());
    // A worm still mid-injection whose head has not left its
    // injection VC. Cutting it to the flits already injected, in the
    // message and in the VC's cached length alike, leaves every other
    // invariant intact but makes it fully injected, which its set
    // mask bit denies.
    Network &net = sim.net();
    const PortId net_ports =
        static_cast<PortId>(net.routerParams().netPorts);
    InputVc *vc = findInputVc(net, [&](const InputVc &c, PortId p) {
        if (p < net_ports || c.free())
            return false;
        const Message &m = net.messages().get(c.msg);
        return m.flitsInjected < m.length && m.numLinks() == 1;
    });
    ASSERT_NE(vc, nullptr)
        << "scenario must leave a blocked worm mid-injection";
    Message &m = net.messages().get(vc->msg);
    m.length = m.flitsInjected;
    vc->length = m.flitsInjected;
    EXPECT_THROW(net.audit(), PanicError);
}

/** NDM whose derived waiter masks a test can corrupt. */
class CorruptibleNdm : public NdmDetector
{
  public:
    CorruptibleNdm() : NdmDetector(NdmParams{}) {}

    /** Input channels waiting on some output channel, summed. */
    std::size_t
    waiterBits() const
    {
        std::size_t bits = 0;
        for (const PortMask m : waiters_)
            bits += static_cast<std::size_t>(__builtin_popcount(m));
        return bits;
    }

    void flipWaiter(std::size_t out_channel, PortId in_port)
    {
        waiters_[out_channel] ^= PortMask(1) << in_port;
    }
};

TEST(Validate, DetectsCorruptNdmWaiters)
{
    // A 4x4 torus past saturation with blocked heads waiting on busy
    // channels: the waiter masks are live when one bit is flipped.
    KAryNCube topo(4, 2);
    UniformPattern pattern(topo);
    FixedLength lengths(16);
    NetworkParams np;
    RouterParams rp;
    rp.netPorts = topo.numNetPorts();
    rp.injPorts = np.injPorts;
    rp.ejePorts = np.ejePorts;
    rp.vcs = np.vcs;
    rp.bufDepth = np.bufDepth;
    TrueFullyAdaptiveRouting tfa(topo, rp);
    CorruptibleNdm ndm;
    Network net(topo, np, tfa, ndm, nullptr, pattern, lengths, 0.8, 5);
    net.run(400);
    ASSERT_GT(ndm.waiterBits(), 0u) << "scenario must block heads";
    ASSERT_NO_THROW(net.audit());
    ndm.flipWaiter(0, 1);
    EXPECT_THROW(net.audit(), PanicError);
    ndm.flipWaiter(0, 1);
    EXPECT_NO_THROW(net.audit());
}

/** The kernel keeps every invariant across mechanisms and loads.
 *  Strings are std::string, not const char *: test names are printed
 *  from the parameters, and a pointer would put an address in them. */
class ValidateSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, unsigned, double>>
{
};

TEST_P(ValidateSweep, InvariantsHoldThroughoutRandomRuns)
{
    const auto [detector, recovery, vcs, rate] = GetParam();
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.vcs = vcs;
    cfg.flitRate = rate;
    cfg.lengths = "sl";
    cfg.detector = detector;
    cfg.recovery = recovery;
    cfg.injectionLimit = vcs >= 3;
    cfg.oraclePeriod = 0;
    cfg.seed = 51;
    Simulation sim(cfg);
    for (int chunk = 0; chunk < 40; ++chunk) {
        sim.net().run(50);
        ASSERT_NO_THROW(sim.net().audit());
    }
    // And after a full drain.
    sim.net().setFlitRate(0.0);
    sim.net().run(3000);
    ASSERT_NO_THROW(sim.net().audit());
    EXPECT_EQ(sim.net().inFlight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, ValidateSweep,
    ::testing::Values(
        std::make_tuple("ndm:16", "progressive", 3u, 0.5),
        std::make_tuple("ndm:16", "progressive", 1u, 0.3),
        std::make_tuple("ndm:16", "regressive:16", 1u, 0.3),
        std::make_tuple("pdm:16", "progressive", 3u, 0.5),
        std::make_tuple("timeout:32", "regressive:16", 3u, 0.5),
        std::make_tuple("inj-stall-timeout:16", "regressive:16", 1u,
                        0.3),
        std::make_tuple("inj-stall-timeout:16", "progressive", 3u,
                        0.5),
        // The age threshold must exceed the worst-case injection
        // time (64-flit messages in the "sl" mix): a threshold of 64
        // or less re-kills long messages forever — the
        // length-dependence flaw the paper attributes to these
        // source timeouts.
        std::make_tuple("src-age-timeout:384", "regressive:16", 3u,
                        0.5),
        std::make_tuple("none", "none", 3u, 0.4)));

} // namespace
} // namespace wormnet
