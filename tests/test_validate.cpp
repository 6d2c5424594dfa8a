/**
 * @file
 * Tests for (and with) the structural invariant checker: the checker
 * passes throughout randomised runs of every mechanism combination,
 * and actually fires when state is corrupted behind the kernel's
 * back.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/log.hh"
#include "core/simulation.hh"
#include "sim/validate.hh"

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
    EXPECT_NO_THROW(validateNetworkInvariants(sim.net()));
    sim.net().run(100);
    EXPECT_NO_THROW(validateNetworkInvariants(sim.net()));
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
    Router &rt = sim.net().router(0);
    rt.inputVc(0, 0).msg = 0;
    EXPECT_THROW(validateNetworkInvariants(sim.net()), PanicError);
}

TEST(Validate, DetectsCreditDrift)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.0;
    Simulation sim(cfg);
    sim.net().router(0).outputVc(0, 0).credits = 1;
    EXPECT_THROW(validateNetworkInvariants(sim.net()), PanicError);
}

TEST(Validate, DetectsDanglingAllocation)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.flitRate = 0.0;
    Simulation sim(cfg);
    OutputVc &out = sim.net().router(3).outputVc(1, 2);
    out.allocated = true;
    out.msg = 0;
    out.srcPort = 0;
    out.srcVc = 0;
    sim.net().injectMessage(0, 5, 4); // message 0 exists, holds nothing
    EXPECT_THROW(validateNetworkInvariants(sim.net()), PanicError);
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
        ASSERT_NO_THROW(validateNetworkInvariants(sim.net()));
    }
    // And after a full drain.
    sim.net().setFlitRate(0.0);
    sim.net().run(3000);
    ASSERT_NO_THROW(validateNetworkInvariants(sim.net()));
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
