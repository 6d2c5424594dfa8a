/**
 * @file
 * Property-based tests: invariants that must hold across sweeps of
 * traffic pattern, load, seed and mechanism configuration. These are
 * the system-level guarantees the paper's evaluation quietly relies
 * on (conservation, stability below saturation, detection-threshold
 * monotonicity, NDM's selectivity vs. PDM/timeouts).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/experiment.hh"
#include "core/simulation.hh"
#include "sim/oracle.hh"

namespace wormnet
{
namespace
{

/** Conservation and cleanliness after full drain, across patterns.
 *  Strings are std::string, not const char *: test names are printed
 *  from the parameters, and a pointer would put an address in them. */
class ConservationSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, double, unsigned>>
{
};

TEST_P(ConservationSweep, DrainedNetworkIsCleanAndConserving)
{
    const auto [pattern, rate, seed] = GetParam();
    SimulationConfig cfg;
    cfg.radix = 8;
    cfg.dims = 2;
    cfg.pattern = pattern;
    cfg.lengths = "sl";
    cfg.flitRate = rate;
    cfg.detector = "ndm:32";
    cfg.recovery = "progressive";
    cfg.seed = seed;
    Simulation sim(cfg);
    sim.net().run(3000);
    sim.net().setFlitRate(0.0);
    sim.net().run(4000);

    const SimStats &s = sim.net().stats();
    EXPECT_EQ(s.delivered + s.kills, s.injected);
    EXPECT_EQ(sim.net().inFlight(), 0u);
    EXPECT_EQ(sim.net().totalQueued(), 0u);
    EXPECT_GT(s.delivered, 50u);

    // All router state back to idle.
    const RouterParams &rp = sim.net().routerParams();
    for (NodeId n = 0; n < sim.net().numNodes(); ++n) {
        for (PortId p = 0; p < rp.numInPorts(); ++p)
            for (VcId v = 0; v < rp.vcs; ++v)
                ASSERT_TRUE(sim.net().inputVc(n, p, v).free());
        for (PortId q = 0; q < rp.numOutPorts(); ++q)
            for (VcId v = 0; v < rp.vcs; ++v)
                ASSERT_FALSE(sim.net().outputVc(n, q, v).allocated());
    }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndLoads, ConservationSweep,
    ::testing::Values(
        std::make_tuple("uniform", 0.2, 1u),
        std::make_tuple("uniform", 0.5, 2u),
        std::make_tuple("locality:3", 0.4, 3u),
        std::make_tuple("bitrev", 0.2, 4u),
        std::make_tuple("shuffle", 0.15, 5u),
        std::make_tuple("butterfly", 0.1, 6u),
        std::make_tuple("transpose", 0.15, 7u),
        std::make_tuple("hotspot:0.05", 0.06, 8u),
        std::make_tuple("tornado", 0.15, 9u)));

/** Latency distribution sanity across message-size classes. */
class SizeClassSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SizeClassSweep, LatencyAtLeastSerialisation)
{
    SimulationConfig cfg;
    cfg.radix = 8;
    cfg.dims = 2;
    cfg.lengths = GetParam();
    cfg.flitRate = 0.1;
    cfg.seed = 17;
    Simulation sim(cfg);
    const SimSummary s = sim.warmupAndMeasure(1500, 4000);
    ASSERT_GT(s.delivered, 50u);
    // A message of n flits needs >= n cycles end to end.
    const double min_len =
        std::string(GetParam()) == "sl" ? 16.0 : 0.0;
    EXPECT_GT(s.avgLatency, min_len);
    EXPECT_EQ(s.detectedMessages, 0u); // far below saturation
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeClassSweep,
                         ::testing::Values("s", "l", "L", "sl"));

/** Detection count is (weakly) monotone decreasing in threshold. */
class ThresholdMonotonicity
    : public ::testing::TestWithParam<const char *>
{
  protected:
    double
    rateFor(Cycle threshold)
    {
        SimulationConfig cfg;
        cfg.radix = 8;
        cfg.dims = 2;
        cfg.flitRate = 0.68; // just below the knee
        cfg.lengths = "s";
        cfg.seed = 23;
        cfg.detector =
            std::string(GetParam()) + ":" + std::to_string(threshold);
        Simulation sim(cfg);
        return sim.warmupAndMeasure(2000, 8000).detectionRate;
    }
};

TEST_P(ThresholdMonotonicity, LargeThresholdDetectsLess)
{
    const double r2 = rateFor(2);
    const double r512 = rateFor(512);
    // Strict ordering between the extremes (dynamics diverge between
    // runs, so only the 2-vs-512 gap is asserted).
    EXPECT_GE(r2, r512);
    EXPECT_LT(r512, 0.001);
}

INSTANTIATE_TEST_SUITE_P(Detectors, ThresholdMonotonicity,
                         ::testing::Values("ndm", "pdm", "timeout"));

TEST(Selectivity, NdmBelowPdmBelowTimeoutNearSaturation)
{
    // The paper's headline ordering at a common small threshold.
    const auto rate_for = [](const std::string &detector) {
        SimulationConfig cfg;
        cfg.radix = 8;
        cfg.dims = 2;
        cfg.flitRate = 0.72;
        cfg.lengths = "s";
        cfg.seed = 29;
        cfg.detector = detector;
        Simulation sim(cfg);
        return sim.warmupAndMeasure(2000, 10000).detectionRate;
    };
    const double ndm = rate_for("ndm:8");
    const double pdm = rate_for("pdm:8");
    const double timeout = rate_for("timeout:8");
    EXPECT_LT(ndm, pdm);
    EXPECT_LT(pdm, timeout);
    // Crude timeouts mark an order of magnitude (or more) more
    // messages than the channel-monitoring mechanisms.
    EXPECT_GT(timeout, 10.0 * pdm);
}

TEST(Selectivity, NdmLengthInsensitivity)
{
    // The paper's key claim: with NDM a single threshold works for
    // every message length. Measure the Th-32 detection rate for
    // 16-flit and 256-flit messages at ~85% load: both must be tiny.
    const auto rate_for = [](const std::string &lengths) {
        SimulationConfig cfg;
        cfg.radix = 8;
        cfg.dims = 2;
        cfg.flitRate = 0.64;
        cfg.lengths = lengths;
        cfg.seed = 31;
        cfg.detector = "ndm:32";
        Simulation sim(cfg);
        return sim.warmupAndMeasure(2000, 10000).detectionRate;
    };
    EXPECT_LT(rate_for("s"), 0.002);
    EXPECT_LT(rate_for("L"), 0.005);
    EXPECT_LT(rate_for("sl"), 0.003);
}

TEST(Selectivity, NdmNeverWorseThanPdmSeedAveraged)
{
    // Seed-averaged (3 replications) so the ordering is not an
    // artefact of one lucky run: at 86% load, NDM's detection rate
    // is below PDM's at the same threshold.
    const ExperimentRunner runner;
    const auto mean_rate = [&](const char *detector) {
        SimulationConfig cfg;
        cfg.radix = 8;
        cfg.dims = 2;
        cfg.flitRate = 0.64;
        cfg.lengths = "sl";
        cfg.detector = detector;
        cfg.seed = 43;
        return runner.runCellReplicated(cfg, 1500, 6000, 3)
            .detectionRate;
    };
    EXPECT_LT(mean_rate("ndm:16"), mean_rate("pdm:16"));
    EXPECT_LT(mean_rate("ndm:16"), mean_rate("timeout:16"));
}

/** With detection + recovery, no deadlock persists for long. */
class RecoveryLiveness : public ::testing::TestWithParam<
                             std::tuple<std::string, std::string>>
{
};

TEST_P(RecoveryLiveness, DeadlocksNeverPersist)
{
    const auto [detector, recovery] = GetParam();
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.vcs = 1; // deadlock-prone substrate
    cfg.flitRate = 0.3;
    cfg.lengths = "s";
    cfg.detector = detector;
    cfg.recovery = recovery;
    cfg.injectionLimit = false;
    cfg.oraclePeriod = 32;
    cfg.seed = 37;
    Simulation sim(cfg);
    sim.net().run(6000);
    sim.net().setFlitRate(0.0);
    sim.net().run(6000);
    const SimStats &s = sim.net().stats();
    EXPECT_EQ(s.delivered + s.kills, s.injected);
    EXPECT_EQ(sim.net().inFlight(), 0u);
    // Any deadlock that formed was resolved within a bounded time.
    EXPECT_LT(s.maxDeadlockPersistence, 3000u);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, RecoveryLiveness,
    ::testing::Values(
        std::make_tuple("ndm:16", "progressive"),
        std::make_tuple("ndm:16", "regressive:16"),
        std::make_tuple("pdm:16", "progressive"),
        std::make_tuple("timeout:64", "progressive"),
        std::make_tuple("ndm:16:1:coarse", "progressive")));

/** Seeds only perturb, never break, the qualitative behaviour. */
class SeedSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SeedSweep, SaturatedNetworkStaysProductive)
{
    SimulationConfig cfg;
    cfg.radix = 8;
    cfg.dims = 2;
    cfg.flitRate = 0.9; // beyond saturation
    cfg.lengths = "sl";
    cfg.detector = "ndm:32";
    cfg.recovery = "progressive";
    cfg.seed = GetParam();
    Simulation sim(cfg);
    const SimSummary s = sim.warmupAndMeasure(2000, 5000);
    // The injection limiter keeps accepted throughput near the peak.
    EXPECT_GT(s.acceptedFlitRate, 0.55);
    // And NDM's false-positive rate stays low even here.
    EXPECT_LT(s.detectionRate, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

/** Virtual-channel count scaling. */
class VcSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(VcSweep, MoreVcsNeverHurtDelivery)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.vcs = GetParam();
    cfg.flitRate = 0.25;
    cfg.seed = 41;
    Simulation sim(cfg);
    sim.net().run(2500);
    sim.net().setFlitRate(0.0);
    sim.net().run(2500);
    EXPECT_EQ(sim.net().stats().delivered,
              sim.net().stats().injected);
    EXPECT_GT(sim.net().stats().delivered, 200u);
}

INSTANTIATE_TEST_SUITE_P(Vcs, VcSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u));

/** Buffer-depth scaling. */
class BufferSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BufferSweep, DeliversAcrossBufferDepths)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.bufDepth = GetParam();
    cfg.flitRate = 0.2;
    cfg.seed = 43;
    Simulation sim(cfg);
    sim.net().run(2500);
    sim.net().setFlitRate(0.0);
    sim.net().run(2500);
    EXPECT_EQ(sim.net().stats().delivered,
              sim.net().stats().injected);
}

INSTANTIATE_TEST_SUITE_P(Depths, BufferSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace wormnet
