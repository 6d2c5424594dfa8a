/**
 * @file
 * Tests for the parallel sweep engine: the job-count parse,
 * parallelFor's serial-equivalence contract, the SplitMix64
 * seed derivation, and the headline guarantee that a TableSpec run
 * with jobs 1, 2 and 8 produces byte-identical TableResults.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/experiment.hh"

namespace wormnet
{
namespace
{

// ---------------------------------------------------------------
// Job-count parse.
// ---------------------------------------------------------------

TEST(JobCount, ParseAcceptsOnlyPositiveIntegersThatFitUnsigned)
{
    const unsigned max = std::numeric_limits<unsigned>::max();
    EXPECT_EQ(parseJobs("1"), 1u);
    EXPECT_EQ(parseJobs("4"), 4u);
    EXPECT_EQ(parseJobs("007"), 7u);
    EXPECT_EQ(parseJobs(std::to_string(max)), max);

    const std::vector<std::string> rejected = {
        "",    "0",    "00",  "4x",
        "4 ",  " 4",   "+4",  "-1",
        "1.5", "abc",  "0x10", std::to_string(std::uint64_t{max} + 1),
        std::to_string(std::uint64_t{max} + 2)};
    for (const std::string &bad : rejected)
        EXPECT_EQ(parseJobs(bad), std::nullopt) << "'" << bad << "'";
}

TEST(JobCount, DefaultJobsIgnoresMalformedEnv)
{
    const char *old = std::getenv("WORMNET_JOBS");
    const std::optional<std::string> saved =
        old ? std::optional<std::string>(old) : std::nullopt;
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());

    ::unsetenv("WORMNET_JOBS");
    EXPECT_EQ(defaultJobs(), hw);
    ::setenv("WORMNET_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    // "4x" once read as 4 and 2^32 + 1 as 1; each now falls back.
    for (const char *bad : {"4x", "4294967297", "0", "-2", "abc"}) {
        ::setenv("WORMNET_JOBS", bad, 1);
        EXPECT_EQ(defaultJobs(), hw) << "WORMNET_JOBS='" << bad << "'";
    }

    if (saved)
        ::setenv("WORMNET_JOBS", saved->c_str(), 1);
    else
        ::unsetenv("WORMNET_JOBS");
}

// ---------------------------------------------------------------
// parallelFor contract.
// ---------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (const unsigned jobs : {1u, 2u, 5u, 8u}) {
        std::vector<int> hits(257, 0);
        parallelFor(hits.size(), jobs,
                    [&](std::size_t i) { ++hits[i]; });
        for (const int h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(ParallelFor, ZeroAndTinyRangesRunInline)
{
    // n <= 1, and jobs = 1 at any n, run on the caller thread.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> ran{0};
    const auto body = [&](std::size_t) {
        ran.fetch_add(1);
        EXPECT_EQ(std::this_thread::get_id(), caller);
    };
    parallelFor(0, 8, body);
    EXPECT_EQ(ran.load(), 0);
    parallelFor(1, 8, body);
    EXPECT_EQ(ran.load(), 1);
    parallelFor(16, 1, body);
    EXPECT_EQ(ran.load(), 17);
}

TEST(ParallelFor, RethrowsLowestFailingIndex)
{
    // Indices 3 and 7 fail; every job count must surface index 3's
    // exception, the one a serial loop would have thrown first.
    for (const unsigned jobs : {1u, 2u, 8u}) {
        try {
            parallelFor(16, jobs, [&](std::size_t i) {
                if (i == 3)
                    throw std::out_of_range("index 3");
                if (i == 7)
                    throw std::runtime_error("index 7");
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::out_of_range &e) {
            EXPECT_STREQ(e.what(), "index 3");
        }
    }
}

TEST(ParallelFor, ExceptionDoesNotLoseCompletedWork)
{
    std::vector<std::atomic<int>> hits(32);
    EXPECT_THROW(parallelFor(hits.size(), 4,
                             [&](std::size_t i) {
                                 hits[i].fetch_add(1);
                                 if (i == 0)
                                     throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    // Indices already picked up may finish; none runs twice.
    EXPECT_EQ(hits[0].load(), 1);
    for (const std::atomic<int> &h : hits)
        EXPECT_LE(h.load(), 1);
}

// ---------------------------------------------------------------
// Seed derivation.
// ---------------------------------------------------------------

TEST(SeedDerivation, AdjacentBaseSeedsAndCellsNeverOverlap)
{
    // The old scheme (seed + replication) made cell seeds collide
    // whenever base seeds were adjacent; the SplitMix64 derivation
    // must give every (base, cell, replication) a distinct seed.
    std::set<std::uint64_t> seeds;
    std::size_t produced = 0;
    for (std::uint64_t base = 1; base <= 4; ++base) {
        for (std::uint64_t cell = 0; cell < 8; ++cell) {
            for (std::uint64_t rep = 0; rep < 16; ++rep) {
                seeds.insert(deriveSeed(base, cell, rep));
                ++produced;
            }
        }
    }
    EXPECT_EQ(seeds.size(), produced);
}

TEST(SeedDerivation, IsDeterministic)
{
    EXPECT_EQ(deriveSeed(1, 2, 3), deriveSeed(1, 2, 3));
    EXPECT_NE(deriveSeed(1, 2, 3), deriveSeed(2, 2, 3));
    EXPECT_NE(deriveSeed(1, 2, 3), deriveSeed(1, 3, 3));
    EXPECT_NE(deriveSeed(1, 2, 3), deriveSeed(1, 2, 4));
}

// ---------------------------------------------------------------
// Determinism of the experiment harness across job counts.
// ---------------------------------------------------------------

void
expectCellsIdentical(const CellResult &a, const CellResult &b)
{
    // Bitwise comparison: the parallel engine promises results
    // identical to the serial order, not merely close.
    EXPECT_EQ(std::memcmp(&a.detectionRate, &b.detectionRate,
                          sizeof a.detectionRate),
              0);
    EXPECT_EQ(std::memcmp(&a.detectionRateStd, &b.detectionRateStd,
                          sizeof a.detectionRateStd),
              0);
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.sawTrueDeadlock, b.sawTrueDeadlock);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.detectedMessages, b.detectedMessages);
    EXPECT_EQ(std::memcmp(&a.acceptedFlitRate, &b.acceptedFlitRate,
                          sizeof a.acceptedFlitRate),
              0);
    EXPECT_EQ(std::memcmp(&a.generatedFlitRate, &b.generatedFlitRate,
                          sizeof a.generatedFlitRate),
              0);
    EXPECT_EQ(std::memcmp(&a.avgLatency, &b.avgLatency,
                          sizeof a.avgLatency),
              0);
}

TableSpec
smallSpec()
{
    TableSpec spec;
    spec.title = "determinism";
    spec.base.radix = 4;
    spec.base.dims = 2;
    spec.base.detector = "ndm:32";
    spec.base.seed = 11;
    spec.detectorTemplate = "ndm:%T";
    spec.thresholds = {8, 64};
    spec.sizeClasses = {"s", "l"};
    spec.rates = {0.15, 0.35};
    spec.rateLabels = {"low", "high"};
    spec.warmup = 200;
    spec.measure = 600;
    spec.replications = 3;
    return spec;
}

TEST(ParallelDeterminism, TableIdenticalAcrossJobCounts)
{
    const TableSpec spec = smallSpec();
    const ExperimentRunner serial({}, 1);
    const TableResult reference = serial.runTable(spec);

    for (const unsigned jobs : {2u, 8u}) {
        const ExperimentRunner parallel({}, jobs);
        const TableResult result = parallel.runTable(spec);
        ASSERT_EQ(result.cells.size(), reference.cells.size());
        for (std::size_t r = 0; r < reference.cells.size(); ++r) {
            ASSERT_EQ(result.cells[r].size(),
                      reference.cells[r].size());
            for (std::size_t s = 0; s < reference.cells[r].size();
                 ++s) {
                ASSERT_EQ(result.cells[r][s].size(),
                          reference.cells[r][s].size());
                for (std::size_t t = 0;
                     t < reference.cells[r][s].size(); ++t) {
                    expectCellsIdentical(result.cells[r][s][t],
                                         reference.cells[r][s][t]);
                }
            }
        }
        // The star annotations derive from sawTrueDeadlock, so the
        // formatted tables must render identically too.
        EXPECT_EQ(ExperimentRunner::formatTable(result).render(),
                  ExperimentRunner::formatTable(reference).render());
    }
}

TEST(ParallelDeterminism, ReplicatedCellIdenticalAcrossJobCounts)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.detector = "ndm:32";
    cfg.flitRate = 0.3;
    cfg.seed = 19;

    const ExperimentRunner serial({}, 1);
    const CellResult reference =
        serial.runCellReplicated(cfg, 300, 900, 4, /*cell_index=*/5);
    for (const unsigned jobs : {2u, 8u}) {
        const ExperimentRunner parallel({}, jobs);
        const CellResult cell = parallel.runCellReplicated(
            cfg, 300, 900, 4, /*cell_index=*/5);
        expectCellsIdentical(cell, reference);
    }
}

TEST(ParallelDeterminism, SaturationSearchIdenticalAcrossJobCounts)
{
    SimulationConfig cfg;
    cfg.radix = 4;
    cfg.dims = 2;
    cfg.detector = "ndm:32";
    cfg.seed = 3;

    const ExperimentRunner serial({}, 1);
    const double reference =
        serial.findSaturationRate(cfg, 0.1, 2.0, 0.05, 300, 900, 2);
    for (const unsigned jobs : {2u, 8u}) {
        const ExperimentRunner parallel({}, jobs);
        const double sat = parallel.findSaturationRate(
            cfg, 0.1, 2.0, 0.05, 300, 900, 2);
        EXPECT_EQ(sat, reference);
    }
}

TEST(ParallelDeterminism, ProgressFiresOncePerCellUnderParallelism)
{
    std::atomic<unsigned> calls{0};
    const ExperimentRunner runner(
        [&](const std::string &) { calls.fetch_add(1); }, 4);
    TableSpec spec = smallSpec();
    spec.replications = 2;
    runner.runTable(spec);
    // 2 rates x 2 sizes x 2 thresholds.
    EXPECT_EQ(calls.load(), 8u);
}

TEST(ParallelDeterminism, TableErrorsMatchSerialBehaviour)
{
    TableSpec spec = smallSpec();
    spec.detectorTemplate = "ndm:32"; // no %T
    for (const unsigned jobs : {1u, 4u}) {
        const ExperimentRunner runner({}, jobs);
        EXPECT_THROW(runner.runTable(spec), FatalError);
    }
}

} // namespace
} // namespace wormnet
