/**
 * @file
 * Ablation: virtual channels per physical channel. The paper (after
 * Warnakulasuriya & Pinkston) argues deadlocks become rare when
 * sufficient routing freedom exists; this bench sweeps the VC count
 * and reports saturation-relative throughput, NDM detection
 * percentage and oracle-confirmed true deadlocks — deadlock
 * frequency collapses between 1 and 2 VCs and detections keep
 * falling through 4.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "core/simulation.hh"

int
main(int argc, char **argv)
{
    using namespace wormnet;
    const auto opts = bench::parseBenchArgs(argc, argv, "uniform",
                                            /*default_sat=*/0.74);

    TextTable table(5);
    table.addRow({"VCs", "accepted (f/c/n)", "NDM Th32 det %",
                  "true deadlocked msgs", "mean latency"});
    table.addSeparator();
    // Independent sweep points fan out; rows append in sweep order so
    // stdout is identical for every job count.
    const std::vector<unsigned> sweep = {1, 2, 3, 4};
    std::vector<std::vector<std::string>> rows(sweep.size());
    parallelFor(sweep.size(), opts.jobs, [&](std::size_t i) {
        SimulationConfig cfg = opts.base;
        cfg.vcs = sweep[i];
        // Not = "s": GCC 12 raises a false -Wrestrict on a one-char
        // literal assigned to a std::string.
        cfg.lengths = std::string("s");
        cfg.flitRate = 0.857 * opts.satRate;
        cfg.detector = "ndm:32";
        cfg.recovery = "progressive";
        cfg.oraclePeriod = 64;
        Simulation sim(cfg);
        const SimSummary s =
            sim.warmupAndMeasure(opts.warmup, opts.measure);
        std::fputc('.', stderr);
        std::fflush(stderr);
        char acc[32], lat[32];
        std::snprintf(acc, sizeof(acc), "%.3f", s.acceptedFlitRate);
        std::snprintf(lat, sizeof(lat), "%.1f", s.avgLatency);
        rows[i] = {std::to_string(sweep[i]), acc,
                   formatPercentPaperStyle(s.detectionRate),
                   std::to_string(s.trueDeadlockedMessages), lat};
    });
    for (auto &row : rows)
        table.addRow(std::move(row));
    std::fputc('\n', stderr);
    std::printf("Virtual-channel ablation at 86%% of the 3-VC "
                "saturation rate (uniform, 's'):\n%s\n",
                table.render().c_str());
    return 0;
}
