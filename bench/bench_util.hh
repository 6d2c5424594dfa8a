/**
 * @file
 * Shared harness for the paper-table benches.
 *
 * Each bench binary reproduces one of the paper's Tables 1-7: a grid
 * of "percentage of messages detected as possibly deadlocked" over
 * detection thresholds (rows), injection rates (column groups) and
 * message-size classes (columns). The paper's absolute injection
 * rates belong to its 512-node testbed; the benches instead sweep the
 * same *relative* loads — fractions of the pattern's measured
 * saturation rate on the configured network — and print the measured
 * rates in the column headers. Cells are starred when the
 * ground-truth oracle confirmed a true deadlock, like the paper's
 * "(*)" annotation; the paper's reference values are printed in
 * parentheses next to the measured ones.
 *
 * Common options:
 *   --quick            small thresholds/cycles grid (CI smoke run)
 *   --full             the paper's full grid on the 8-ary 3-cube
 *   --radix/--dims/... any SimulationConfig option
 *   --sat <rate>       override the calibrated saturation rate
 *   --calibrate        re-measure the saturation rate first
 *   --warmup/--measure cycles
 *   --seeds <n>        average n independent seeds per cell
 *   --jobs <n>         worker threads for independent simulations
 *                      (default: WORMNET_JOBS env, else hardware
 *                      concurrency; 1 = serial). The table printed on
 *                      stdout is bitwise-identical for every value;
 *                      jobs and the measured speedup go to stderr.
 *   --csv              also dump the table as CSV
 *   --checkpoint <f>   periodically save finished cells to <f>
 *   --checkpoint-every <n>  cells between saves (default 8)
 *   --resume <f>       restore finished cells from <f> and skip
 *                      them; the printed table is byte-identical to
 *                      an uninterrupted run at any --jobs
 */

#ifndef WORMNET_BENCH_BENCH_UTIL_HH
#define WORMNET_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "core/experiment.hh"

namespace wormnet
{
namespace bench
{

/** The paper's reference values for one table. */
struct PaperRef
{
    /** Thresholds the paper reports (row labels). */
    std::vector<Cycle> thresholds;
    /** Percentages, [threshold][rate * sizes + size]; the paper has
     *  4 rate groups in every table. */
    std::vector<double> values;
};

/** Everything a table bench needs. */
struct BenchOptions
{
    SimulationConfig base;
    std::vector<Cycle> thresholds;
    /** Load fractions of the saturation rate, one per column group.
     *  The last one is > 1 (the paper's "(saturated)" column). */
    std::vector<double> loadFractions = {0.714, 0.786, 0.857, 1.10};
    double satRate = 0.0;
    Cycle warmup = 3000;
    Cycle measure = 15000;
    /** Seeds averaged per cell (--seeds N). */
    unsigned replications = 1;
    /** Worker threads (--jobs N; 0 when absent = WORMNET_JOBS env,
     *  else hardware concurrency). */
    unsigned jobs = 0;
    bool csv = false;
    bool quiet = false;

    /** @name Sweep checkpointing (see ExperimentRunner). */
    /// @{
    std::string checkpoint; ///< --checkpoint FILE (empty disables)
    unsigned checkpointEvery = 8; ///< --checkpoint-every N cells
    std::string resume;     ///< --resume FILE (empty disables)
    /// @}
};

/**
 * Parse common bench options.
 * @param pattern the paper pattern this table uses (spec string)
 * @param default_sat calibrated saturation rate for the default
 *        64-node configuration (flits/cycle/node, "s" messages)
 */
BenchOptions parseBenchArgs(int argc, char **argv,
                            const std::string &pattern,
                            double default_sat);

/**
 * Run the table and print it, with the paper's value (when the paper
 * reports that grid point) in parentheses next to each measured cell.
 */
void runTableBench(const std::string &title, const BenchOptions &opts,
                   const std::string &detector_template,
                   const std::vector<std::string> &size_classes,
                   const PaperRef *paper = nullptr);

/**
 * The value of a --jobs option as parseJobs() reads it; fatal() when
 * parseJobs() rejects @p text.
 */
unsigned parseJobsOption(const std::string &text);

} // namespace bench
} // namespace wormnet

#endif // WORMNET_BENCH_BENCH_UTIL_HH
