#include "bench_util.hh"

#include <cstdio>
#include <sstream>

#include "common/log.hh"
#include "common/parallel.hh"
#include "common/table.hh"

namespace wormnet
{
namespace bench
{

BenchOptions
parseBenchArgs(int argc, char **argv, const std::string &pattern,
               double default_sat)
{
    const Config cli = Config::parseArgs(argc - 1, argv + 1);

    BenchOptions opts;
    opts.base = SimulationConfig::fromConfig(cli);
    opts.base.pattern = cli.getString("pattern", pattern);
    opts.csv = cli.getBool("csv", false);
    opts.quiet = cli.getBool("quiet", false);

    const bool quick = cli.getBool("quick", false);
    const bool full = cli.getBool("full", false);
    if (quick && full)
        fatal("--quick and --full are mutually exclusive");

    if (full) {
        // The paper's testbed: 8-ary 3-cube, full threshold sweep.
        if (!cli.has("radix"))
            opts.base.radix = 8;
        if (!cli.has("dims"))
            opts.base.dims = 3;
        opts.thresholds = {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
        opts.warmup = 4000;
        opts.measure = 20000;
    } else if (quick) {
        opts.thresholds = {2, 16, 128};
        opts.warmup = 1000;
        opts.measure = 4000;
    } else {
        opts.thresholds = {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
        opts.warmup = 2500;
        opts.measure = 10000;
    }
    opts.warmup = cli.getUint("warmup", opts.warmup);
    opts.measure = cli.getUint("measure", opts.measure);
    opts.replications =
        static_cast<unsigned>(cli.getUint("seeds", 1));
    if (opts.replications < 1)
        fatal("--seeds must be >= 1");
    if (cli.has("jobs"))
        opts.jobs = parseJobsOption(cli.getString("jobs"));
    opts.checkpoint = cli.getString("checkpoint", opts.checkpoint);
    opts.checkpointEvery = static_cast<unsigned>(
        cli.getUint("checkpoint-every", opts.checkpointEvery));
    opts.resume = cli.getString("resume", opts.resume);

    opts.satRate = cli.getDouble("sat", default_sat);
    // The baked-in saturation defaults were calibrated on the
    // default 8-ary 2-cube; any other shape needs re-calibration.
    const bool nondefault_shape =
        opts.base.radix != 8 || opts.base.dims != 2;
    if (cli.getBool("calibrate", false) || opts.satRate <= 0.0 ||
        (nondefault_shape && !cli.has("sat"))) {
        std::fprintf(stderr, "calibrating saturation rate for %s...\n",
                     opts.base.pattern.c_str());
        SimulationConfig probe = opts.base;
        probe.detector = "ndm:32";
        // Not = "s": GCC 12 raises a false -Wrestrict on a one-char
        // literal assigned to a std::string.
        probe.lengths = std::string("s");
        const ExperimentRunner runner({}, opts.jobs);
        opts.satRate = runner.findSaturationRate(
            probe, 0.02, opts.base.injPorts * 1.0);
        std::fprintf(stderr, "saturation ~= %.4f flits/cycle/node\n",
                     opts.satRate);
    }
    return opts;
}

unsigned
parseJobsOption(const std::string &text)
{
    const auto jobs = parseJobs(text);
    if (!jobs)
        fatal("--jobs wants a positive integer, got '", text, "'");
    return *jobs;
}

void
runTableBench(const std::string &title, const BenchOptions &opts,
              const std::string &detector_template,
              const std::vector<std::string> &size_classes,
              const PaperRef *paper)
{
    TableSpec spec;
    spec.title = title;
    spec.base = opts.base;
    spec.detectorTemplate = detector_template;
    spec.thresholds = opts.thresholds;
    spec.sizeClasses = size_classes;
    spec.warmup = opts.warmup;
    spec.measure = opts.measure;
    spec.replications = opts.replications;
    for (std::size_t i = 0; i < opts.loadFractions.size(); ++i) {
        const double rate = opts.loadFractions[i] * opts.satRate;
        spec.rates.push_back(rate);
        std::ostringstream os;
        os.precision(3);
        os << rate;
        if (i + 1 == opts.loadFractions.size())
            os << " (saturated)";
        spec.rateLabels.push_back(os.str());
    }

    ExperimentRunner::Progress progress;
    if (!opts.quiet) {
        progress = [](const std::string &) {
            std::fputc('.', stderr);
            std::fflush(stderr);
        };
    }
    ExperimentRunner runner(progress, opts.jobs);
    if (!opts.checkpoint.empty())
        runner.setCheckpoint(opts.checkpoint, opts.checkpointEvery);
    if (!opts.resume.empty())
        runner.setResume(opts.resume);
    const TableResult result = runner.runTable(spec);
    if (!opts.quiet)
        std::fputc('\n', stderr);

    // Timing goes to stderr so stdout (table/CSV) stays
    // bitwise-identical across job counts.
    if (!opts.quiet) {
        const unsigned jobs =
            opts.jobs != 0 ? opts.jobs : defaultJobs();
        std::fprintf(stderr,
                     "jobs: %u  wall: %.2fs  sim time: %.2fs  "
                     "speedup: %.2fx\n",
                     jobs, result.wallSeconds, result.busySeconds,
                     result.wallSeconds > 0.0
                         ? result.busySeconds / result.wallSeconds
                         : 0.0);
    }

    // Render: measured value, then the paper's value in parentheses
    // when the paper reports this (threshold, rate, size) point.
    const std::size_t sizes = size_classes.size();
    TextTable table(1 + spec.rates.size() * sizes);
    {
        std::vector<std::string> row(table.numColumns());
        row[0] = "";
        for (std::size_t r = 0; r < spec.rates.size(); ++r)
            row[1 + r * sizes] = spec.rateLabels[r];
        table.addRow(std::move(row));
    }
    {
        std::vector<std::string> row(table.numColumns());
        row[0] = "M. Size";
        for (std::size_t r = 0; r < spec.rates.size(); ++r) {
            for (std::size_t s = 0; s < sizes; ++s) {
                bool starred = false;
                for (const auto &cell : result.cells[r][s])
                    starred |= cell.sawTrueDeadlock;
                row[1 + r * sizes + s] =
                    size_classes[s] + (starred ? " (*)" : "");
            }
        }
        table.addRow(std::move(row));
    }
    table.addSeparator();

    for (std::size_t t = 0; t < spec.thresholds.size(); ++t) {
        std::vector<std::string> row(table.numColumns());
        {
            std::ostringstream os;
            os << "Th " << spec.thresholds[t];
            row[0] = os.str();
        }
        // Paper row for this threshold, if reported.
        std::ptrdiff_t paper_row = -1;
        if (paper) {
            for (std::size_t pt = 0; pt < paper->thresholds.size();
                 ++pt) {
                if (paper->thresholds[pt] == spec.thresholds[t]) {
                    paper_row = static_cast<std::ptrdiff_t>(pt);
                    break;
                }
            }
        }
        for (std::size_t r = 0; r < spec.rates.size(); ++r) {
            for (std::size_t s = 0; s < sizes; ++s) {
                const CellResult &cell = result.cells[r][s][t];
                std::string text =
                    formatPercentPaperStyle(cell.detectionRate);
                if (paper_row >= 0) {
                    const double ref =
                        paper->values[paper_row * spec.rates.size() *
                                          sizes +
                                      r * sizes + s];
                    if (ref >= 0.0)
                        text += " (" +
                                formatPercentPaperStyle(ref / 100.0) +
                                ")";
                }
                row[1 + r * sizes + s] = std::move(text);
            }
        }
        table.addRow(std::move(row));
    }

    std::printf("%s\n", title.c_str());
    std::printf("network: %u-ary %u-%s, %u VCs, routing %s, "
                "recovery %s, pattern %s\n",
                opts.base.radix, opts.base.dims,
                opts.base.topology.c_str(), opts.base.vcs,
                opts.base.routing.c_str(), opts.base.recovery.c_str(),
                opts.base.pattern.c_str());
    std::printf("cells: measured %% of messages detected as "
                "deadlocked%s\n\n",
                paper ? " (paper's value)" : "");
    std::printf("%s\n", table.render().c_str());
    if (opts.csv)
        std::printf("CSV:\n%s\n", table.renderCsv().c_str());
}

} // namespace bench
} // namespace wormnet
