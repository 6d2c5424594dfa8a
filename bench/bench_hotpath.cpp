/**
 * @file
 * Hot-path microbenchmark for the simulation core.
 *
 * Measures raw simulator throughput (cycles/sec) and transport work
 * (flit-hops/sec) on a 16x16 torus at three operating points:
 *
 *   idle      no traffic at all — pure per-cycle bookkeeping cost
 *   low_load  0.1x the saturation flit rate — the regime the paper's
 *             Tables 1-2 spend most of their cycles in
 *   saturated 1.1x the saturation flit rate — worst case for the
 *             activity-driven core (everything is active)
 *
 * plus two saturated scaling points: a 1024-node 32x32 torus and the
 * paper's 512-node 8-ary 3-cube. Every row also reports the process
 * peak RSS so message-store growth regressions show up here.
 *
 * Output is a small JSON document. Modes:
 *
 *   bench_hotpath                          print JSON to stdout
 *   bench_hotpath --out FILE               also write FILE
 *   bench_hotpath --baseline FILE          compare cycles/sec per
 *       [--max-regress 0.30]               scenario against FILE and
 *                                          exit nonzero on a >30%
 *                                          regression
 *   bench_hotpath --repeat N               passes per scenario; the
 *                                          median-throughput pass is
 *                                          reported (default 3)
 *
 * The committed baseline (bench/BENCH_hotpath.json) is what the CI
 * perf-smoke step compares against; regenerate it with --out after an
 * intentional performance change on the reference machine.
 */

// wormnet-lint: allow-file(banned-api): a benchmark measures wall
// time by design; its timings are reporting, not simulation state.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hh"

namespace
{

using namespace wormnet;
using Clock = std::chrono::steady_clock;

struct Scenario
{
    std::string name;
    unsigned radix;
    unsigned dims;
    double flitRate;
};

struct Result
{
    std::string name;
    std::uint64_t cycles = 0;
    double seconds = 0.0;
    std::uint64_t flitHops = 0;
    /** Process peak RSS after this scenario, MB (monotone across
     *  scenarios — growth between rows is what matters). */
    std::uint64_t peakRssMb = 0;

    double cyclesPerSec() const
    {
        return seconds > 0.0 ? double(cycles) / seconds : 0.0;
    }
    double hopsPerSec() const
    {
        return seconds > 0.0 ? double(flitHops) / seconds : 0.0;
    }
};

std::uint64_t
totalFlitHops(const Network &net)
{
    std::uint64_t hops = 0;
    for (NodeId node = 0; node < net.numNodes(); ++node) {
        for (PortId q = 0; q < net.routerParams().numOutPorts(); ++q)
            hops += net.channelTxCount(node, q);
    }
    return hops;
}

Result
runScenarioOnce(const Scenario &sc, std::uint64_t seed,
                double min_seconds)
{
    SimulationConfig cfg;
    cfg.radix = sc.radix;
    cfg.dims = sc.dims;
    cfg.flitRate = sc.flitRate;
    cfg.detector = "ndm:32";
    cfg.recovery = "progressive";
    cfg.oraclePeriod = 0; // isolate the per-cycle core
    cfg.seed = seed;

    Simulation sim(cfg);
    sim.net().run(2000); // settle into steady state
    sim.net().startMeasurement();

    Result r;
    r.name = sc.name;
    const Cycle chunk = 2000;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
        sim.net().run(chunk);
        r.cycles += chunk;
        elapsed = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    r.seconds = elapsed;
    r.flitHops = totalFlitHops(sim.net());
    sim.net().stats().samplePeakRss();
    r.peakRssMb = sim.net().stats().peakRssBytes >> 20;
    return r;
}

/**
 * Repeat the scenario and keep the median-throughput pass. Single
 * passes on saturated scenarios vary up to ~1.9x on noisy shared
 * machines (see results/hotpath_pr8.md); the median of three is what
 * the perf gate compares, which is what makes its per-scenario
 * tolerances meaningful.
 */
Result
runScenario(const Scenario &sc, std::uint64_t seed,
            double min_seconds, unsigned repeat)
{
    std::vector<Result> passes;
    for (unsigned i = 0; i < repeat; ++i)
        passes.push_back(runScenarioOnce(sc, seed, min_seconds));
    std::sort(passes.begin(), passes.end(),
              [](const Result &a, const Result &b) {
                  return a.cyclesPerSec() < b.cyclesPerSec();
              });
    return passes[passes.size() / 2];
}

std::string
toJson(const std::vector<Result> &results)
{
    std::ostringstream os;
    os << "{\n  \"benchmark\": \"bench_hotpath\",\n"
       << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        os << "    {\"name\": \"" << r.name << "\", \"cycles\": "
           << r.cycles << ", \"seconds\": " << r.seconds
           << ", \"cycles_per_sec\": " << std::uint64_t(r.cyclesPerSec())
           << ", \"flit_hops\": " << r.flitHops
           << ", \"flit_hops_per_sec\": "
           << std::uint64_t(r.hopsPerSec())
           << ", \"peak_rss_mb\": " << r.peakRssMb << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

/** Pull "name": <scenario> / "cycles_per_sec": <value> pairs out of a
 *  baseline file written by toJson (not a general JSON parser). */
bool
baselineCyclesPerSec(const std::string &content,
                     const std::string &scenario, double &out)
{
    const std::string tag = "\"name\": \"" + scenario + "\"";
    auto pos = content.find(tag);
    if (pos == std::string::npos)
        return false;
    const std::string key = "\"cycles_per_sec\": ";
    pos = content.find(key, pos);
    if (pos == std::string::npos)
        return false;
    out = std::strtod(content.c_str() + pos + key.size(), nullptr);
    return out > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned radix = 16;
    std::uint64_t seed = 12345;
    double min_seconds = 0.5;
    double max_regress = 0.30;
    double sat_rate = 0.45; // calibrated uniform sat on a 16x16 torus
    unsigned repeat = 3;
    std::string out_file;
    std::string baseline_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--out")
            out_file = next();
        else if (arg == "--baseline")
            baseline_file = next();
        else if (arg == "--max-regress")
            max_regress = std::stod(next());
        else if (arg == "--radix")
            radix = unsigned(std::stoul(next()));
        else if (arg == "--seed")
            seed = std::stoull(next());
        else if (arg == "--min-seconds")
            min_seconds = std::stod(next());
        else if (arg == "--sat")
            sat_rate = std::stod(next());
        else if (arg == "--repeat")
            repeat = std::max(1u, unsigned(std::stoul(next())));
        else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 2;
        }
    }

    // Saturation scales roughly with dims/radix on a uniform torus;
    // 0.45 is the measured 16x16 value, the larger topologies just
    // need to be driven clearly past their own saturation point.
    const double sat_32 = sat_rate * 16.0 / 32.0;
    const std::vector<Scenario> scenarios = {
        {"idle_16x16", radix, 2, 0.0},
        {"low_load_16x16", radix, 2, 0.1 * sat_rate},
        {"saturated_16x16", radix, 2, 1.1 * sat_rate},
        // Scaling points: a 1024-node 2D torus and the paper's
        // 512-node 8-ary 3-cube, both saturated.
        {"saturated_32x32", 32, 2, 1.1 * sat_32},
        {"saturated_8ary3cube", 8, 3, 0.9},
    };

    std::vector<Result> results;
    for (const Scenario &sc : scenarios)
        results.push_back(runScenario(sc, seed, min_seconds, repeat));

    const std::string json = toJson(results);
    std::fputs(json.c_str(), stdout);
    if (!out_file.empty()) {
        std::ofstream out(out_file, std::ios::binary);
        out << json;
    }

    if (baseline_file.empty())
        return 0;

    std::ifstream in(baseline_file, std::ios::binary);
    if (!in.good()) {
        std::fprintf(stderr, "cannot read baseline %s\n",
                     baseline_file.c_str());
        return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string base = ss.str();

    int failures = 0;
    for (const Result &r : results) {
        double ref = 0.0;
        if (!baselineCyclesPerSec(base, r.name, ref)) {
            std::fprintf(stderr,
                         "baseline has no scenario '%s'; skipping\n",
                         r.name.c_str());
            continue;
        }
        const double ratio = r.cyclesPerSec() / ref;
        std::fprintf(stderr, "%-18s %12.0f cyc/s vs baseline %12.0f"
                             "  (%.2fx)\n",
                     r.name.c_str(), r.cyclesPerSec(), ref, ratio);
        if (ratio < 1.0 - max_regress) {
            std::fprintf(stderr,
                         "REGRESSION: %s is %.0f%% below baseline "
                         "(limit %.0f%%)\n",
                         r.name.c_str(), (1.0 - ratio) * 100.0,
                         max_regress * 100.0);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}
