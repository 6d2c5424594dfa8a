/**
 * @file
 * Ablation: detection-mechanism comparison. Runs NDM, PDM and the
 * exact distributed wait-for-graph detector (DWFG) at a common
 * trigger threshold across light, saturated, hot-spot and faulty
 * scenarios and reports, as a JSON array on stdout, the
 * oracle-labelled true/false detection counts, the mean detection
 * latency and the modeled control-plane overhead (flits, flit-hops,
 * bytes) of each mechanism — the trade-off the DWFG embodies: zero
 * false positives by construction, paid for in control bandwidth and
 * detection latency, versus the heuristic mechanisms' free but
 * fallible verdicts.
 *
 * Options:
 *   --threshold N       common trigger threshold (default 32)
 *   --warmup/--measure/--drain N
 *   --quick             4x4 network and small cycle counts (CI smoke
 *                       and the golden snapshot)
 *   --seed N
 *   --jobs N            worker threads (default: WORMNET_JOBS env,
 *                       else hardware concurrency); the JSON on stdout
 *                       is identical for every value
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/config.hh"
#include "common/parallel.hh"
#include "core/simulation.hh"

int
main(int argc, char **argv)
{
    using namespace wormnet;

    Cycle warmup = 2000;
    Cycle measure = 10000;
    Cycle drain = 6000;
    Cycle threshold = 32;
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    unsigned radix = 8;
    bool quick = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        // Checked numeric values: fatal() on anything malformed.
        const auto uintArg = [&] {
            return parseUintOption(arg.substr(2), next());
        };
        if (arg == "--quick") {
            quick = true;
            radix = 4;
            warmup = 500;
            measure = 2500;
            drain = 3000;
        } else if (arg == "--threshold") {
            threshold = uintArg();
        } else if (arg == "--warmup") {
            warmup = uintArg();
        } else if (arg == "--measure") {
            measure = uintArg();
        } else if (arg == "--drain") {
            drain = uintArg();
        } else if (arg == "--seed") {
            seed = uintArg();
        } else if (arg == "--jobs") {
            jobs = bench::parseJobsOption(next());
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 1;
        }
    }

    struct Scenario
    {
        const char *name;
        const char *pattern;
        const char *lengths;
        double load; ///< flits/cycle/node
        unsigned vcs;
        bool injectionLimit;
        const char *faults; ///< empty = none
        Cycle faultRepair;
    };
    // The default router (3 VCs + injection limiting) almost never
    // truly deadlocks, so those scenarios measure pure false-positive
    // behaviour; the single-VC unlimited-injection scenarios are
    // genuinely deadlock-prone and measure detection of the real
    // thing (plus fault interaction for the flush path).
    const std::vector<Scenario> scenarios = {
        {"uniform-light", "uniform", "s", 0.15, 3, true, "", 0},
        {"uniform-saturated", "uniform", "sl", 0.66, 3, true, "", 0},
        {"hotspot", "hotspot:0.05", "s", 0.30, 3, true, "", 0},
        {"vc1-congested", "uniform", "sl", 0.50, 1, false, "", 0},
        {"vc1-deadlock", "uniform", "sl", 0.80, 1, false, "", 0},
        {"faulty", "uniform", "s", 0.15, 3, true, "rate:5e-4", 200},
        {"faulty-vc1", "uniform", "sl", 0.50, 1, false, "rate:5e-4",
         200},
    };
    const std::vector<std::string> detectors = {"ndm", "pdm", "dwfg"};

    const std::size_t cells = scenarios.size() * detectors.size();
    std::vector<std::string> entries(cells);
    parallelFor(cells, jobs, [&](std::size_t i) {
        const Scenario &sc = scenarios[i / detectors.size()];
        const std::string &det = detectors[i % detectors.size()];

        SimulationConfig cfg;
        cfg.topology = "torus";
        cfg.radix = radix;
        cfg.dims = 2;
        cfg.pattern = sc.pattern;
        cfg.lengths = sc.lengths;
        cfg.flitRate = sc.load;
        cfg.vcs = sc.vcs;
        cfg.injectionLimit = sc.injectionLimit;
        cfg.detector = det + ":" + std::to_string(threshold);
        cfg.recovery = "regressive:16";
        cfg.oraclePeriod = 64;
        cfg.seed = seed;
        if (sc.faults[0] != '\0') {
            cfg.faults = sc.faults;
            cfg.faultRepair = sc.faultRepair;
        }

        Simulation sim(cfg);
        Network &net = sim.net();
        net.run(warmup);
        net.startMeasurement();
        net.run(measure);
        const SimSummary sum = sim.summary();

        // Drain so the run ends with empty books (catches leaks and
        // phantom deadlocks in every mechanism, not just the fast
        // ones).
        net.setFlitRate(0.0);
        Cycle drained = 0;
        while ((net.inFlight() > 0 || net.totalQueued() > 0) &&
               drained < drain) {
            net.run(100);
            drained += 100;
        }

        const double fpRate =
            sum.delivered == 0
                ? 0.0
                : double(sum.falseDetections) / double(sum.delivered);
        const double ctrlFlitsPerKcycleNode =
            sum.measuredCycles == 0
                ? 0.0
                : 1000.0 * double(sum.ctrlFlits) /
                      (double(sum.measuredCycles) * net.numNodes());

        char entry[1024];
        std::snprintf(
            entry, sizeof(entry),
            "  {\"scenario\": \"%s\", \"detector\": \"%s\", "
            "\"threshold\": %llu,\n"
            "   \"delivered\": %llu, \"detected_messages\": %llu,\n"
            "   \"true_detections\": %llu, "
            "\"false_detections\": %llu,\n"
            "   \"false_positive_rate\": %.6f, "
            "\"true_deadlocked\": %llu,\n"
            "   \"avg_detection_latency\": %.3f,\n"
            "   \"ctrl_flits\": %llu, \"ctrl_flit_hops\": %llu, "
            "\"ctrl_bytes\": %llu,\n"
            "   \"ctrl_flits_per_kcycle_node\": %.4f,\n"
            "   \"in_flight_end\": %zu, \"queued_end\": %zu}%s\n",
            sc.name, det.c_str(), (unsigned long long)threshold,
            (unsigned long long)sum.delivered,
            (unsigned long long)sum.detectedMessages,
            (unsigned long long)sum.trueDetections,
            (unsigned long long)sum.falseDetections, fpRate,
            (unsigned long long)sum.trueDeadlockedMessages,
            sum.avgDetectionLatency,
            (unsigned long long)sum.ctrlFlits,
            (unsigned long long)sum.ctrlFlitHops,
            (unsigned long long)sum.ctrlBytes, ctrlFlitsPerKcycleNode,
            net.inFlight(), net.totalQueued(),
            i + 1 < cells ? "," : "");
        entries[i] = entry;
    });

    (void)quick;
    std::printf("[\n");
    for (const std::string &entry : entries)
        std::fputs(entry.c_str(), stdout);
    std::printf("]\n");
    return 0;
}
