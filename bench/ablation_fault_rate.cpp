/**
 * @file
 * Ablation: stochastic link-fault rate. Sweeps the per-link per-cycle
 * failure probability (with self-repair, i.e. transient faults) on
 * the default 8x8 torus under moderate uniform load and reports, as a
 * JSON array on stdout, the fraction of non-abandoned messages that
 * were delivered and the oracle-labelled false-positive rate of the
 * NDM — demonstrating that fault-aware detection does not degenerate
 * into a false-deadlock storm when links die, and that bounded-retry
 * recovery keeps delivering what can still be delivered.
 *
 * Options:
 *   --rates p1,p2,...   fault rates to sweep (default 0,1e-6,1e-5,1e-4)
 *   --repair N          self-repair delay in cycles (default 200)
 *   --load r            offered load in flits/cycle/node (default 0.2)
 *   --warmup/--measure/--drain N
 *   --quick             small cycle counts (CI smoke run)
 *   --jobs N            worker threads (default: WORMNET_JOBS env,
 *                       else hardware concurrency); the JSON on stdout
 *                       is identical for every value
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
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
    Cycle drain = 8000;
    Cycle repair = 200;
    double load = 0.2;
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    std::vector<double> rates = {0.0, 1e-6, 1e-5, 1e-4};

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
            warmup = 500;
            measure = 2000;
            drain = 3000;
        } else if (arg == "--rates") {
            rates.clear();
            std::stringstream list(next());
            for (std::string tok; std::getline(list, tok, ',');)
                rates.push_back(parseDoubleOption("rates", tok));
        } else if (arg == "--repair") {
            repair = uintArg();
        } else if (arg == "--load") {
            load = parseDoubleOption(arg.substr(2), next());
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

    // The rate sweep points are independent simulations: run them
    // concurrently into per-rate slots and emit the JSON array in
    // sweep order afterwards, so stdout is identical for every job
    // count.
    std::vector<std::string> entries(rates.size());
    parallelFor(rates.size(), jobs, [&](std::size_t i) {
        const double rate = rates[i];

        SimulationConfig cfg;
        cfg.topology = "torus";
        cfg.radix = 8;
        cfg.dims = 2;
        cfg.flitRate = load;
        cfg.detector = "ndm:32";
        cfg.recovery = "regressive:16";
        cfg.oraclePeriod = 128;
        cfg.seed = seed;
        if (rate > 0.0) {
            char spec[48];
            std::snprintf(spec, sizeof(spec), "rate:%g", rate);
            cfg.faults = spec;
            cfg.faultRepair = repair;
        }

        Simulation sim(cfg);
        Network &net = sim.net();
        net.run(warmup);
        net.startMeasurement();
        net.run(measure);

        // Drain: stop offering load and let in-flight and queued
        // messages finish (transient faults keep firing and healing
        // meanwhile, so retries eventually get through).
        net.setFlitRate(0.0);
        Cycle drained = 0;
        while ((net.inFlight() > 0 || net.totalQueued() > 0) &&
               drained < drain) {
            net.run(100);
            drained += 100;
        }

        const SimStats &s = net.stats();
        const std::uint64_t nonAbandoned =
            s.generated > s.abandoned ? s.generated - s.abandoned : 0;
        const double deliveredFraction =
            nonAbandoned == 0
                ? 1.0
                : double(s.delivered) / double(nonAbandoned);
        const double fpRate =
            s.wDelivered == 0 ? 0.0
                              : double(s.wFalseDetections) /
                                    double(s.wDelivered);

        char entry[1024];
        std::snprintf(
            entry, sizeof(entry),
            "  {\"fault_rate\": %g, \"repair_delay\": %llu,\n"
            "   \"generated\": %llu, \"delivered\": %llu, "
            "\"abandoned\": %llu,\n"
            "   \"faults_injected\": %llu, \"faults_repaired\": "
            "%llu,\n"
            "   \"fault_kills\": %llu, \"fault_reroutes\": %llu,\n"
            "   \"delivered_fraction\": %.6f, "
            "\"false_positives\": %llu,\n"
            "   \"false_positive_rate\": %.6f, "
            "\"detections\": %llu,\n"
            "   \"in_flight_end\": %zu, \"queued_end\": %zu}%s\n",
            rate, (unsigned long long)repair,
            (unsigned long long)s.generated,
            (unsigned long long)s.delivered,
            (unsigned long long)s.abandoned,
            (unsigned long long)s.faultsInjected,
            (unsigned long long)s.faultsRepaired,
            (unsigned long long)s.faultKills,
            (unsigned long long)s.faultReroutes, deliveredFraction,
            (unsigned long long)s.wFalseDetections, fpRate,
            (unsigned long long)s.detections, net.inFlight(),
            net.totalQueued(), i + 1 < rates.size() ? "," : "");
        entries[i] = entry;
    });

    std::printf("[\n");
    for (const std::string &entry : entries)
        std::fputs(entry.c_str(), stdout);
    std::printf("]\n");
    return 0;
}
