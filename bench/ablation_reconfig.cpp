/**
 * @file
 * Chaos harness: online reconfiguration on a saturated torus, with
 * optional concurrent faults, cycle-granular checkpointing and a
 * deliberate mid-run crash — the scenario scripts/chaos.sh storms.
 *
 * The run applies a reconfiguration plan (default: a link outage, a
 * router maintenance drain and a live routing switch, all restored
 * before the drain phase) to a network near saturation, then reports
 * a JSON object on stdout: one entry per applied epoch (worms
 * killed / rerouted / redelivered / abandoned, settle latency,
 * detector health and the static analyzer's verdict on the
 * post-epoch configuration) plus a summary with the
 * runtime-vs-static agreement bit. Timing goes to stderr; stdout is
 * bitwise-deterministic, including across kill/resume, which is what
 * the chaos script diffs.
 *
 * Exit codes: 0 ok; 86 deliberate --crash-at exit; 2 when the drained
 * network still holds an unresolved deadlock or a reconfig transient
 * never settled (runtime/static disagreement).
 *
 * Options:
 *   --reconfig PLAN     reconfiguration plan (see --help of wormnet);
 *                       default: computed from the phase boundaries
 *   --faults SPEC       concurrent fault schedule (default none)
 *   --repair N          fault self-repair delay (default 300)
 *   --load r            offered load in flits/cycle/node (default 0.6,
 *                       near saturation)
 *   --radix/--dims      network shape (default 16-ary 2-cube)
 *   --warmup/--measure/--drain N
 *   --quick             8x8 torus, small cycle counts (CI smoke run)
 *   --seed N
 *   --checkpoint FILE   save a cycle-granular checkpoint periodically
 *   --checkpoint-every N  cycles between saves (default 1000)
 *   --resume FILE       restore and continue a crashed run
 *   --crash-at C        save to --checkpoint and _Exit(86) at cycle C
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "common/config.hh"
#include "core/simulation.hh"

int
main(int argc, char **argv)
{
    using namespace wormnet;

    unsigned radix = 16;
    unsigned dims = 2;
    Cycle warmup = 2000;
    Cycle measure = 10000;
    Cycle drain = 8000;
    Cycle repair = 300;
    double load = 0.6;
    std::uint64_t seed = 1;
    std::string reconfig;
    std::string faults;
    std::string checkpoint;
    Cycle checkpointEvery = 1000;
    std::string resume;
    Cycle crashAt = 0;

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
            radix = 8;
            warmup = 500;
            measure = 2500;
            drain = 4000;
        } else if (arg == "--reconfig") {
            reconfig = next();
        } else if (arg == "--faults") {
            faults = next();
        } else if (arg == "--repair") {
            repair = uintArg();
        } else if (arg == "--load") {
            load = parseDoubleOption(arg.substr(2), next());
        } else if (arg == "--radix") {
            radix = static_cast<unsigned>(
                parseUintOption("radix", next(), UINT_MAX));
        } else if (arg == "--dims") {
            dims = static_cast<unsigned>(
                parseUintOption("dims", next(), UINT_MAX));
        } else if (arg == "--warmup") {
            warmup = uintArg();
        } else if (arg == "--measure") {
            measure = uintArg();
        } else if (arg == "--drain") {
            drain = uintArg();
        } else if (arg == "--seed") {
            seed = uintArg();
        } else if (arg == "--checkpoint") {
            checkpoint = next();
        } else if (arg == "--checkpoint-every") {
            checkpointEvery = uintArg();
        } else if (arg == "--resume") {
            resume = next();
        } else if (arg == "--crash-at") {
            crashAt = uintArg();
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 1;
        }
    }

    if (reconfig.empty()) {
        // Default storm, scaled to the phase boundaries: lose a hot
        // link, drain a router for maintenance, switch the routing
        // function live, then restore everything well before the
        // drain phase so the run can settle.
        char plan[256];
        const unsigned long long m0 = warmup + measure / 6;
        std::snprintf(
            plan, sizeof(plan),
            "link-:0>1@%llu,router-:3@%llu,routing:duato@%llu,"
            "link+:0>1@%llu,router+:3@%llu,routing:tfa@%llu",
            m0, m0 + measure / 6, m0 + 2 * (measure / 6),
            m0 + 3 * (measure / 6), m0 + 4 * (measure / 6),
            m0 + 5 * (measure / 6));
        reconfig = plan;
    }

    SimulationConfig cfg;
    cfg.topology = "torus";
    cfg.radix = radix;
    cfg.dims = dims;
    cfg.flitRate = load;
    cfg.detector = "ndm:32";
    cfg.recovery = "progressive";
    cfg.oraclePeriod = 128;
    cfg.seed = seed;
    cfg.reconfig = reconfig;
    cfg.faults = faults;
    if (!faults.empty())
        cfg.faultRepair = repair;

    Simulation sim(cfg);
    Network &net = sim.net();
    if (!resume.empty())
        sim.loadCheckpoint(resume);
    const Cycle resumedAt = net.now();

    const std::clock_t t0 = std::clock();
    const Cycle active = warmup + measure;
    while (net.now() < active) {
        const Cycle now = net.now();
        // Phase transitions first (idempotent), so a checkpoint taken
        // at this cycle already reflects them and resume never
        // replays one.
        if (now >= warmup && !net.measuring())
            net.startMeasurement();
        if (!checkpoint.empty() && checkpointEvery > 0 && now > 0 &&
            now % checkpointEvery == 0 && now != resumedAt)
            sim.saveCheckpoint(checkpoint);
        if (crashAt > 0 && now == crashAt && now > resumedAt) {
            if (checkpoint.empty()) {
                std::fprintf(stderr,
                             "--crash-at needs --checkpoint\n");
                return 1;
            }
            sim.saveCheckpoint(checkpoint);
            std::fflush(nullptr);
            std::_Exit(86);
        }
        net.step();
    }

    // Drain: stop offering load; retries, recoveries and the settle
    // bookkeeping of the last epochs all complete here.
    net.setFlitRate(0.0);
    Cycle drained = 0;
    while ((net.inFlight() > 0 || net.totalQueued() > 0) &&
           drained < drain) {
        net.run(100);
        drained += 100;
    }
    const double wall =
        double(std::clock() - t0) / double(CLOCKS_PER_SEC);

    const ReconfigManager *mgr = sim.reconfigManager();
    const SimStats &s = net.stats();
    const bool settled = mgr != nullptr && mgr->settled();
    const bool residualDeadlock = !net.deadlockedNow().empty();
    // The acceptance bit: every epoch's transient either stayed
    // deadlock-free or was recovered from — nothing is still
    // deadlocked or in limbo once the network drained.
    const bool agreement = settled && !residualDeadlock;

    std::printf("{\n");
    std::printf("  \"config\": {\"radix\": %u, \"dims\": %u, "
                "\"load\": %g, \"seed\": %llu,\n"
                "    \"reconfig\": \"%s\", \"faults\": \"%s\"},\n",
                radix, dims, load, (unsigned long long)seed,
                reconfig.c_str(), faults.c_str());
    std::printf("  \"epochs\": [\n");
    const auto &epochs =
        mgr ? mgr->epochs() : std::vector<EpochRecord>{};
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        const EpochRecord &e = epochs[i];
        const bool hasSettle = e.settled();
        std::printf(
            "    {\"cycle\": %llu, \"edits\": %u, "
            "\"routing_after\": \"%s\",\n"
            "     \"static_verdict\": \"%s\",\n"
            "     \"killed\": %llu, \"rerouted\": %llu, "
            "\"redelivered\": %llu, \"abandoned\": %llu,\n"
            "     \"settle_cycle\": %lld, \"settle_latency\": %lld,\n"
            "     \"detections_at_apply\": %llu, "
            "\"false_at_apply\": %llu, "
            "\"oracle_deadlocked_at_apply\": %llu}%s\n",
            (unsigned long long)e.cycle, e.edits,
            e.routingAfter.c_str(), e.staticVerdict.c_str(),
            (unsigned long long)e.killed,
            (unsigned long long)e.rerouted,
            (unsigned long long)e.redelivered,
            (unsigned long long)e.abandonedOfKilled,
            hasSettle ? (long long)e.settleCycle : -1LL,
            hasSettle ? (long long)(e.settleCycle - e.cycle) : -1LL,
            (unsigned long long)e.detectionsAtApply,
            (unsigned long long)e.falseAtApply,
            (unsigned long long)e.oracleDeadlockedAtApply,
            i + 1 < epochs.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf(
        "  \"summary\": {\"generated\": %llu, \"delivered\": %llu, "
        "\"abandoned\": %llu,\n"
        "    \"fault_kills\": %llu, \"fault_reroutes\": %llu, "
        "\"detections\": %llu,\n"
        "    \"false_positives\": %llu, \"plan_exhausted\": %s, "
        "\"settled\": %s,\n"
        "    \"residual_deadlock\": %s, "
        "\"runtime_static_agreement\": %s,\n"
        "    \"in_flight_end\": %zu, \"queued_end\": %zu}\n",
        (unsigned long long)s.generated,
        (unsigned long long)s.delivered,
        (unsigned long long)s.abandoned,
        (unsigned long long)s.faultKills,
        (unsigned long long)s.faultReroutes,
        (unsigned long long)s.detections,
        (unsigned long long)s.wFalseDetections,
        mgr && mgr->planExhausted() ? "true" : "false",
        settled ? "true" : "false",
        residualDeadlock ? "true" : "false",
        agreement ? "true" : "false", net.inFlight(),
        net.totalQueued());
    std::printf("}\n");

    std::fprintf(stderr, "wall: %.2fs  cycles: %llu\n", wall,
                 (unsigned long long)net.now());
    return agreement ? 0 : 2;
}
