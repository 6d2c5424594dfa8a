/**
 * @file
 * One process of the fixed-work wormnet benchmark (see README.md).
 *
 * Runs one workload once, in one of four modes, and prints a single
 * JSON line on stdout for run.py to aggregate:
 *
 *   setup  construct every simulation the workload runs, in rounds,
 *          and report the median round
 *   time   untraced: the workload itself, with a clock read between
 *          segments (construction, warm-up and window chunks, or table
 *          cells)
 *   check  table2_quick only: replay every table cell through the
 *          Simulation API (no timing) for the flit-hop count and the
 *          message-conservation checks runTable cannot expose
 *   trace  as time, plus per-construction timings, phase timers and a
 *          ground-truth oracle call between window chunks
 *
 * Every budget is in simulated cycles, never in host seconds, so each
 * host-time number measures the same simulated work.
 *
 * Usage: wormnet-perfbench --workload <name> --seed <n>
 *            [--mode setup|time|check|trace] [--scale <n>] [--perturb]
 *   --scale n   divide every cycle budget by n (smoke tests only)
 *   --perturb   corrupt the first operation's counters (tests the
 *               mismatch accounting in run.py)
 */

// wormnet-lint: allow-file(banned-api): a benchmark measures wall
// time by design; its timings are reporting, not simulation state.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/simulation.hh"
#include "sim/oracle.hh"

#ifndef WORMNET_PERFBENCH_BUILD_TYPE
#define WORMNET_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace wormnet;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Constructions a set-up process times, at least: whole rounds of the
 * workload's simulations, so a single-simulation workload gets this
 * many rounds and table2_quick (48 per round) a few. Set-up time is
 * the median round, so the first constructions of a process, which
 * page in fresh heap, do not count.
 */
constexpr unsigned kSetupConstructions = 240;

/** Window chunk of a table cell (divides the 4000-cycle window). */
constexpr Cycle kTableChunk = 125;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::string mode = "time";
    Cycle scale = 1;
    bool perturb = false;
};

/** A single-simulation workload: one config, fixed cycle budgets. */
struct SingleWorkload
{
    SimulationConfig cfg;
    Cycle warmup = 0;
    Cycle measure = 0;
    Cycle chunk = 0;
};

SimulationConfig
paperRouter(std::uint64_t seed)
{
    // The paper's router and policies: 3 VCs, 4-flit buffers, four
    // injection/ejection ports, true fully adaptive routing, NDM with
    // threshold 32, progressive recovery, uniform short messages.
    SimulationConfig cfg;
    cfg.vcs = 3;
    cfg.bufDepth = 4;
    cfg.injPorts = 4;
    cfg.ejePorts = 4;
    cfg.routing = "tfa";
    cfg.detector = "ndm:32";
    cfg.recovery = "progressive";
    cfg.pattern = "uniform";
    cfg.lengths = "s";
    cfg.seed = seed;
    cfg.simJobs = 1; // WORMNET_SIM_JOBS must not change the threads
    return cfg;
}

bool
singleWorkload(const Options &opt, SingleWorkload &w)
{
    w.cfg = paperRouter(opt.seed);
    w.cfg.dims = 3;
    if (opt.workload == "paper_sat_512") {
        // 8-ary 3-cube past saturation (0.9 ~ 1.2x the measured
        // 0.74), oracle every 128 cycles as in the tables.
        w.cfg.radix = 8;
        w.cfg.flitRate = 0.9;
        w.cfg.oraclePeriod = 128;
        w.warmup = 1000;
        w.measure = 6400;
        w.chunk = 128;
    } else if (opt.workload == "sparse_4096") {
        // 16-ary 3-cube at 0.1x its saturation rate, oracle off. The
        // saturation, 0.3854, is ExperimentRunner::findSaturationRate's
        // as `table2_ndm_uniform --calibrate --radix 16 --dims 3`
        // measures it (README.md).
        w.cfg.radix = 16;
        w.cfg.flitRate = 0.0385;
        w.cfg.oraclePeriod = 0;
        w.warmup = 1000;
        w.measure = 4000;
        w.chunk = 50;
    } else {
        return false;
    }
    w.warmup /= opt.scale;
    w.measure /= opt.scale;
    return true;
}

/** The exact `table2_ndm_uniform --quick` spec, at one job. */
TableSpec
table2QuickSpec(const Options &opt)
{
    std::vector<std::string> args = {"table2_ndm_uniform", "--quick",
                                     "--quiet", "--jobs", "1",
                                     "--sim-jobs", "1", "--seed",
                                     std::to_string(opt.seed)};
    if (opt.scale > 1) {
        args.insert(args.end(),
                    {"--warmup", std::to_string(1000 / opt.scale),
                     "--measure", std::to_string(4000 / opt.scale)});
    }
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    const bench::BenchOptions bo = bench::parseBenchArgs(
        static_cast<int>(argv.size()), argv.data(), "uniform", 0.74);

    // Mirrors bench::runTableBench's spec construction.
    TableSpec spec;
    spec.title = "Table 2: new detection mechanism (NDM), uniform traffic";
    spec.base = bo.base;
    spec.detectorTemplate = "ndm:%T";
    spec.thresholds = bo.thresholds;
    spec.sizeClasses = {"s", "l", "L", "sl"};
    spec.warmup = bo.warmup;
    spec.measure = bo.measure;
    spec.replications = bo.replications;
    for (std::size_t i = 0; i < bo.loadFractions.size(); ++i) {
        const double rate = bo.loadFractions[i] * bo.satRate;
        spec.rates.push_back(rate);
        std::ostringstream os;
        os.precision(3);
        os << rate;
        if (i + 1 == bo.loadFractions.size())
            os << " (saturated)";
        spec.rateLabels.push_back(os.str());
    }
    return spec;
}

/** Every cell's config, in runTable's cell order and seeding. */
std::vector<SimulationConfig>
tableCellConfigs(const TableSpec &spec)
{
    std::vector<SimulationConfig> cells;
    for (std::size_t r = 0; r < spec.rates.size(); ++r) {
        for (const std::string &size : spec.sizeClasses) {
            for (const Cycle th : spec.thresholds) {
                SimulationConfig cfg = spec.base;
                cfg.flitRate = spec.rates[r];
                cfg.lengths = size;
                std::string det = spec.detectorTemplate;
                det.replace(det.find("%T"), 2, std::to_string(th));
                cfg.detector = det;
                cfg.seed = deriveSeed(spec.base.seed, cells.size(), 0);
                cells.push_back(cfg);
            }
        }
    }
    return cells;
}

/** Exact text of a double (hex float), for bitwise comparison. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** The fields runTable reports for a cell, rendered exactly. */
std::string
cellFingerprint(const CellResult &c)
{
    std::ostringstream os;
    os << "delivered=" << c.delivered
       << ";detected=" << c.detectedMessages
       << ";star=" << c.sawTrueDeadlock
       << ";rate=" << hexDouble(c.detectionRate)
       << ";accepted=" << hexDouble(c.acceptedFlitRate)
       << ";generated=" << hexDouble(c.generatedFlitRate)
       << ";latency=" << hexDouble(c.avgLatency);
    return os.str();
}

/** CellResult exactly as ExperimentRunner::runCell builds it. */
CellResult
cellFromSummary(const SimSummary &s)
{
    CellResult cell;
    cell.detectionRate = s.detectionRate;
    cell.sawTrueDeadlock =
        s.trueDetections > 0 || s.trueDeadlockedMessages > 0;
    cell.delivered = s.delivered;
    cell.detectedMessages = s.detectedMessages;
    cell.acceptedFlitRate = s.acceptedFlitRate;
    cell.generatedFlitRate = s.generatedFlitRate;
    cell.avgLatency = s.avgLatency;
    return cell;
}

/** Every simulated counter of a finished run, rendered exactly. */
std::string
fullFingerprint(const Network &net)
{
    const SimStats &s = net.stats();
    std::ostringstream os;
    os << "now=" << net.now() << ";generated=" << s.generated
       << ";injected=" << s.injected << ";delivered=" << s.delivered
       << ";flits_delivered=" << s.flitsDelivered
       << ";detections=" << s.detections << ";kills=" << s.kills
       << ";recovered=" << s.recoveredDeliveries
       << ";abandoned=" << s.abandoned
       << ";w_generated=" << s.wGenerated
       << ";w_generated_flits=" << s.wGeneratedFlits
       << ";w_injected=" << s.wInjected
       << ";w_delivered=" << s.wDelivered
       << ";w_flits_delivered=" << s.wFlitsDelivered
       << ";w_detection_events=" << s.wDetectionEvents
       << ";w_detected=" << s.wDetectedMessages
       << ";w_true=" << s.wTrueDetections
       << ";w_false=" << s.wFalseDetections
       << ";w_kills=" << s.wKills
       << ";w_recovered=" << s.wRecoveredDeliveries
       << ";latency_n=" << s.latency.count()
       << ";latency_mean=" << hexDouble(s.latency.mean())
       << ";true_deadlocked=" << s.trueDeadlockedMessages
       << ";max_persistence=" << s.maxDeadlockPersistence
       << ";flit_hops=" << net.flitHops()
       << ";messages=" << net.messages().size()
       << ";path_slab_links=" << net.messages().pathSlabLinks()
       << ";queued=" << net.totalQueued()
       << ";in_flight=" << net.inFlight();
    return os.str();
}

/**
 * Message conservation: the per-status counts in the message store
 * must agree with SimStats and with the network's queue and in-flight
 * counters. Returns an empty string when they do.
 */
std::string
conservationError(const Network &net)
{
    std::uint64_t count[6] = {};
    const MessageStore &store = net.messages();
    for (MsgId id = 0; id < store.size(); ++id)
        ++count[static_cast<unsigned>(store.get(id).status)];
    const auto n = [&](MsgStatus st) {
        return count[static_cast<unsigned>(st)];
    };
    const SimStats &s = net.stats();
    std::ostringstream err;
    if (store.size() != s.generated)
        err << "stored " << store.size() << " != generated "
            << s.generated << "; ";
    if (n(MsgStatus::Delivered) != s.delivered)
        err << "delivered status " << n(MsgStatus::Delivered)
            << " != stats " << s.delivered << "; ";
    if (n(MsgStatus::Abandoned) != s.abandoned)
        err << "abandoned status " << n(MsgStatus::Abandoned)
            << " != stats " << s.abandoned << "; ";
    if (n(MsgStatus::Queued) != net.totalQueued())
        err << "queued status " << n(MsgStatus::Queued)
            << " != totalQueued " << net.totalQueued() << "; ";
    if (n(MsgStatus::Active) + n(MsgStatus::Recovering) !=
        net.inFlight())
        err << "active+recovering "
            << n(MsgStatus::Active) + n(MsgStatus::Recovering)
            << " != inFlight " << net.inFlight() << "; ";
    if (n(MsgStatus::Killed) > s.kills + s.faultKills)
        err << "killed status " << n(MsgStatus::Killed)
            << " exceeds kills; ";
    return err.str();
}

/** Minimal JSON object writer (keys are plain identifiers). */
class Json
{
  public:
    Json &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Json &
    integer(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Json &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    Json &
    list(const std::string &key, const std::vector<double> &v)
    {
        std::string out = "[";
        char buf[64];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "",
                          v[i]);
            out += buf;
        }
        return raw(key, out + "]");
    }
    Json &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out + "\"";
    }

  private:
    std::string body_;
};

/** One operation (a simulation run or a table cell) and its checks. */
struct Op
{
    std::string id;
    std::string cell; ///< runTable-level counters
    std::string full; ///< every simulated counter (when visible)
    std::string error;

    std::string
    json() const
    {
        return Json()
            .str("id", id)
            .str("cell", cell)
            .str("full", full)
            .str("error", error)
            .text();
    }
};

/** Per-layer observations of a traced process. */
struct LayerTrace
{
    std::vector<double> constructMs;
    std::vector<double> cellMs;
    std::vector<double> chunkMs;
    std::vector<double> oracleUs;
    std::uint64_t vaNs = 0;
    std::uint64_t saNs = 0;
    double chunkS = 0.0;
    std::uint64_t windowHops = 0;
    std::uint64_t windowCycles = 0;
    std::uint64_t generatedMsgs = 0;
    double acceptedFlitRateSum = 0.0;
    unsigned sims = 0;
    std::uint64_t messagesStored = 0;
    std::uint64_t pathSlabLinks = 0;
    std::uint64_t trueDeadlockedMsgs = 0;
    std::uint64_t detectedMsgs = 0;
    std::uint64_t trueDetections = 0;
    std::uint64_t falseDetections = 0;
    std::uint64_t recoveredDeliveries = 0;
    std::uint64_t kills = 0;

    std::string
    json() const
    {
        return Json()
            .list("construct_ms", constructMs)
            .list("cell_ms", cellMs)
            .list("chunk_ms", chunkMs)
            .list("oracle_us", oracleUs)
            .integer("va_ns", vaNs)
            .integer("sa_ns", saNs)
            .num("chunk_s", chunkS)
            .integer("window_hops", windowHops)
            .integer("window_cycles", windowCycles)
            .integer("generated_msgs", generatedMsgs)
            .num("accepted_flit_rate",
                 sims ? acceptedFlitRateSum / sims : 0.0)
            .integer("messages_stored", messagesStored)
            .integer("path_slab_links", pathSlabLinks)
            .integer("true_deadlocked_msgs", trueDeadlockedMsgs)
            .integer("detected_msgs", detectedMsgs)
            .integer("true_detections", trueDetections)
            .integer("false_detections", falseDetections)
            .integer("recovered_deliveries", recoveredDeliveries)
            .integer("kills", kills)
            .text();
    }
};

/**
 * Host time of one run, split into segments of identical simulated
 * work in every process of a seed: the construction, then chunks of
 * warm-up and of the measured window (or, for table2_quick, cells).
 * run.py times each segment by its fastest process.
 */
struct RunTiming
{
    std::vector<double> segments; ///< seconds
    std::size_t windowFirst = 0;  ///< first segment of the window
    std::uint64_t windowHops = 0;
    std::uint64_t lifetimeHops = 0;
};

/**
 * Run one simulation: construct, warm up, measure, check. Warm-up and
 * window run in chunks of @p chunk cycles, each timed; with @p trace
 * set, the oracle is also called between window chunks and the phase
 * timers run. Chunking never changes the simulated result
 * (Network::run is a loop of step()), which the traced-vs-untraced
 * counter comparison in run.py confirms.
 */
Op
runSimulation(const std::string &id, const SimulationConfig &cfg,
              Cycle warmup, Cycle measure, Cycle chunk,
              LayerTrace *trace, RunTiming &timing)
{
    const auto t0 = Clock::now();
    Simulation sim(cfg);
    timing.segments.push_back(secondsSince(t0));
    Network &net = sim.net();
    if (trace)
        net.enablePhaseTimers(true);

    const auto timedRun = [&](Cycle n) {
        const auto c0 = Clock::now();
        net.run(n);
        const double s = secondsSince(c0);
        timing.segments.push_back(s);
        return s;
    };
    for (Cycle done = 0; done < warmup; done += chunk)
        timedRun(std::min(chunk, warmup - done));

    net.startMeasurement();
    const std::uint64_t hops0 = net.flitHops();
    const std::uint64_t va0 = net.vaNanos();
    const std::uint64_t sa0 = net.saNanos();
    timing.windowFirst = timing.segments.size();
    for (Cycle done = 0; done < measure; done += chunk) {
        const double s = timedRun(std::min(chunk, measure - done));
        if (!trace)
            continue;
        trace->chunkMs.push_back(s * 1e3);
        trace->chunkS += s;
        const auto o0 = Clock::now();
        findDeadlockedMessages(net);
        trace->oracleUs.push_back(secondsSince(o0) * 1e6);
    }
    timing.windowHops = net.flitHops() - hops0;
    timing.lifetimeHops = net.flitHops();

    const SimSummary sum = sim.summary();
    if (trace) {
        const SimStats &st = net.stats();
        trace->vaNs += net.vaNanos() - va0;
        trace->saNs += net.saNanos() - sa0;
        trace->windowHops += timing.windowHops;
        trace->windowCycles += measure;
        trace->generatedMsgs += st.generated;
        trace->acceptedFlitRateSum += sum.acceptedFlitRate;
        ++trace->sims;
        trace->messagesStored = std::max<std::uint64_t>(
            trace->messagesStored, net.messages().size());
        trace->pathSlabLinks = std::max<std::uint64_t>(
            trace->pathSlabLinks, net.messages().pathSlabLinks());
        trace->trueDeadlockedMsgs += st.trueDeadlockedMessages;
        trace->detectedMsgs += sum.detectedMessages;
        trace->trueDetections += sum.trueDetections;
        trace->falseDetections += sum.falseDetections;
        trace->recoveredDeliveries += sum.recoveredDeliveries;
        trace->kills += sum.kills;
    }

    Op op;
    op.id = id;
    op.cell = cellFingerprint(cellFromSummary(sum));
    op.full = fullFingerprint(net);
    op.error = conservationError(net);
    return op;
}

/**
 * Set-up cost: construct every simulation the workload runs, in rounds
 * of at least kSetupConstructions constructions in all, and return the
 * median round (seconds). A traced process also records each
 * construction.
 */
double
timeSetup(const std::vector<SimulationConfig> &cfgs, LayerTrace *trace)
{
    const std::size_t n_rounds =
        (kSetupConstructions + cfgs.size() - 1) / cfgs.size();
    std::vector<double> rounds;
    for (std::size_t r = 0; r < n_rounds; ++r) {
        double total = 0.0;
        for (const SimulationConfig &cfg : cfgs) {
            const auto t0 = Clock::now();
            const auto sim = std::make_unique<Simulation>(cfg);
            const double s = secondsSince(t0);
            total += s;
            if (trace)
                trace->constructMs.push_back(s * 1e3);
        }
        rounds.push_back(total);
    }
    std::sort(rounds.begin(), rounds.end());
    return rounds[rounds.size() / 2];
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
opsJson(const std::vector<Op> &ops)
{
    std::string out = "[";
    for (std::size_t i = 0; i < ops.size(); ++i)
        out += (i ? ", " : "") + ops[i].json();
    return out + "]";
}

std::string
cellId(std::size_t c)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "cell%02zu", c);
    return buf;
}

/** paper_sat_512 / sparse_4096: one simulation, timed. */
std::vector<Op>
runSingle(const Options &opt, const SingleWorkload &w, Json &out)
{
    const bool traced = opt.mode == "trace";
    LayerTrace trace;
    if (traced)
        timeSetup({w.cfg}, &trace);

    RunTiming t;
    const auto t0 = Clock::now();
    std::vector<Op> ops = {runSimulation("run", w.cfg, w.warmup,
                                         w.measure, w.chunk,
                                         traced ? &trace : nullptr, t)};
    trace.cellMs.push_back(secondsSince(t0) * 1e3);

    out.list("segments", t.segments)
        .integer("window_first", t.windowFirst)
        .integer("cycles", w.measure)
        .integer("flit_hops", t.windowHops);
    if (traced)
        out.raw("layers", trace.json());
    return ops;
}

/** Replay every table cell through the Simulation API: the counts
 *  and conservation checks runTable keeps to itself. */
std::vector<Op>
replayCells(const TableSpec &spec,
            const std::vector<SimulationConfig> &cells,
            LayerTrace *trace, std::uint64_t &hops)
{
    std::vector<Op> ops;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        RunTiming t;
        ops.push_back(runSimulation(cellId(c), cells[c], spec.warmup,
                                    spec.measure, kTableChunk, trace,
                                    t));
        hops += t.lifetimeHops;
    }
    return ops;
}

/** table2_quick: the table as a user regenerates it, via runTable. */
std::vector<Op>
runTable2(const Options &opt, Json &out)
{
    const TableSpec spec = table2QuickSpec(opt);
    const std::vector<SimulationConfig> cells = tableCellConfigs(spec);
    out.integer("cycles", (spec.warmup + spec.measure) * cells.size());
    std::uint64_t hops = 0;
    if (opt.mode == "check") {
        std::vector<Op> ops = replayCells(spec, cells, nullptr, hops);
        out.integer("flit_hops", hops);
        return ops;
    }

    const bool traced = opt.mode == "trace";
    LayerTrace trace;
    if (traced)
        timeSetup(cells, &trace);

    // With one job, cells run in order and the progress callback
    // fires as each one starts. The first segment also holds runTable's
    // own set-up, the last its assembly of the result.
    std::vector<Clock::time_point> bounds;
    std::size_t started = 0;
    const ExperimentRunner runner(
        [&](const std::string &) {
            if (started++ > 0)
                bounds.push_back(Clock::now());
        },
        /*jobs=*/1);
    bounds.push_back(Clock::now());
    const TableResult result = runner.runTable(spec);
    bounds.push_back(Clock::now());

    std::vector<double> segments;
    for (std::size_t i = 1; i < bounds.size(); ++i)
        segments.push_back(
            std::chrono::duration<double>(bounds[i] - bounds[i - 1])
                .count());

    std::vector<Op> ops;
    for (std::size_t r = 0, c = 0; r < spec.rates.size(); ++r)
        for (std::size_t s = 0; s < spec.sizeClasses.size(); ++s)
            for (std::size_t t = 0; t < spec.thresholds.size(); ++t)
                ops.push_back(Op{cellId(c++),
                                 cellFingerprint(result.cells[r][s][t]),
                                 "", ""});
    out.list("segments", segments).integer("window_first", 0);
    if (!traced)
        return ops;

    for (const double s : segments)
        trace.cellMs.push_back(s * 1e3);
    // The traced replay: chunk timing, oracle calls and phase timers
    // on every cell, checked against runTable's cells.
    const std::vector<Op> replay = replayCells(spec, cells, &trace, hops);
    ops.insert(ops.end(), replay.begin(), replay.end());
    out.raw("layers", trace.json());
    return ops;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--perturb")
            opt.perturb = true;
        else if (arg == "--workload" && has_value)
            opt.workload = argv[++i];
        else if (arg == "--seed" && has_value)
            opt.seed = std::stoull(argv[++i]);
        else if (arg == "--mode" && has_value)
            opt.mode = argv[++i];
        else if (arg == "--scale" && has_value)
            opt.scale = std::max<Cycle>(1, std::stoull(argv[++i]));
        else
            return false;
    }
    return opt.mode == "setup" || opt.mode == "time" ||
           opt.mode == "check" || opt.mode == "trace";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: wormnet-perfbench --workload <name> "
                     "--seed <n> [--mode setup|time|check|trace] "
                     "[--scale <n>] [--perturb]\n");
        return 2;
    }

    Json out;
    out.str("workload", opt.workload)
        .str("mode", opt.mode)
        .integer("seed", opt.seed)
        .str("build_type", WORMNET_PERFBENCH_BUILD_TYPE)
        .integer("contract_level", WORMNET_CONTRACT_LEVEL);
    try {
        const bool table = opt.workload == "table2_quick";
        SingleWorkload single;
        if (!table && (!singleWorkload(opt, single) || opt.mode == "check")) {
            std::fprintf(stderr, "unknown workload/mode %s/%s\n",
                         opt.workload.c_str(), opt.mode.c_str());
            return 2;
        }
        std::vector<Op> ops;
        if (opt.mode == "setup") {
            const std::vector<SimulationConfig> cfgs =
                table ? tableCellConfigs(table2QuickSpec(opt))
                      : std::vector<SimulationConfig>{single.cfg};
            out.num("setup_s", timeSetup(cfgs, nullptr));
            // One operation: the set-up sample. A process that dies
            // before printing it counts the sample as failed.
            ops.push_back(Op{"setup", "", "", ""});
        } else {
            ops = table ? runTable2(opt, out) : runSingle(opt, single, out);
        }
        if (opt.perturb && !ops.empty())
            ops[0].cell += "+perturbed";
        out.raw("ops", opsJson(ops));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wormnet-perfbench: %s\n", e.what());
        return 1;
    }
    out.num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", out.text().c_str());
    return 0;
}
