#include "core/experiment.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/contracts.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "sim/checkpoint.hh"

namespace wormnet
{

namespace
{

/** Replace the "%T" placeholder with a threshold value. */
std::string
instantiateDetector(const std::string &tmpl, Cycle threshold)
{
    const auto pos = tmpl.find("%T");
    if (pos == std::string::npos)
        fatal("detector template '", tmpl, "' lacks a %T placeholder");
    std::ostringstream os;
    os << tmpl.substr(0, pos) << threshold << tmpl.substr(pos + 2);
    return os.str();
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    // wormnet-lint: allow(banned-api): progress reporting only —
    // elapsed seconds go to stderr, never into a table cell
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/**
 * Canonical rendering of everything that determines a table's cell
 * grid and contents. Embedded in sweep checkpoints: a resume whose
 * spec differs in any way is rejected before any slot is trusted.
 */
std::string
tableConfigString(const TableSpec &spec)
{
    std::ostringstream os;
    os.precision(17);
    os << "table=" << spec.title
       << " base=[" << spec.base.canonicalString() << "]"
       << " detector-template=" << spec.detectorTemplate;
    os << " thresholds=";
    for (const Cycle t : spec.thresholds)
        os << t << ';';
    os << " sizes=";
    for (const std::string &s : spec.sizeClasses)
        os << s << ';';
    os << " rates=";
    for (const double r : spec.rates)
        os << r << ';';
    os << " warmup=" << spec.warmup << " measure=" << spec.measure
       << " replications=" << spec.replications;
    return os.str();
}

} // namespace

ExperimentRunner::ExperimentRunner(Progress progress, unsigned jobs)
    : progress_(std::move(progress)), jobs_(jobs)
{
}

void
ExperimentRunner::reportProgress(const std::string &message) const
{
    if (!progress_)
        return;
    std::lock_guard<std::mutex> lock(progressMutex_);
    progress_(message);
}

CellResult
ExperimentRunner::runCell(const SimulationConfig &config, Cycle warmup,
                          Cycle measure) const
{
    Simulation sim(config);
    const SimSummary s = sim.warmupAndMeasure(warmup, measure);
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

CellResult
ExperimentRunner::reduceReplications(
    const std::vector<CellResult> &slots)
{
    WORMNET_ASSERT(!slots.empty());
    RunningStat det;
    CellResult out;
    for (const CellResult &cell : slots) {
        det.add(cell.detectionRate);
        out.sawTrueDeadlock |= cell.sawTrueDeadlock;
        out.delivered += cell.delivered;
        out.detectedMessages += cell.detectedMessages;
        out.acceptedFlitRate += cell.acceptedFlitRate;
        out.generatedFlitRate += cell.generatedFlitRate;
        out.avgLatency += cell.avgLatency;
    }
    const auto n = static_cast<unsigned>(slots.size());
    out.detectionRate = det.mean();
    out.detectionRateStd = det.stddev();
    out.replications = n;
    out.acceptedFlitRate /= n;
    out.generatedFlitRate /= n;
    out.avgLatency /= n;
    return out;
}

CellResult
ExperimentRunner::runCellReplicated(const SimulationConfig &config,
                                    Cycle warmup, Cycle measure,
                                    unsigned replications,
                                    std::uint64_t cell_index) const
{
    WORMNET_ASSERT(replications >= 1);
    std::vector<CellResult> slots(replications);
    parallelFor(replications, jobs_, [&](std::size_t p) {
        SimulationConfig cfg = config;
        cfg.seed = deriveSeed(config.seed, cell_index, p);
        slots[p] = runCell(cfg, warmup, measure);
    });
    return reduceReplications(slots);
}

TableResult
ExperimentRunner::runTable(const TableSpec &spec) const
{
    WORMNET_ASSERT(spec.rates.size() == spec.rateLabels.size());
    WORMNET_ASSERT(spec.replications >= 1);
    const std::size_t nRates = spec.rates.size();
    const std::size_t nSizes = spec.sizeClasses.size();
    const std::size_t nThs = spec.thresholds.size();
    const std::size_t reps = spec.replications;
    const std::size_t nCells = nRates * nSizes * nThs;

    TableResult result;
    result.spec = spec;
    result.cells.resize(nRates);
    for (auto &per_rate : result.cells)
        per_rate.resize(nSizes);

    // Fan every independent simulation — cell x replication — across
    // the workers at once; each writes its own slot, and the per-cell
    // reduction below walks the slots in serial order, so the table
    // is bitwise-identical for every job count.
    // wormnet-lint: allow(banned-api): stderr progress ETA baseline
    const auto start = Clock::now();
    std::vector<CellResult> raw(nCells * reps);

    // Sweep checkpointing: done[w] marks slot w as final. Resumed
    // slots are restored bit-exactly before the workers start and
    // skipped by the workers; the reduction cannot tell the
    // difference, so resumed output is byte-identical.
    std::vector<std::uint8_t> done(nCells * reps, 0);
    const std::string ckpt_config = tableConfigString(spec);
    if (!resumePath_.empty()) {
        const std::vector<std::uint8_t> payload =
            readCheckpointFile(resumePath_, ckpt_config);
        Deserializer d(payload.data(), payload.size());
        const std::uint64_t slots = d.u64();
        if (slots != raw.size())
            fatal("sweep checkpoint '", resumePath_, "' has ", slots,
                  " slots; this table has ", raw.size());
        for (std::size_t w = 0; w < raw.size(); ++w) {
            done[w] = d.boolean() ? 1 : 0;
            if (done[w])
                raw[w].loadState(d);
        }
        if (!d.atEnd())
            fatal("sweep checkpoint '", resumePath_, "' has ",
                  d.remaining(), " unread trailing bytes");
    }

    const char *crash_env =
        std::getenv("WORMNET_CRASH_AFTER_CELLS");
    const std::uint64_t crash_after =
        crash_env ? std::strtoull(crash_env, nullptr, 10) : 0;
    const bool track_completion =
        !checkpointPath_.empty() || crash_after > 0;

    // All guarded by checkpointMutex_.
    std::uint64_t completed_this_run = 0;
    std::uint64_t completed_since_save = 0;
    const auto save_locked = [&]() {
        Serializer s;
        s.u64(raw.size());
        for (std::size_t w = 0; w < raw.size(); ++w) {
            s.boolean(done[w] != 0);
            if (done[w])
                raw[w].saveState(s);
        }
        writeCheckpointFile(checkpointPath_, ckpt_config, s);
    };

    std::atomic<std::uint64_t> busyNanos{0};
    parallelFor(nCells * reps, jobs_, [&](std::size_t w) {
        if (done[w])
            return; // restored from the resume checkpoint
        const std::size_t c = w / reps;
        const std::size_t p = w % reps;
        const std::size_t t = c % nThs;
        const std::size_t s = (c / nThs) % nSizes;
        const std::size_t r = c / (nThs * nSizes);

        if (p == 0 && progress_) {
            std::ostringstream os;
            os << spec.title << " rate=" << spec.rates[r]
               << " size=" << spec.sizeClasses[s]
               << " th=" << spec.thresholds[t];
            reportProgress(os.str());
        }

        SimulationConfig cfg = spec.base;
        cfg.flitRate = spec.rates[r];
        cfg.lengths = spec.sizeClasses[s];
        cfg.detector =
            instantiateDetector(spec.detectorTemplate,
                                spec.thresholds[t]);
        cfg.seed = deriveSeed(spec.base.seed, c, p);

        // wormnet-lint: allow(banned-api): busy-time accounting for
        // the stderr progress line; table cells never see it
        const auto cellStart = Clock::now();
        raw[w] = runCell(cfg, spec.warmup, spec.measure);
        busyNanos.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    // wormnet-lint: allow(banned-api): same busy-time
                    Clock::now() - cellStart)
                    .count()),
            std::memory_order_relaxed);

        if (!track_completion) {
            done[w] = 1; // slot is only ever touched by this worker
            return;
        }
        // The mutex both serializes saves and publishes raw[w] (the
        // owner writes it before locking; a saver only reads slots
        // whose done flag it observed under the same lock).
        std::lock_guard<std::mutex> lock(checkpointMutex_);
        done[w] = 1;
        ++completed_this_run;
        ++completed_since_save;
        const bool crash =
            crash_after > 0 && completed_this_run >= crash_after;
        if (!checkpointPath_.empty() &&
            (crash || completed_since_save >= checkpointEvery_)) {
            save_locked();
            completed_since_save = 0;
        }
        if (crash) {
            // _Exit: no atexit / static destructors — the point is
            // to die abruptly mid-sweep, and LSan would otherwise
            // report every live allocation of the worker threads.
            std::fflush(nullptr);
            std::_Exit(86);
        }
    });

    // A final save so a completed sweep leaves a complete file (a
    // later resume then skips every cell).
    if (!checkpointPath_.empty()) {
        std::lock_guard<std::mutex> lock(checkpointMutex_);
        save_locked();
    }

    for (std::size_t r = 0; r < nRates; ++r) {
        for (std::size_t s = 0; s < nSizes; ++s) {
            result.cells[r][s].reserve(nThs);
            for (std::size_t t = 0; t < nThs; ++t) {
                const std::size_t c = (r * nSizes + s) * nThs + t;
                const std::vector<CellResult> slots(
                    raw.begin() + static_cast<std::ptrdiff_t>(c * reps),
                    raw.begin() +
                        static_cast<std::ptrdiff_t>((c + 1) * reps));
                result.cells[r][s].push_back(
                    reduceReplications(slots));
            }
        }
    }
    result.wallSeconds = secondsSince(start);
    result.busySeconds = static_cast<double>(busyNanos.load()) * 1e-9;
    return result;
}

TextTable
ExperimentRunner::formatTable(const TableResult &result,
                              const double *paper_ref)
{
    const TableSpec &spec = result.spec;
    const std::size_t sizes = spec.sizeClasses.size();
    const std::size_t cols = 1 + spec.rates.size() * sizes;
    TextTable table(cols);

    // Header 1: rate labels spanning their size columns; a column
    // group is starred when any of its cells saw a true deadlock.
    {
        std::vector<std::string> row(cols);
        row[0] = "";
        for (std::size_t r = 0; r < spec.rates.size(); ++r)
            row[1 + r * sizes] = spec.rateLabels[r];
        table.addRow(std::move(row));
    }
    // Header 2: size class per column, starred if the column's cells
    // include a confirmed true deadlock.
    {
        std::vector<std::string> row(cols);
        row[0] = "M. Size";
        for (std::size_t r = 0; r < spec.rates.size(); ++r) {
            for (std::size_t s = 0; s < sizes; ++s) {
                bool starred = false;
                for (const auto &cell : result.cells[r][s])
                    starred |= cell.sawTrueDeadlock;
                row[1 + r * sizes + s] =
                    spec.sizeClasses[s] + (starred ? " (*)" : "");
            }
        }
        table.addRow(std::move(row));
    }
    table.addSeparator();

    for (std::size_t t = 0; t < spec.thresholds.size(); ++t) {
        std::vector<std::string> row(cols);
        {
            std::ostringstream os;
            os << "Th " << spec.thresholds[t];
            row[0] = os.str();
        }
        for (std::size_t r = 0; r < spec.rates.size(); ++r) {
            for (std::size_t s = 0; s < sizes; ++s) {
                const CellResult &cell = result.cells[r][s][t];
                std::string text =
                    formatPercentPaperStyle(cell.detectionRate);
                if (paper_ref) {
                    const double ref =
                        paper_ref[t * spec.rates.size() * sizes +
                                  r * sizes + s];
                    text += " (" +
                            formatPercentPaperStyle(ref / 100.0) +
                            ")";
                }
                row[1 + r * sizes + s] = std::move(text);
            }
        }
        table.addRow(std::move(row));
    }
    return table;
}

double
ExperimentRunner::findSaturationRate(const SimulationConfig &base,
                                     double lo, double hi,
                                     double slack, Cycle warmup,
                                     Cycle measure,
                                     unsigned iterations) const
{
    WORMNET_ASSERT(lo > 0.0 && hi > lo);
    const auto saturatedAt = [&](double rate) {
        SimulationConfig cfg = base;
        cfg.flitRate = rate;
        const CellResult cell = runCell(cfg, warmup, measure);
        // Compare against the *generated* load: self-mapping
        // patterns (bit-reversal, butterfly) drop self-addressed
        // draws at the source, which must not read as saturation.
        return cell.acceptedFlitRate <
               (1.0 - slack) * cell.generatedFlitRate;
    };

    // Ensure the bracket actually straddles saturation; the two
    // endpoint probes are independent, so run them concurrently.
    bool endpoints[2];
    {
        const double rates[2] = {lo, hi};
        parallelFor(2, jobs_, [&](std::size_t i) {
            endpoints[i] = saturatedAt(rates[i]);
        });
    }
    if (endpoints[0])
        return lo;
    if (!endpoints[1])
        return hi;

    // Deterministic multisection: every round evaluates the same
    // kSaturationProbes evenly spaced interior rates (concurrently
    // when jobs allow) and narrows to the sub-interval that straddles
    // the knee — a (kSaturationProbes + 1)-fold reduction per round
    // whose result does not depend on the job count.
    constexpr unsigned kProbes = kSaturationProbes;
    for (unsigned i = 0; i < iterations; ++i) {
        double probes[kProbes];
        bool saturated[kProbes];
        const double step = (hi - lo) / (kProbes + 1);
        for (unsigned k = 0; k < kProbes; ++k)
            probes[k] = lo + step * (k + 1);
        parallelFor(kProbes, jobs_, [&](std::size_t k) {
            saturated[k] = saturatedAt(probes[k]);
        });
        double new_lo = lo, new_hi = hi;
        for (unsigned k = 0; k < kProbes; ++k) {
            if (saturated[k]) {
                new_hi = probes[k];
                break;
            }
            new_lo = probes[k];
        }
        lo = new_lo;
        hi = new_hi;
    }
    return 0.5 * (lo + hi);
}

} // namespace wormnet
