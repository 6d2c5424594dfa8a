/**
 * @file
 * Experiment harness: threshold-sweep grids in the shape of the
 * paper's Tables 1-7, plus saturation-point search.
 *
 * A table cell is one simulation: (traffic pattern, message-size
 * class, injection rate, detection threshold) -> percentage of
 * messages detected as possibly deadlocked. Rows sweep the detection
 * threshold; column groups sweep the injection rate; columns within a
 * group sweep the message-size class. Cells where the ground-truth
 * oracle confirmed at least one true deadlock are starred, matching
 * the paper's "(*)" annotation.
 *
 * Execution is parallel: every independent simulation (cell x seed
 * replication, saturation probe) fans out over plain threads
 * (parallelFor in common/parallel.hh) controlled by the jobs knob (0 = WORMNET_JOBS
 * env, else hardware concurrency; 1 = serial on the caller thread).
 * Results land in pre-sized slots and are reduced sequentially in
 * serial order, so every output is bitwise-identical regardless of
 * the job count.
 */

#ifndef WORMNET_CORE_EXPERIMENT_HH
#define WORMNET_CORE_EXPERIMENT_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "common/table.hh"
#include "core/simulation.hh"

namespace wormnet
{

/** One simulated table cell (possibly averaged over seeds). */
struct CellResult
{
    double detectionRate = 0.0;  ///< fraction of delivered messages
    /** Sample standard deviation of detectionRate across the seed
     *  replications (0 with a single replication). */
    double detectionRateStd = 0.0;
    unsigned replications = 1;
    bool sawTrueDeadlock = false;
    std::uint64_t delivered = 0;
    std::uint64_t detectedMessages = 0;
    double acceptedFlitRate = 0.0;
    /** Generated (post-self-drop) flits/cycle/node — the effective
     *  offered load the saturation search compares against. */
    double generatedFlitRate = 0.0;
    double avgLatency = 0.0;

    /** @name Checkpoint support (bit-exact: doubles round-trip
     *  through their raw encoding, so a resumed sweep renders
     *  byte-identical tables). */
    /// @{
    template <typename S>
    void
    saveState(S &s) const
    {
        s.f64(detectionRate);
        s.f64(detectionRateStd);
        s.u32(replications);
        s.boolean(sawTrueDeadlock);
        s.u64(delivered);
        s.u64(detectedMessages);
        s.f64(acceptedFlitRate);
        s.f64(generatedFlitRate);
        s.f64(avgLatency);
    }

    template <typename D>
    void
    loadState(D &d)
    {
        detectionRate = d.f64();
        detectionRateStd = d.f64();
        replications = d.u32();
        sawTrueDeadlock = d.boolean();
        delivered = d.u64();
        detectedMessages = d.u64();
        acceptedFlitRate = d.f64();
        generatedFlitRate = d.f64();
        avgLatency = d.f64();
    }
    /// @}
};

/** Specification of one paper-style detection table. */
struct TableSpec
{
    std::string title;

    /** Base configuration; detector / lengths / rate are overridden
     *  per cell. */
    SimulationConfig base;

    /** Detector spec with "%T" replaced by the threshold, e.g.
     *  "ndm:%T" or "pdm:%T" or "timeout:%T". */
    std::string detectorTemplate = "ndm:%T";

    std::vector<Cycle> thresholds;
    std::vector<std::string> sizeClasses; ///< length specs, e.g. "s"
    std::vector<double> rates;            ///< flits/cycle/node
    std::vector<std::string> rateLabels;  ///< column-group headers

    Cycle warmup = 3000;
    Cycle measure = 15000;

    /** Independent seeds averaged per cell; each replication's seed
     *  is deriveSeed(base.seed, cell index, replication index). */
    unsigned replications = 1;
};

/** All cells of a simulated table. */
struct TableResult
{
    TableSpec spec;
    /** cells[rate][size][threshold]. */
    std::vector<std::vector<std::vector<CellResult>>> cells;

    /** @name Timing (not part of the deterministic payload). */
    /// @{
    double wallSeconds = 0.0; ///< elapsed wall clock for the sweep
    /** Summed single-simulation run time; busySeconds / wallSeconds
     *  is the effective parallel speedup. */
    double busySeconds = 0.0;
    /// @}
};

/** Runs table specs and saturation searches. */
class ExperimentRunner
{
  public:
    /**
     * Optional per-cell progress callback (e.g. a dot to stderr).
     * With jobs > 1 it fires from worker threads, serialized by an
     * internal mutex, in whatever order cells are picked up.
     */
    using Progress = std::function<void(const std::string &)>;

    /**
     * @param progress optional per-cell callback
     * @param jobs worker threads for independent simulations:
     *        0 = defaultJobs() (WORMNET_JOBS env, else hardware
     *        concurrency), 1 = serial on the caller thread
     */
    explicit ExperimentRunner(Progress progress = {},
                              unsigned jobs = 0);

    /** Override the job count (same semantics as the constructor). */
    void setJobs(unsigned jobs) { jobs_ = jobs; }
    unsigned jobs() const { return jobs_; }

    /**
     * @name Sweep-level checkpointing.
     *
     * With a checkpoint path set, runTable() atomically saves every
     * finished cell slot to @p path (CRC-checked, see
     * sim/checkpoint.hh) each time @p every_cells more cells
     * complete. setResume() pre-loads those slots and skips the
     * finished work; the file embeds the full table spec, so a
     * resume under a different spec fails loudly. Because slots are
     * restored bit-exactly and the reduction is serial, a resumed
     * table is byte-identical to an uninterrupted one at any job
     * count. The WORMNET_CRASH_AFTER_CELLS environment variable
     * (used by the crash tests and scripts/chaos.sh) saves and
     * calls _Exit(86) after that many newly finished cells.
     */
    /// @{
    void
    setCheckpoint(const std::string &path, unsigned every_cells)
    {
        checkpointPath_ = path;
        checkpointEvery_ = every_cells > 0 ? every_cells : 1;
    }

    void setResume(const std::string &path) { resumePath_ = path; }
    /// @}

    /** Run every cell of @p spec (each cell is one simulation). */
    TableResult runTable(const TableSpec &spec) const;

    /**
     * Render @p result in the paper's layout. When @p paper_ref is
     * non-null it must be indexed [threshold][rate*sizes + size] and
     * the rendering appends the paper's value in parentheses.
     */
    static TextTable formatTable(const TableResult &result,
                                 const double *paper_ref = nullptr);

    /**
     * Estimate the saturation injection rate for @p base (pattern,
     * lengths and all policies taken from it): the largest rate whose
     * accepted throughput still tracks the offered load within
     * @p slack (fractional). Each round probes kSaturationProbes
     * interior rates of [lo, hi] concurrently and keeps the bracket
     * that straddles the knee, narrowing (kSaturationProbes + 1)x per
     * round; the probe grid is fixed, so the result is independent of
     * the job count.
     */
    double findSaturationRate(const SimulationConfig &base, double lo,
                              double hi, double slack = 0.05,
                              Cycle warmup = 2000,
                              Cycle measure = 6000,
                              unsigned iterations = 4) const;

    /** Interior probes per saturation-search round. */
    static constexpr unsigned kSaturationProbes = 3;

    /** Run a single cell. */
    CellResult runCell(const SimulationConfig &config, Cycle warmup,
                       Cycle measure) const;

    /**
     * Run a cell @p replications times with seeds
     * deriveSeed(config.seed, cell_index, 0 .. replications-1) and
     * average the scalar results (detection rate carries a sample
     * standard deviation; true-deadlock flags OR together). The
     * replications fan out over the runner's job count; the reduction
     * is sequential in replication order, so the result is identical
     * for every job count.
     */
    CellResult runCellReplicated(const SimulationConfig &config,
                                 Cycle warmup, Cycle measure,
                                 unsigned replications,
                                 std::uint64_t cell_index = 0) const;

  private:
    /** Serial in-order reduction shared by runTable and
     *  runCellReplicated; @p slots must be non-empty. */
    static CellResult reduceReplications(
        const std::vector<CellResult> &slots);

    /** Fire the progress callback (thread-safe). */
    void reportProgress(const std::string &message) const;

    Progress progress_;
    unsigned jobs_;
    /** Serializes progress_ invocations from worker threads. */
    mutable std::mutex progressMutex_;

    /** @name Sweep checkpointing (see setCheckpoint). */
    /// @{
    std::string checkpointPath_;
    unsigned checkpointEvery_ = 8;
    std::string resumePath_;
    /** Guards the done flags and slot reads during a save. */
    mutable std::mutex checkpointMutex_;
    /// @}
};

} // namespace wormnet

#endif // WORMNET_CORE_EXPERIMENT_HH
