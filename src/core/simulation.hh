/**
 * @file
 * Public facade: build a complete simulation from a declarative
 * configuration. This is the entry point a library user is expected
 * to touch first; it wires topology, traffic, routing, detection and
 * recovery together and owns all of them.
 */

#ifndef WORMNET_CORE_SIMULATION_HH
#define WORMNET_CORE_SIMULATION_HH

#include <memory>
#include <string>

#include "common/config.hh"
#include "common/types.hh"
#include "detection/detector.hh"
#include "fault/fault.hh"
#include "recovery/recovery.hh"
#include "routing/routing.hh"
#include "sim/network.hh"
#include "sim/reconfig.hh"
#include "topology/topology.hh"
#include "traffic/generator.hh"

namespace wormnet
{

/** Declarative description of a complete simulation. */
struct SimulationConfig
{
    /** @name Topology. */
    /// @{
    std::string topology = "torus"; ///< "torus" | "mesh"
    unsigned radix = 8;
    unsigned dims = 2;
    /** Mixed-radix override, e.g. "8x4x2" (torus only). When
     *  non-empty it supersedes radix/dims. */
    std::string radices;
    /// @}

    /** @name Router shape (paper defaults). */
    /// @{
    unsigned vcs = 3;
    unsigned bufDepth = 4;
    unsigned injPorts = 4;
    unsigned ejePorts = 4;
    /// @}

    /** @name Policies. */
    /// @{
    std::string routing = "tfa";          ///< see makeRoutingFunction
    std::string detector = "ndm:32";      ///< see makeDetector
    std::string recovery = "progressive"; ///< see makeRecoveryManager,
                                          ///< or "none"
    std::string selection = "random";     ///< "random" | "firstfit"
    /// @}

    /** @name Traffic. */
    /// @{
    std::string pattern = "uniform"; ///< see makePattern
    std::string lengths = "s";       ///< see makeLengthDistribution
    double flitRate = 0.2;           ///< flits/cycle/node
    /// @}

    /** @name Mechanisms and instrumentation. */
    /// @{
    bool injectionLimit = true;
    double injectionLimitFraction = 0.4;
    Cycle oraclePeriod = 128; ///< 0 disables the ground-truth oracle
    std::size_t maxSourceQueue = 0;
    /// @}

    /** @name Fault injection. */
    /// @{
    /** Fault spec (see FaultModel::parseSpec); empty disables. */
    std::string faults;
    /** Cycles until an injected fault self-repairs (0 = permanent). */
    Cycle faultRepair = 0;
    /** Kills a stranded message tolerates before being abandoned. */
    unsigned maxRetries = 32;
    /// @}

    /** @name Online reconfiguration. */
    /// @{
    /** Reconfiguration plan (see ReconfigPlan::parse); empty
     *  disables. */
    std::string reconfig;
    /** Cross-check every applied epoch with the static CDG
     *  analyzer (recorded in the per-epoch records). */
    bool reconfigCheck = true;
    /// @}

    std::uint64_t seed = 1;

    /**
     * Kept only so the benchmark driver in perfbench/, which sets it
     * to 1 (and passes --sim-jobs 1 to table2_ndm_uniform), still
     * builds and runs. The simulator steps every network on one
     * thread; any value > 1 is rejected with a FatalError. Not part
     * of canonicalString(). Goes away once perfbench stops naming it.
     */
    unsigned simJobs = 1;

    /**
     * Canonical single-line "key=value" rendering of every field.
     * Two configs produce byte-identical strings iff they build
     * identical simulations; checkpoint files embed it so a resume
     * under a different configuration fails loudly.
     */
    std::string canonicalString() const;

    /**
     * Build from a command-line Config; every field maps to an option
     * of the same name (snake-case): --topology, --radix, --dims,
     * --vcs, --buf-depth, --inj-ports, --eje-ports, --routing,
     * --detector, --recovery, --selection, --pattern, --lengths,
     * --rate, --injection-limit, --injection-limit-fraction,
     * --oracle-period, --max-source-queue, --faults, --fault-repair,
     * --max-retries, --reconfig, --reconfig-check, --seed.
     */
    static SimulationConfig fromConfig(const Config &cfg);
};

/** Headline results of one run (see also Network::stats()). */
struct SimSummary
{
    Cycle measuredCycles = 0;
    std::uint64_t delivered = 0;
    std::uint64_t detectedMessages = 0;
    std::uint64_t trueDetections = 0;
    std::uint64_t falseDetections = 0;
    double detectionRate = 0.0;  ///< detected / delivered
    double acceptedFlitRate = 0.0;
    double offeredFlitRate = 0.0;
    /** Effective offered load: generated flits/cycle/node (lower
     *  than offeredFlitRate for self-mapping patterns). */
    double generatedFlitRate = 0.0;
    double avgLatency = 0.0;
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    std::uint64_t recoveredDeliveries = 0;
    std::uint64_t kills = 0;
    std::uint64_t trueDeadlockedMessages = 0;

    /** @name Fault injection (lifetime; zero without faults). */
    /// @{
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsRepaired = 0;
    std::uint64_t faultKills = 0;
    std::uint64_t faultReroutes = 0;
    std::uint64_t abandoned = 0;
    /// @}

    /** @name Detector control-plane overhead (measurement window;
     *  zero for purely local mechanisms). */
    /// @{
    std::uint64_t ctrlFlits = 0;
    std::uint64_t ctrlFlitHops = 0;
    std::uint64_t ctrlBytes = 0;
    /// @}

    /** Mean cycles from the oracle first seeing a message
     *  deadlocked to the detector marking it (oracle-period
     *  granularity; 0 without confirmed detections). */
    double avgDetectionLatency = 0.0;

    /** Multi-line human-readable report. */
    std::string toString() const;
};

/** Owns a fully wired simulator built from a SimulationConfig. */
class Simulation
{
  public:
    explicit Simulation(const SimulationConfig &config);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** The live network (stepping, inspection, hand injection). */
    Network &net() { return *network_; }
    const Network &net() const { return *network_; }

    const SimulationConfig &config() const { return config_; }
    const Topology &topology() const { return *topology_; }

    /**
     * Convenience: run @p warmup cycles, reset the measurement
     * window, run @p measure cycles, and summarise.
     */
    SimSummary warmupAndMeasure(Cycle warmup, Cycle measure);

    /** Summarise the current measurement window. */
    SimSummary summary() const;

    /** The attached reconfiguration manager (nullptr without
     *  --reconfig). */
    const ReconfigManager *reconfigManager() const
    {
        return reconfig_.get();
    }

    /** The attached deadlock detector (white-box inspection in
     *  tests; downcast to the concrete mechanism if needed). */
    const DeadlockDetector &detector() const { return *detector_; }

    /**
     * @name Checkpoint/restore.
     *
     * saveCheckpoint() snapshots the complete simulation state
     * (network, RNGs, detector, recovery, faults, reconfiguration)
     * at the current step() boundary into a versioned, CRC-checked
     * file (see sim/checkpoint.hh). loadCheckpoint() restores it
     * onto this freshly constructed simulation; the file's embedded
     * config string must match this simulation's canonicalString().
     * A resumed run is bitwise-identical to one that never stopped.
     */
    /// @{
    void saveCheckpoint(const std::string &path) const;
    void loadCheckpoint(const std::string &path);
    /// @}

  private:
    SimulationConfig config_;
    std::unique_ptr<Topology> topology_;
    std::unique_ptr<TrafficPattern> pattern_;
    std::unique_ptr<LengthDistribution> lengths_;
    std::unique_ptr<RoutingFunction> routing_;
    std::unique_ptr<DeadlockDetector> detector_;
    std::unique_ptr<RecoveryManager> recovery_;
    std::unique_ptr<FaultModel> faults_;
    std::unique_ptr<ReconfigManager> reconfig_;
    std::unique_ptr<Network> network_;
};

} // namespace wormnet

#endif // WORMNET_CORE_SIMULATION_HH
