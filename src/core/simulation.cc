#include "core/simulation.hh"

#include <sstream>

#include "common/log.hh"
#include "sim/checkpoint.hh"

namespace wormnet
{

SimulationConfig
SimulationConfig::fromConfig(const Config &cfg)
{
    SimulationConfig c;
    c.topology = cfg.getString("topology", c.topology);
    c.radix = static_cast<unsigned>(cfg.getUint("radix", c.radix));
    c.dims = static_cast<unsigned>(cfg.getUint("dims", c.dims));
    c.radices = cfg.getString("radices", c.radices);
    c.vcs = static_cast<unsigned>(cfg.getUint("vcs", c.vcs));
    c.bufDepth =
        static_cast<unsigned>(cfg.getUint("buf-depth", c.bufDepth));
    c.injPorts =
        static_cast<unsigned>(cfg.getUint("inj-ports", c.injPorts));
    c.ejePorts =
        static_cast<unsigned>(cfg.getUint("eje-ports", c.ejePorts));
    c.routing = cfg.getString("routing", c.routing);
    c.detector = cfg.getString("detector", c.detector);
    c.recovery = cfg.getString("recovery", c.recovery);
    c.selection = cfg.getString("selection", c.selection);
    c.pattern = cfg.getString("pattern", c.pattern);
    c.lengths = cfg.getString("lengths", c.lengths);
    c.flitRate = cfg.getDouble("rate", c.flitRate);
    c.injectionLimit =
        cfg.getBool("injection-limit", c.injectionLimit);
    c.injectionLimitFraction = cfg.getDouble(
        "injection-limit-fraction", c.injectionLimitFraction);
    c.oraclePeriod = cfg.getUint("oracle-period", c.oraclePeriod);
    c.maxSourceQueue = cfg.getUint("max-source-queue",
                                   c.maxSourceQueue);
    c.faults = cfg.getString("faults", c.faults);
    c.faultRepair = cfg.getUint("fault-repair", c.faultRepair);
    c.maxRetries = static_cast<unsigned>(
        cfg.getUint("max-retries", c.maxRetries));
    c.reconfig = cfg.getString("reconfig", c.reconfig);
    c.reconfigCheck = cfg.getBool("reconfig-check", c.reconfigCheck);
    c.seed = cfg.getUint("seed", c.seed);
    c.simJobs = static_cast<unsigned>(
        cfg.getUint("sim-jobs", c.simJobs));
    return c;
}

std::string
SimulationConfig::canonicalString() const
{
    std::ostringstream os;
    os.precision(17);
    os << "topology=" << topology << " radix=" << radix
       << " dims=" << dims << " radices=" << radices
       << " vcs=" << vcs << " buf-depth=" << bufDepth
       << " inj-ports=" << injPorts << " eje-ports=" << ejePorts
       << " routing=" << routing << " detector=" << detector
       << " recovery=" << recovery << " selection=" << selection
       << " pattern=" << pattern << " lengths=" << lengths
       << " rate=" << flitRate
       << " injection-limit=" << injectionLimit
       << " injection-limit-fraction=" << injectionLimitFraction
       << " oracle-period=" << oraclePeriod
       << " max-source-queue=" << maxSourceQueue
       << " faults=" << faults << " fault-repair=" << faultRepair
       << " max-retries=" << maxRetries
       << " reconfig=" << reconfig
       << " reconfig-check=" << reconfigCheck
       << " seed=" << seed;
    return os.str();
}

Simulation::Simulation(const SimulationConfig &config)
    : config_(config)
{
    if (config.simJobs > 1)
        fatal("sim-jobs=", config.simJobs,
              ": sharded stepping was removed; every simulation "
              "steps on one thread (use --jobs to run cells in "
              "parallel)");

    topology_ = makeTopology(config.topology, config.radix,
                             config.dims, config.radices);

    pattern_ = makePattern(config.pattern, *topology_);
    lengths_ = makeLengthDistribution(config.lengths);

    RouterParams rp;
    rp.netPorts = topology_->numNetPorts();
    rp.injPorts = config.injPorts;
    rp.ejePorts = config.ejePorts;
    rp.vcs = config.vcs;
    rp.bufDepth = config.bufDepth;
    rp.validate();
    routing_ = makeRoutingFunction(config.routing, *topology_, rp);

    detector_ = makeDetector(config.detector);
    if (config.recovery != "none")
        recovery_ = makeRecoveryManager(config.recovery);

    NetworkParams np;
    np.vcs = config.vcs;
    np.bufDepth = config.bufDepth;
    np.injPorts = config.injPorts;
    np.ejePorts = config.ejePorts;
    np.injectionLimit = config.injectionLimit;
    np.injectionLimitFraction = config.injectionLimitFraction;
    np.oraclePeriod = config.oraclePeriod;
    np.maxSourceQueue = config.maxSourceQueue;
    np.maxRetries = config.maxRetries;
    if (config.selection == "random")
        np.selection = VcSelection::Random;
    else if (config.selection == "firstfit")
        np.selection = VcSelection::FirstFit;
    else
        fatal("unknown selection policy '", config.selection, "'");

    network_ = std::make_unique<Network>(
        *topology_, np, *routing_, *detector_, recovery_.get(),
        *pattern_, *lengths_, config.flitRate, config.seed);

    if (!config.faults.empty()) {
        FaultParams fp = FaultModel::parseSpec(config.faults);
        fp.repairDelay = config.faultRepair;
        faults_ = std::make_unique<FaultModel>(fp);
        network_->attachFaultModel(faults_.get());
    }

    if (!config.reconfig.empty()) {
        reconfig_ = std::make_unique<ReconfigManager>(
            ReconfigPlan::parse(config.reconfig),
            config.reconfigCheck);
        network_->attachReconfig(reconfig_.get());
    }
}

Simulation::~Simulation() = default;

void
Simulation::saveCheckpoint(const std::string &path) const
{
    Serializer s;
    network_->saveState(s);
    writeCheckpointFile(path, config_.canonicalString(), s);
}

void
Simulation::loadCheckpoint(const std::string &path)
{
    const std::vector<std::uint8_t> payload =
        readCheckpointFile(path, config_.canonicalString());
    Deserializer d(payload.data(), payload.size());
    network_->loadState(d);
}

SimSummary
Simulation::warmupAndMeasure(Cycle warmup, Cycle measure)
{
    network_->run(warmup);
    network_->startMeasurement();
    network_->run(measure);
    return summary();
}

SimSummary
Simulation::summary() const
{
    const SimStats &s = network_->stats();
    SimSummary out;
    out.measuredCycles = network_->now() - s.windowStart;
    out.delivered = s.wDelivered;
    out.detectedMessages = s.wDetectedMessages;
    out.trueDetections = s.wTrueDetections;
    out.falseDetections = s.wFalseDetections;
    out.detectionRate = s.detectionRate();
    out.acceptedFlitRate =
        s.acceptedFlitRate(network_->now(), network_->numNodes());
    out.offeredFlitRate = config_.flitRate;
    out.generatedFlitRate =
        s.generatedFlitRate(network_->now(), network_->numNodes());
    out.avgLatency = s.latency.mean();
    out.p50Latency = s.latencyHist.quantile(0.50);
    out.p95Latency = s.latencyHist.quantile(0.95);
    out.p99Latency = s.latencyHist.quantile(0.99);
    out.recoveredDeliveries = s.wRecoveredDeliveries;
    out.kills = s.wKills;
    out.trueDeadlockedMessages = s.trueDeadlockedMessages;
    out.faultsInjected = s.faultsInjected;
    out.faultsRepaired = s.faultsRepaired;
    out.faultKills = s.faultKills;
    out.faultReroutes = s.faultReroutes;
    out.abandoned = s.abandoned;
    out.ctrlFlits = s.windowCtrlFlits();
    out.ctrlFlitHops = s.windowCtrlFlitHops();
    out.ctrlBytes = s.windowCtrlBytes();
    out.avgDetectionLatency = s.detectionLatency.count() > 0
                                  ? s.detectionLatency.mean()
                                  : 0.0;
    return out;
}

std::string
SimSummary::toString() const
{
    std::ostringstream os;
    os << "measured cycles:        " << measuredCycles << '\n'
       << "messages delivered:     " << delivered << '\n'
       << "detected as deadlocked: " << detectedMessages << " ("
       << detectionRate * 100.0 << " %)\n"
       << "  oracle-confirmed:     " << trueDetections << '\n'
       << "  false positives:      " << falseDetections << '\n'
       << "offered load:           " << offeredFlitRate
       << " flits/cycle/node\n"
       << "accepted throughput:    " << acceptedFlitRate
       << " flits/cycle/node\n"
       << "mean latency:           " << avgLatency << " cycles\n"
       << "latency p50/p95/p99:    " << p50Latency << " / "
       << p95Latency << " / " << p99Latency << " cycles\n"
       << "recovered deliveries:   " << recoveredDeliveries << '\n'
       << "regressive kills:       " << kills << '\n';
    if (faultsInjected > 0) {
        os << "faults injected:        " << faultsInjected
           << " (repaired " << faultsRepaired << ")\n"
           << "fault kills/reroutes:   " << faultKills << " / "
           << faultReroutes << '\n'
           << "messages abandoned:     " << abandoned << '\n';
    }
    if (ctrlFlits > 0) {
        os << "control flits:          " << ctrlFlits << " ("
           << ctrlFlitHops << " flit-hops, " << ctrlBytes
           << " bytes)\n";
    }
    if (avgDetectionLatency > 0.0) {
        os << "mean detection latency: " << avgDetectionLatency
           << " cycles\n";
    }
    return os.str();
}

} // namespace wormnet
