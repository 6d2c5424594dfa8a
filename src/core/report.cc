#include "core/report.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <vector>

#include "common/table.hh"

namespace wormnet
{

namespace
{

void
sectionHeader(std::ostringstream &os, const char *title)
{
    os << '\n' << title << '\n'
       << std::string(std::char_traits<char>::length(title), '-')
       << '\n';
}

} // namespace

std::string
buildReport(const Simulation &sim, const ReportOptions &options)
{
    const Network &net = sim.net();
    const SimStats &s = net.stats();
    const SimulationConfig &cfg = sim.config();
    const SimSummary sum = sim.summary();

    std::ostringstream os;
    os << std::fixed << std::setprecision(3);

    os << "wormnet run report\n==================\n";

    sectionHeader(os, "configuration");
    os << "topology:            " << sim.topology().name() << " ("
       << net.numNodes() << " nodes)\n"
       << "router:              " << cfg.vcs << " VCs/channel, "
       << cfg.bufDepth << "-flit buffers, " << cfg.injPorts
       << " inj / " << cfg.ejePorts << " eje ports\n"
       << "routing:             " << cfg.routing << '\n'
       << "detector:            " << cfg.detector << '\n'
       << "recovery:            " << cfg.recovery << '\n'
       << "traffic:             " << cfg.pattern << ", lengths "
       << cfg.lengths << ", " << cfg.flitRate
       << " flits/cycle/node\n"
       << "injection limit:     "
       << (cfg.injectionLimit
               ? "on (fraction " +
                     formatSig(cfg.injectionLimitFraction, 3) + ")"
               : std::string("off"))
       << '\n'
       << "seed:                " << cfg.seed << '\n';

    sectionHeader(os, "traffic and throughput");
    os << "measured cycles:     " << sum.measuredCycles << '\n'
       << "generated:           " << s.wGenerated << " messages\n"
       << "injected:            " << s.wInjected << '\n'
       << "delivered:           " << s.wDelivered << " ("
       << s.wFlitsDelivered << " flits)\n"
       << "offered load:        " << sum.offeredFlitRate
       << " flits/cycle/node (effective "
       << sum.generatedFlitRate << ")\n"
       << "accepted throughput: " << sum.acceptedFlitRate
       << " flits/cycle/node\n"
       << "source queues now:   " << net.totalQueued()
       << " messages\n"
       << "in flight now:       " << net.inFlight() << " messages\n";

    sectionHeader(os, "latency (cycles)");
    os << "mean:                " << s.latency.mean() << " (stddev "
       << s.latency.stddev() << ")\n"
       << "min/max:             " << s.latency.min() << " / "
       << s.latency.max() << '\n'
       << "p50 / p95 / p99:     " << sum.p50Latency << " / "
       << sum.p95Latency << " / " << sum.p99Latency << '\n';
    if (options.latencyHistogram && s.latencyHist.count() > 0) {
        os << "histogram (bucket " << s.latencyHist.bucketWidth()
           << " cycles):\n"
           << s.latencyHist.toString();
    }

    sectionHeader(os, "deadlock detection");
    os << "verdicts raised:     " << s.wDetectionEvents << '\n'
       << "messages marked:     " << s.wDetectedMessages << " ("
       << formatPercentPaperStyle(s.detectionRate())
       << " % of delivered)\n"
       << "oracle-confirmed:    " << s.wTrueDetections << '\n'
       << "false positives:     " << s.wFalseDetections << '\n'
       << "true deadlocked ever:" << ' ' << s.trueDeadlockedMessages
       << " messages\n"
       << "max persistence:     " << s.maxDeadlockPersistence
       << " cycles\n";
    if (s.detectionLatency.count() > 0) {
        os << "detection latency:   " << s.detectionLatency.mean()
           << " cycles mean over " << s.detectionLatency.count()
           << " true detections\n";
    }

    sectionHeader(os, "recovery");
    os << "recovered deliveries:" << ' ' << s.wRecoveredDeliveries
       << '\n'
       << "regressive kills:    " << s.wKills << '\n';

    if (const FaultModel *fm = net.faultModel()) {
        sectionHeader(os, "faults");
        os << "spec:                " << cfg.faults << '\n'
           << "injected / repaired: " << s.faultsInjected << " / "
           << s.faultsRepaired << '\n'
           << "active links down:   " << fm->activeLinkFaults()
           << '\n'
           << "active routers down: " << fm->activeRouterFaults()
           << '\n'
           << "stranded kills:      " << s.faultKills << " ("
           << s.faultFlitsDropped << " flits dropped)\n"
           << "heads rerouted:      " << s.faultReroutes << '\n'
           << "messages abandoned:  " << s.abandoned << '\n';
    }

    sectionHeader(os, "channel utilisation (flits/cycle)");
    const RunningStat util = net.utilizationSummary();
    os << "mean / max / min:    " << util.mean() << " / "
       << util.max() << " / " << util.min() << '\n';
    if (options.hottestChannels > 0) {
        struct Hot
        {
            double util;
            NodeId node;
            PortId port;
        };
        std::vector<Hot> hot;
        for (NodeId n = 0; n < net.numNodes(); ++n) {
            for (PortId q = 0; q < net.routerParams().netPorts;
                 ++q) {
                if (net.downstream(n, q).valid())
                    hot.push_back(
                        Hot{net.channelUtilization(n, q), n, q});
            }
        }
        std::partial_sort(
            hot.begin(),
            hot.begin() +
                std::min<std::size_t>(options.hottestChannels,
                                      hot.size()),
            hot.end(), [](const Hot &a, const Hot &b) {
                return a.util > b.util;
            });
        os << "hottest channels:\n";
        for (std::size_t i = 0;
             i < std::min<std::size_t>(options.hottestChannels,
                                       hot.size());
             ++i) {
            os << "  node " << hot[i].node << " dim "
               << Topology::dimOfPort(hot[i].port)
               << (Topology::isPositivePort(hot[i].port) ? '+' : '-')
               << ": " << hot[i].util << '\n';
        }
    }
    return os.str();
}

} // namespace wormnet
