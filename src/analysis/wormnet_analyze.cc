/**
 * @file
 * wormnet-analyze: offline deadlock-freedom certification.
 *
 * Builds the static channel-dependency graph of a simulator
 * configuration (topology x routing x VCs x faults), decides
 * deadlock-freedom (plain acyclicity or Duato's escape condition),
 * and prints a human-readable report; optional DOT and JSON outputs.
 *
 * Exit status: 0 when the configuration is provably deadlock-free
 * (directly or via escape), 1 when cyclic dependencies remain
 * (deadlock possible), 2 on a configuration error.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/cdg.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "sim/reconfig.hh"

namespace
{

constexpr const char *kUsage = R"(wormnet-analyze: static channel-dependency-graph deadlock analysis

Usage: wormnet-analyze [--key value | --key=value]...

Configuration (same surface as the simulator):
  --topology <torus|mesh>   topology family          [torus]
  --radix <k>               nodes per dimension      [4]
  --dims <n>                dimensions               [2]
  --radices <k1xk2x...>     mixed-radix torus (overrides radix/dims)
  --vcs <n>                 virtual channels         [3]
  --inj-ports <n>           injection ports          [4]
  --eje-ports <n>           ejection ports           [4]
  --routing <name>          tfa|dor|duato|westfirst  [tfa]
  --faults <spec>           link:<a>><b>@<c>,router:<n>@<c>,...
  --reconfig <plan>         analyze every epoch of an online
                            reconfiguration plan instead of a single
                            configuration. Same grammar as the
                            simulator's --reconfig:
                            link-:<a>><b>@<c>, link+:<a>><b>@<c>,
                            router-:<n>@<c>, router+:<n>@<c>,
                            routing:<name>@<c> (comma-separated).
                            Scheduled --faults are folded into every
                            epoch. One verdict per epoch, plus the
                            pre-plan configuration.

Outputs:
  --json <path|->           write JSON report (- = stdout)
  --dot <path|->            write GraphViz DOT (- = stdout)
  --cyclic-only             restrict DOT to cyclic components
  --quiet                   suppress the human-readable report
  --help                    this text

Exit status: 0 deadlock-free (possibly via escape), 1 cyclic
dependencies (deadlock possible — with --reconfig: in ANY epoch),
2 configuration error.
)";

void
writeOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::cout << text;
        return;
    }
    std::ofstream os(path);
    if (!os)
        wormnet::fatal("cannot write '", path, "'");
    os << text;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wormnet;

    const Config cfg = Config::parseArgs(argc, argv);
    if (cfg.getBool("help", false)) {
        std::cout << kUsage;
        return 0;
    }

    try {
        const auto topo = makeTopology(
            cfg.getString("topology", "torus"),
            static_cast<unsigned>(cfg.getUint("radix", 4)),
            static_cast<unsigned>(cfg.getUint("dims", 2)),
            cfg.getString("radices", ""));

        RouterParams rp;
        rp.netPorts = topo->numNetPorts();
        rp.injPorts =
            static_cast<unsigned>(cfg.getUint("inj-ports", 4));
        rp.ejePorts =
            static_cast<unsigned>(cfg.getUint("eje-ports", 4));
        rp.vcs = static_cast<unsigned>(cfg.getUint("vcs", 3));
        rp.validate();

        const std::string routingName =
            cfg.getString("routing", "tfa");
        const auto routing =
            makeRoutingFunction(routingName, *topo, rp);

        CdgFaults faults;
        const std::string faultSpec = cfg.getString("faults", "");
        if (!faultSpec.empty())
            faults = resolveFaults(
                *topo, rp, FaultModel::parseSpec(faultSpec));

        if (cfg.has("reconfig")) {
            // Per-epoch what-if analysis of an online
            // reconfiguration plan (the exact computation the live
            // cross-check runs after each epoch).
            const auto epochs = analyzePlanStatic(
                ReconfigPlan::parse(cfg.getString("reconfig")),
                *topo, rp, routingName, faults);

            bool anyCyclic = false;
            if (!cfg.getBool("quiet", false)) {
                std::cout << "configuration:   " << topo->name()
                          << ", " << rp.vcs << " VCs"
                          << (faultSpec.empty()
                                  ? ""
                                  : ", faults " + faultSpec)
                          << "\nreconfig plan:   "
                          << cfg.getString("reconfig") << "\n\n";
                for (const EpochStaticResult &e : epochs) {
                    if (e.cycle == 0 && e.edits == 0)
                        std::cout << "  initial";
                    else
                        std::cout << "  epoch @" << e.cycle << " ("
                                  << e.edits << " edit"
                                  << (e.edits == 1 ? "" : "s")
                                  << ")";
                    std::cout << ": routing " << e.routing << ", "
                              << e.report.cyclicSccCount
                              << " cyclic SCC(s) -> "
                              << toString(e.report.verdict) << '\n';
                }
            }
            for (const EpochStaticResult &e : epochs)
                anyCyclic |= e.report.verdict ==
                             CdgVerdict::CyclicDependencies;
            if (!cfg.getBool("quiet", false))
                std::cout << "\nplan verdict:    "
                          << (anyCyclic
                                  ? "cyclic dependencies in at "
                                    "least one epoch"
                                  : "deadlock-free in every epoch")
                          << '\n';

            if (cfg.has("json")) {
                std::ostringstream os;
                os << "{\n  \"plan\": \""
                   << cfg.getString("reconfig")
                   << "\",\n  \"epochs\": [\n";
                for (std::size_t i = 0; i < epochs.size(); ++i) {
                    const EpochStaticResult &e = epochs[i];
                    os << "    {\"cycle\": " << e.cycle
                       << ", \"edits\": " << e.edits
                       << ", \"routing\": \"" << e.routing
                       << "\",\n     \"channels\": "
                       << e.report.channels
                       << ", \"reachable\": " << e.report.reachable
                       << ", \"edges\": " << e.report.edges
                       << ",\n     \"cyclic_sccs\": "
                       << e.report.cyclicSccCount
                       << ", \"verdict\": \""
                       << toString(e.report.verdict) << "\"}"
                       << (i + 1 < epochs.size() ? "," : "")
                       << '\n';
                }
                os << "  ],\n  \"any_cyclic\": "
                   << (anyCyclic ? "true" : "false") << "\n}\n";
                writeOutput(cfg.getString("json"), os.str());
            }
            return anyCyclic ? 1 : 0;
        }

        const ChannelDepGraph cdg(*topo, *routing, rp,
                                  std::move(faults));
        const CdgReport &r = cdg.report();

        if (!cfg.getBool("quiet", false)) {
            std::cout
                << "configuration:   " << topo->name() << ", "
                << routingName << " routing, " << rp.vcs
                << " VCs"
                << (faultSpec.empty() ? ""
                                      : ", faults " + faultSpec)
                << '\n'
                << "channels:        " << r.channels << " ("
                << r.reachable << " reachable)\n"
                << "dependencies:    " << r.edges << '\n'
                << "SCCs:            " << r.sccCount << " ("
                << r.cyclicSccCount << " cyclic, largest "
                << r.largestScc << ")\n";
            if (r.escapeDistinct) {
                std::cout
                    << "escape layer:    " << r.escapeVcs
                    << " VC(s), "
                    << (r.escapeConnected ? "connected"
                                          : "NOT connected")
                    << ", extended CDG "
                    << (r.escapeAcyclic ? "acyclic" : "CYCLIC")
                    << " (" << r.escapeEdges << " edges)\n";
            }
            std::cout << "verdict:         "
                      << toString(r.verdict) << '\n';
            const auto printCycle =
                [&](const char *what,
                    const std::vector<ChanId> &cycle) {
                    if (cycle.empty())
                        return;
                    std::cout << what << " (" << cycle.size()
                              << " channels):\n";
                    for (ChanId c : cycle)
                        std::cout << "    " << cdg.describe(c)
                                  << '\n';
                };
            switch (r.verdict) {
            case CdgVerdict::DeadlockFree:
                break;
            case CdgVerdict::DeadlockFreeEscape:
                printCycle("  adaptive-layer cycle (harmless)",
                           r.witness);
                break;
            case CdgVerdict::CyclicDependencies:
                printCycle("  minimal cyclic witness", r.witness);
                printCycle("  escape-layer cycle",
                           r.escapeWitness);
                break;
            }
        }

        if (cfg.has("json")) {
            std::vector<std::pair<std::string, std::string>> echo;
            echo.emplace_back("topology", topo->name());
            echo.emplace_back("routing", routingName);
            echo.emplace_back("vcs", std::to_string(rp.vcs));
            if (!faultSpec.empty())
                echo.emplace_back("faults", faultSpec);
            writeOutput(cfg.getString("json"), cdg.toJson(echo));
        }
        if (cfg.has("dot"))
            writeOutput(
                cfg.getString("dot"),
                cdg.toDot(cfg.getBool("cyclic-only", false)));

        return r.verdict == CdgVerdict::CyclicDependencies ? 1 : 0;
    } catch (const FatalError &e) {
        std::cerr << "wormnet-analyze: " << e.what() << '\n';
        return 2;
    }
}
