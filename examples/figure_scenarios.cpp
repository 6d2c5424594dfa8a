/**
 * @file
 * Narrated walk-through of the paper's worked examples (Figures 2-4)
 * on a 13-node ring with one virtual channel, printing the state of
 * the detection hardware as the scenario unfolds:
 *
 *  - Figure 2: messages B, C, D pile up behind the advancing message
 *    A. Only B (which watched A advance) holds a Generate flag; no
 *    deadlock is detected because A keeps the channel active.
 *  - Figure 3: A drains away; E takes over its channel and later
 *    blocks on D's worm, closing a true deadlock.
 *  - Figure 4: the Generate holders exceed threshold t2 and trigger
 *    recovery; the deadlock dissolves and every message arrives.
 *
 * Run with --t2 <cycles> to change the detection threshold and
 * --trace to dump the full event trace at the end.
 */

#include <cstdio>
#include <memory>

#include "common/config.hh"
#include "detection/ndm.hh"
#include "recovery/progressive.hh"
#include "routing/routing.hh"
#include "sim/network.hh"
#include "sim/oracle.hh"
#include "sim/trace.hh"
#include "topology/torus.hh"
#include "traffic/length.hh"
#include "traffic/pattern.hh"

namespace
{

using namespace wormnet;

void
printStatus(Network &net, NdmDetector &det,
            const std::vector<std::pair<char, MsgId>> &msgs)
{
    std::printf("  cycle %-5llu ",
                static_cast<unsigned long long>(net.now()));
    for (const auto &[name, id] : msgs) {
        const Message &m = net.messages().get(id);
        const char *state = "queued ";
        char flag = '-';
        switch (m.status) {
          case MsgStatus::Queued:
            state = "queued ";
            break;
          case MsgStatus::Active:
            state = "active ";
            break;
          case MsgStatus::Recovering:
            state = "recover";
            break;
          case MsgStatus::Delivered:
            state = "done   ";
            break;
          case MsgStatus::Killed:
            state = "killed ";
            break;
          case MsgStatus::Abandoned:
            state = "abandon";
            break;
        }
        if (m.status == MsgStatus::Active && m.numLinks() > 0) {
            const PathLink head = m.headLink();
            const InputVc &vc =
                net.inputVc(head.node, head.port, head.vc);
            if (vc.attempted && !vc.routed) {
                state = "BLOCKED";
                flag = det.gpFlag(head.node, head.port) ? 'G' : 'P';
            }
        }
        std::printf("%c:%s/%c  ", name, state, flag);
    }
    const auto deadlocked = findDeadlockedMessages(net);
    std::printf("deadlocked=%zu\n", deadlocked.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cli = Config::parseArgs(argc - 1, argv + 1);
    const Cycle t2 = cli.getUint("t2", 32);

    KAryNCube topo(13, 1);
    UniformPattern pattern(topo);
    FixedLength lengths(16);

    NetworkParams np;
    np.vcs = 1;
    np.bufDepth = 4;
    np.injPorts = 1;
    np.ejePorts = 1;
    np.injectionLimit = false;
    np.selection = VcSelection::FirstFit;
    np.oraclePeriod = 0;

    RouterParams rp;
    rp.netPorts = topo.numNetPorts();
    rp.injPorts = np.injPorts;
    rp.ejePorts = np.ejePorts;
    rp.vcs = np.vcs;
    rp.bufDepth = np.bufDepth;
    TrueFullyAdaptiveRouting routing(topo, rp);

    NdmDetector det(
        NdmParams{1, t2, GpRearmPolicy::WaitersOnChannel});
    ProgressiveRecovery rec(ProgressiveParams{});

    Network net(topo, np, routing, det, &rec, pattern, lengths, 0.0,
                1);
    Tracer tracer;
    net.attachTracer(&tracer);

    std::printf("Paper figures walk-through on a 13-node ring "
                "(1 VC, NDM t1=1, t2=%llu)\n\n",
                static_cast<unsigned long long>(t2));

    std::printf("Figure 2: building the blocked tree behind the "
                "advancing message A\n");
    std::vector<std::pair<char, MsgId>> msgs;
    const MsgId a = net.injectMessage(4, 8, 150);
    msgs.push_back({'A', a});
    net.run(6);
    const MsgId b = net.injectMessage(3, 7, 24);
    msgs.push_back({'B', b});
    net.run(25);
    printStatus(net, det, msgs);
    const MsgId c = net.injectMessage(2, 4, 24);
    msgs.push_back({'C', c});
    net.run(20);
    const MsgId d = net.injectMessage(10, 3, 24);
    msgs.push_back({'D', d});
    net.run(20);
    printStatus(net, det, msgs);
    std::printf("  -> B holds G (it watched A advance); C and D "
                "hold P (their\n"
                "     predecessors were already blocked). No "
                "detection: A keeps\n"
                "     B's requested channel active.\n\n");

    std::printf("Figure 3: E parks at node 5, takes over A's "
                "channel when A\n"
                "drains, then blocks on D's worm -- the cycle "
                "closes\n");
    const MsgId e = net.injectMessage(5, 11, 24);
    msgs.push_back({'E', e});
    net.run(120);
    printStatus(net, det, msgs);
    net.run(60);
    printStatus(net, det, msgs);
    std::printf("  -> A delivered; B, C, D, E now form a true "
                "deadlock. B (and C,\n"
                "     re-armed when B briefly advanced) hold G; "
                "D and E hold P.\n\n");

    std::printf("Figure 4: the Generate holders exceed t2 and "
                "trigger recovery\n");
    for (int i = 0; i < 6; ++i) {
        net.run(120);
        printStatus(net, det, msgs);
    }

    const SimStats &s = net.stats();
    std::printf("\nsummary: %llu detections, %llu recovered "
                "deliveries, %llu delivered in total\n",
                static_cast<unsigned long long>(s.detections),
                static_cast<unsigned long long>(
                    s.recoveredDeliveries),
                static_cast<unsigned long long>(s.delivered));

    if (cli.getBool("trace", false))
        std::printf("\nevent trace:\n%s", tracer.toString().c_str());
    return 0;
}
