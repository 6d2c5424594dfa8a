#include "sim/oracle.hh"

#include <algorithm>
#include <unordered_map>

#include "common/log.hh"
#include "sim/network.hh"

namespace wormnet
{

namespace
{

/** A blocked head and what it is waiting on. */
struct BlockedEntry
{
    MsgId msg;
    bool anyFree = false;           ///< some candidate VC reusable now
    std::vector<MsgId> holders;     ///< worms holding the candidates
    bool canAdvance = false;
};

} // namespace

std::vector<MsgId>
findDeadlockedMessages(const Network &net)
{
    std::vector<BlockedEntry> blocked;
    std::unordered_map<MsgId, std::size_t> index;
    std::vector<RouteCandidate> cands;

    const Cycle now = net.now();
    const RouterParams &rp = net.routerParams();

    for (NodeId node = 0; node < net.numNodes(); ++node) {
        const Router &rt = net.router(node);
        for (PortId p = 0; p < rp.numInPorts(); ++p) {
            for (VcId v = 0; v < rp.vcs; ++v) {
                const InputVc &vc = rt.inputVc(p, v);
                if (vc.free() || vc.routed || vc.recovering ||
                    vc.buf.empty() || vc.buf.front != 0)
                    continue;
                if (!vc.buf.frontReady(now))
                    continue; // head in transit: still advancing

                BlockedEntry entry;
                entry.msg = vc.msg;
                const Message &m = net.messages().get(vc.msg);
                net.routing().route(node, m.dst, p, v, cands);
                bool any_live = false;
                for (const auto &cand : cands) {
                    if (net.portFaulty(node, cand.port))
                        continue; // dead link: never a way forward
                    any_live = true;
                    std::uint32_t mask = cand.vcMask;
                    while (mask) {
                        const VcId v2 = static_cast<VcId>(
                            __builtin_ctz(mask));
                        mask &= mask - 1;
                        const OutputVc &out =
                            rt.outputVc(cand.port, v2);
                        if (out.allocated()) {
                            entry.holders.push_back(out.msg);
                            continue;
                        }
                        if (net.downstreamVcFree(node, cand.port, v2)) {
                            entry.anyFree = true;
                            continue;
                        }
                        if (rt.isEjectionPort(cand.port)) {
                            // Unallocated ejection VC: consumable.
                            entry.anyFree = true;
                            continue;
                        }
                        // Deallocated but still draining: blocked on
                        // the worm whose tail is passing through.
                        const LinkEnd &down =
                            net.downstream(node, cand.port);
                        const InputVc &dvc =
                            net.router(down.node).inputVc(down.port,
                                                          v2);
                        if (dvc.free())
                            entry.anyFree = true;
                        else
                            entry.holders.push_back(dvc.msg);
                    }
                }
                if (!any_live) {
                    // Every candidate channel is faulted. The message
                    // is doomed, not deadlocked: the fault path will
                    // kill it this cycle, which frees its held
                    // channels — so for the fixpoint it behaves like
                    // a message that can advance.
                    entry.anyFree = true;
                }
                index.emplace(entry.msg, blocked.size());
                blocked.push_back(std::move(entry));
            }
        }
    }

    // Fixpoint: a blocked message can eventually advance if any
    // candidate is already reusable or held by a message that can.
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &entry : blocked) {
            if (entry.canAdvance)
                continue;
            bool ok = entry.anyFree;
            if (!ok) {
                for (const MsgId h : entry.holders) {
                    const auto it = index.find(h);
                    if (it == index.end() ||
                        blocked[it->second].canAdvance) {
                        ok = true;
                        break;
                    }
                }
            }
            if (ok) {
                entry.canAdvance = true;
                changed = true;
            }
        }
    }

    std::vector<MsgId> deadlocked;
    for (const auto &entry : blocked) {
        if (!entry.canAdvance)
            deadlocked.push_back(entry.msg);
    }
    std::sort(deadlocked.begin(), deadlocked.end());
    return deadlocked;
}

} // namespace wormnet
