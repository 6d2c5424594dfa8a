#include "sim/oracle.hh"

#include <algorithm>
#include <utility>

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
    /** Worms holding the candidates; before the fixpoint, each is
     *  replaced by its index in the blocked list. */
    std::vector<MsgId> holders;
    bool canAdvance = false;
};

} // namespace

std::vector<MsgId>
findDeadlockedMessages(const Network &net)
{
    std::vector<BlockedEntry> blocked;
    std::vector<RouteCandidate> cands;

    const Cycle now = net.now();
    const RouterParams &rp = net.routerParams();

    for (NodeId node = 0; node < net.numNodes(); ++node) {
        for (PortId p = 0; p < rp.numInPorts(); ++p) {
            for (VcId v = 0; v < rp.vcs; ++v) {
                const InputVc &vc = net.inputVc(node, p, v);
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
                            net.outputVc(node, cand.port, v2);
                        if (out.allocated()) {
                            entry.holders.push_back(out.msg);
                            continue;
                        }
                        if (net.downstreamVcFree(node, cand.port, v2)) {
                            entry.anyFree = true;
                            continue;
                        }
                        if (rp.isEjectionPort(cand.port)) {
                            // Unallocated ejection VC: consumable.
                            entry.anyFree = true;
                            continue;
                        }
                        // Deallocated but still draining: blocked on
                        // the worm whose tail is passing through.
                        const LinkEnd &down =
                            net.downstream(node, cand.port);
                        const InputVc &dvc =
                            net.inputVc(down.node, down.port, v2);
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
                blocked.push_back(std::move(entry));
            }
        }
    }

    // Resolve each holder to its blocked entry once, so the fixpoint
    // reads indices. A holder that is not blocked can advance, and
    // so can whatever waits on it.
    std::vector<std::pair<MsgId, MsgId>> index;
    index.reserve(blocked.size());
    for (std::size_t i = 0; i < blocked.size(); ++i)
        index.emplace_back(blocked[i].msg, static_cast<MsgId>(i));
    std::sort(index.begin(), index.end());
    for (auto &entry : blocked) {
        for (MsgId &h : entry.holders) {
            const auto it = std::lower_bound(
                index.begin(), index.end(), std::pair<MsgId, MsgId>(h, 0));
            if (it == index.end() || it->first != h) {
                entry.anyFree = true;
                break;
            }
            h = it->second;
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
                for (const MsgId i : entry.holders) {
                    if (blocked[i].canAdvance) {
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
