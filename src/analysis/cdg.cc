#include "analysis/cdg.hh"

#include <algorithm>
#include <sstream>

#include "common/contracts.hh"
#include "common/log.hh"

namespace wormnet
{

namespace
{

/** Strongly connected components (iterative Tarjan). */
struct SccResult
{
    /** Component id per vertex; -1 for vertices not in @p active. */
    std::vector<std::int32_t> comp;
    /** Per component: non-trivial (size > 1) or has a self-loop. */
    std::vector<std::uint8_t> cyclic;
    std::size_t count = 0;
    std::size_t cyclicCount = 0;
    std::size_t largest = 0;
};

SccResult
tarjanScc(std::size_t n,
          const std::vector<std::vector<ChanId>> &succ,
          const std::vector<std::uint8_t> &active)
{
    constexpr std::uint32_t kUnvisited =
        std::numeric_limits<std::uint32_t>::max();

    SccResult res;
    res.comp.assign(n, -1);

    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> low(n, 0);
    std::vector<std::uint8_t> onStack(n, 0);
    std::vector<ChanId> stack;
    std::uint32_t next = 0;

    struct Frame
    {
        ChanId v;
        std::size_t child;
    };
    std::vector<Frame> dfs;

    std::vector<std::size_t> compSize;

    for (std::size_t root = 0; root < n; ++root) {
        if (!active[root] || index[root] != kUnvisited)
            continue;
        dfs.push_back({static_cast<ChanId>(root), 0});
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            const ChanId v = f.v;
            if (f.child == 0) {
                index[v] = low[v] = next++;
                stack.push_back(v);
                onStack[v] = 1;
            }
            bool descended = false;
            while (f.child < succ[v].size()) {
                const ChanId w = succ[v][f.child++];
                if (!active[w])
                    continue;
                if (index[w] == kUnvisited) {
                    dfs.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (onStack[w])
                    low[v] = std::min(low[v], index[w]);
            }
            if (descended)
                continue;
            if (low[v] == index[v]) {
                const auto id =
                    static_cast<std::int32_t>(res.count++);
                std::size_t size = 0;
                ChanId w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    onStack[w] = 0;
                    res.comp[w] = id;
                    ++size;
                } while (w != v);
                compSize.push_back(size);
            }
            dfs.pop_back();
            if (!dfs.empty()) {
                Frame &parent = dfs.back();
                low[parent.v] = std::min(low[parent.v], low[v]);
            }
        }
    }

    res.cyclic.assign(res.count, 0);
    for (std::size_t i = 0; i < res.count; ++i) {
        if (compSize[i] > 1)
            res.cyclic[i] = 1;
        res.largest = std::max(res.largest, compSize[i]);
    }
    // Self-loops make a singleton component cyclic.
    for (std::size_t v = 0; v < n; ++v) {
        if (!active[v])
            continue;
        for (ChanId w : succ[v]) {
            if (w == static_cast<ChanId>(v)) {
                res.cyclic[static_cast<std::size_t>(res.comp[v])] = 1;
                break;
            }
        }
    }
    for (std::size_t i = 0; i < res.count; ++i)
        if (res.cyclic[i])
            ++res.cyclicCount;
    return res;
}

/** JSON string escaping for the report emitter. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += ch;
        }
    }
    return out;
}

/** Dimension letter for human-readable channel names. */
char
dimLetter(unsigned dim)
{
    static constexpr char kNames[] = {'x', 'y', 'z', 'w'};
    return dim < 4 ? kNames[dim] : '?';
}

} // namespace

std::string
toString(CdgVerdict verdict)
{
    switch (verdict) {
    case CdgVerdict::DeadlockFree:
        return "deadlock-free";
    case CdgVerdict::DeadlockFreeEscape:
        return "deadlock-free-via-escape";
    case CdgVerdict::CyclicDependencies:
        return "cyclic-dependencies";
    }
    panic("unhandled CdgVerdict");
}

CdgFaults
resolveFaults(const Topology &topo, const RouterParams &params,
              const FaultParams &faults)
{
    CdgFaults out;
    if (faults.linkRate > 0.0)
        warn("static analysis ignores stochastic 'rate:' faults "
             "(no fixed fault set to analyze)");
    if (faults.repairDelay > 0)
        warn("static analysis ignores fault repair: the question "
             "asked is \"can the network deadlock while the "
             "scheduled faults are active\"");
    if (faults.schedule.empty())
        return out;

    const NodeId n = topo.numNodes();
    out.faultyOut.assign(n, 0);
    out.faultyRouter.assign(n, 0);

    const auto failLink = [&](NodeId src, NodeId dst) {
        for (unsigned d = 0; d < topo.numDims(); ++d) {
            for (bool positive : {true, false}) {
                if (topo.neighbor(src, d, positive) == dst) {
                    out.faultyOut[src] |=
                        PortMask(1) << Topology::outPort(d, positive);
                    return true;
                }
            }
        }
        return false;
    };

    for (const ScheduledFault &f : faults.schedule) {
        if (f.kind == ScheduledFault::Kind::Router) {
            if (f.node >= n)
                fatal("fault spec names router ", f.node,
                      " outside the ", n, "-node topology");
            out.faultyRouter[f.node] = 1;
            // A dead router takes every incident link with it.
            for (unsigned d = 0; d < topo.numDims(); ++d) {
                for (bool positive : {true, false}) {
                    const NodeId peer =
                        topo.neighbor(f.node, d, positive);
                    if (peer == kInvalidNode)
                        continue;
                    out.faultyOut[f.node] |=
                        PortMask(1) << Topology::outPort(d, positive);
                    failLink(peer, f.node);
                }
            }
            continue;
        }
        if (f.node >= n || f.peer >= n || !failLink(f.node, f.peer))
            fatal("fault spec names link ", f.node, ">", f.peer,
                  " which does not exist in ", topo.name());
    }
    (void)params;
    return out;
}

ChannelDepGraph::ChannelDepGraph(const Topology &topo,
                                 const RoutingFunction &routing,
                                 const RouterParams &params,
                                 CdgFaults faults)
    : topo_(topo), routing_(routing), params_(params),
      faults_(std::move(faults))
{
    WORMNET_ASSERT(params_.netPorts == topo_.numNetPorts());
    netPorts_ = params_.netPorts;
    vcs_ = params_.vcs;
    escapeVcs_ = std::min(routing_.escapeVcCount(), vcs_);

    build();
    computeSccs();
    escapeAnalysis();
    findWitnesses();

    report_.verdict = CdgVerdict::CyclicDependencies;
    if (report_.cyclicSccCount == 0)
        report_.verdict = CdgVerdict::DeadlockFree;
    else if (report_.escapeDistinct && report_.escapeConnected &&
             report_.escapeAcyclic)
        report_.verdict = CdgVerdict::DeadlockFreeEscape;
}

ChanId
ChannelDepGraph::channelId(NodeId node, PortId in_port, VcId vc) const
{
    if (node >= topo_.numNodes() || in_port >= netPorts_ ||
        vc >= vcs_)
        return kInvalidChan;
    const ChanId c = static_cast<ChanId>(
        (static_cast<std::size_t>(node) * netPorts_ + in_port) *
            vcs_ +
        vc);
    return exists_[c] ? c : kInvalidChan;
}

ChanId
ChannelDepGraph::channelFromOutput(NodeId node, PortId out_port,
                                   VcId vc) const
{
    if (node >= topo_.numNodes() || out_port >= netPorts_)
        return kInvalidChan;
    const NodeId down =
        topo_.neighbor(node, Topology::dimOfPort(out_port),
                       Topology::isPositivePort(out_port));
    if (down == kInvalidNode)
        return kInvalidChan;
    return channelId(down, Topology::peerInPort(out_port), vc);
}

NodeId
ChannelDepGraph::upstreamOf(NodeId node, PortId in_port) const
{
    // Input ports are named after the direction the link came from,
    // so the upstream router lies in that same direction.
    return topo_.neighbor(node, Topology::dimOfPort(in_port),
                          Topology::isPositivePort(in_port));
}

bool
ChannelDepGraph::linkFaulty(NodeId node, PortId out_port) const
{
    return !faults_.faultyOut.empty() &&
           ((faults_.faultyOut[node] >> out_port) & 1u) != 0;
}

bool
ChannelDepGraph::routerFaulty(NodeId node) const
{
    return !faults_.faultyRouter.empty() &&
           faults_.faultyRouter[node] != 0;
}

void
ChannelDepGraph::build()
{
    const NodeId n = topo_.numNodes();
    const std::size_t space =
        static_cast<std::size_t>(n) * netPorts_ * vcs_;

    exists_.assign(space, 0);
    for (NodeId node = 0; node < n; ++node) {
        if (routerFaulty(node))
            continue;
        for (PortId ip = 0; ip < netPorts_; ++ip) {
            const NodeId up = upstreamOf(node, ip);
            if (up == kInvalidNode || routerFaulty(up))
                continue;
            // The link enters through `ip`; upstream drives it from
            // the opposite direction port of the same dimension.
            const PortId op = Topology::peerInPort(ip);
            if (linkFaulty(up, op))
                continue;
            for (VcId v = 0; v < vcs_; ++v) {
                const std::size_t c =
                    (static_cast<std::size_t>(node) * netPorts_ +
                     ip) *
                        vcs_ +
                    v;
                exists_[c] = 1;
                ++report_.channels;
            }
        }
    }

    reachable_.assign(space, 0);
    succ_.assign(space, {});
    report_.escapeVcs = escapeVcs_;
    report_.escapeDistinct = escapeVcs_ < vcs_;

    if (report_.escapeDistinct)
        escSucc_.assign(space, {});

    // Per-destination scratch, epoch-stamped with the destination id.
    std::vector<NodeId> mark(space, kInvalidNode);
    std::vector<ChanId> stack;
    std::vector<ChanId> visitedList;
    std::vector<std::pair<ChanId, ChanId>> localEdges;
    std::vector<RouteCandidate> cands;

    // A successor list holds at most one channel per output VC, so
    // a linear find dedupes it and keeps the first-seen order.
    const auto addEdge = [&](ChanId c1, ChanId c2) {
        localEdges.emplace_back(c1, c2);
        std::vector<ChanId> &out = succ_[c1];
        if (std::find(out.begin(), out.end(), c2) == out.end()) {
            out.push_back(c2);
            ++report_.edges;
        }
    };

    for (NodeId dst = 0; dst < n; ++dst) {
        if (routerFaulty(dst))
            continue;
        stack.clear();
        visitedList.clear();
        localEdges.clear();

        // Expand one (channel-or-injection, dst) state: route, filter
        // faults, record dependency edges and newly reached channels.
        // `from` is kInvalidChan for injection states.
        const auto expand = [&](NodeId at, PortId in_port, VcId in_vc,
                                ChanId from) {
            routing_.route(at, dst, in_port, in_vc, cands);
            bool anyLive = false;
            bool anyEscape = false;
            for (const RouteCandidate &cand : cands) {
                if (linkFaulty(at, cand.port))
                    continue;
                for (VcId v = 0; v < vcs_; ++v) {
                    if (!((cand.vcMask >> v) & 1u))
                        continue;
                    const ChanId c2 =
                        channelFromOutput(at, cand.port, v);
                    if (c2 == kInvalidChan)
                        continue;
                    anyLive = true;
                    if (v < escapeVcs_)
                        anyEscape = true;
                    if (from != kInvalidChan)
                        addEdge(from, c2);
                    if (mark[c2] != dst) {
                        mark[c2] = dst;
                        visitedList.push_back(c2);
                        stack.push_back(c2);
                    }
                }
            }
            // Duato escape connectivity: every reachable blocked
            // state must offer an escape candidate. States whose
            // candidates are all faulted are excluded — the
            // simulator kills such worms, so they cannot deadlock.
            if (anyLive && !anyEscape)
                report_.escapeConnected = false;
        };

        for (NodeId src = 0; src < n; ++src) {
            if (src == dst || routerFaulty(src))
                continue;
            // All injection ports share one routing view; VC 0 is
            // representative (header sits in an injection buffer).
            expand(src, static_cast<PortId>(netPorts_), 0,
                   kInvalidChan);
        }

        while (!stack.empty()) {
            const ChanId c = stack.back();
            stack.pop_back();
            reachable_[c] = 1;
            const NodeId at = static_cast<NodeId>(
                c / (static_cast<std::size_t>(netPorts_) * vcs_));
            if (at == dst)
                continue; // drains into ejection, no dependencies
            const PortId ip =
                static_cast<PortId>((c / vcs_) % netPorts_);
            const VcId v = static_cast<VcId>(c % vcs_);
            expand(at, ip, v, c);
        }

        if (report_.escapeDistinct) {
            // Extend the escape CDG for this destination: direct
            // escape->escape dependencies, plus indirect ones routed
            // through adaptive channels (Duato's extended graph).
            // FirstEscape[x] = escape channels reachable from
            // adaptive channel x through adaptive channels only;
            // computed bottom-up over the adaptive condensation.
            std::vector<std::vector<ChanId>> localSucc(space);
            std::vector<std::uint8_t> adaptive(space, 0);
            for (const auto &[a, b] : localEdges)
                localSucc[a].push_back(b);
            for (ChanId c : visitedList)
                if (static_cast<VcId>(c % vcs_) >= escapeVcs_)
                    adaptive[c] = 1;

            SccResult asc = tarjanScc(space, localSucc, adaptive);
            // Tarjan emits components in reverse topological order,
            // so successors' sets are final before predecessors'.
            std::vector<std::vector<ChanId>> firstEscape(asc.count);
            const auto mergeInto = [](std::vector<ChanId> &dstSet,
                                      const std::vector<ChanId>
                                          &srcSet) {
                dstSet.insert(dstSet.end(), srcSet.begin(),
                              srcSet.end());
            };
            std::vector<std::vector<ChanId>> members(asc.count);
            for (ChanId c : visitedList)
                if (adaptive[c])
                    members[static_cast<std::size_t>(asc.comp[c])]
                        .push_back(c);
            for (std::size_t comp = 0; comp < asc.count; ++comp) {
                auto &fe = firstEscape[comp];
                for (ChanId m : members[comp]) {
                    for (ChanId s : localSucc[m]) {
                        if (static_cast<VcId>(s % vcs_) <
                            escapeVcs_) {
                            fe.push_back(s);
                        } else if (asc.comp[s] !=
                                   static_cast<std::int32_t>(comp)) {
                            mergeInto(fe,
                                      firstEscape[static_cast<
                                          std::size_t>(
                                          asc.comp[s])]);
                        }
                    }
                }
                std::sort(fe.begin(), fe.end());
                fe.erase(std::unique(fe.begin(), fe.end()),
                         fe.end());
            }

            const auto addEscEdge = [&](ChanId e1, ChanId e2) {
                std::vector<ChanId> &out = escSucc_[e1];
                if (std::find(out.begin(), out.end(), e2) ==
                    out.end()) {
                    out.push_back(e2);
                    ++report_.escapeEdges;
                }
            };
            for (ChanId e : visitedList) {
                if (static_cast<VcId>(e % vcs_) >= escapeVcs_)
                    continue;
                for (ChanId s : localSucc[e]) {
                    if (static_cast<VcId>(s % vcs_) < escapeVcs_) {
                        addEscEdge(e, s);
                    } else {
                        for (ChanId t : firstEscape[static_cast<
                                 std::size_t>(asc.comp[s])])
                            addEscEdge(e, t);
                    }
                }
            }
        }
    }

    for (std::size_t c = 0; c < space; ++c) {
        if (reachable_[c])
            ++report_.reachable;
        std::sort(succ_[c].begin(), succ_[c].end());
    }
}

void
ChannelDepGraph::computeSccs()
{
    const std::size_t space = exists_.size();
    SccResult scc = tarjanScc(space, succ_, reachable_);
    sccOf_ = std::move(scc.comp);
    sccCyclic_ = std::move(scc.cyclic);
    report_.sccCount = scc.count;
    report_.cyclicSccCount = scc.cyclicCount;
    report_.largestScc = scc.largest;

    inCycle_.assign(space, 0);
    for (std::size_t c = 0; c < space; ++c)
        if (reachable_[c] &&
            sccCyclic_[static_cast<std::size_t>(sccOf_[c])])
            inCycle_[c] = 1;

    // reachesCycle = backward closure of the cyclic channels.
    std::vector<std::vector<ChanId>> pred(space);
    for (std::size_t c = 0; c < space; ++c)
        for (ChanId s : succ_[c])
            pred[s].push_back(static_cast<ChanId>(c));
    reachesCycle_.assign(space, 0);
    std::vector<ChanId> work;
    for (std::size_t c = 0; c < space; ++c) {
        if (inCycle_[c]) {
            reachesCycle_[c] = 1;
            work.push_back(static_cast<ChanId>(c));
        }
    }
    while (!work.empty()) {
        const ChanId c = work.back();
        work.pop_back();
        for (ChanId p : pred[c]) {
            if (!reachesCycle_[p]) {
                reachesCycle_[p] = 1;
                work.push_back(p);
            }
        }
    }
}

void
ChannelDepGraph::escapeAnalysis()
{
    if (!report_.escapeDistinct) {
        // The routing relation is its own escape subfunction; the
        // Duato condition degenerates to plain CDG acyclicity.
        report_.escapeAcyclic = report_.cyclicSccCount == 0;
        return;
    }
    const std::size_t space = exists_.size();
    std::vector<std::uint8_t> isEscape(space, 0);
    for (std::size_t c = 0; c < space; ++c)
        if (reachable_[c] &&
            static_cast<VcId>(c % vcs_) < escapeVcs_)
            isEscape[c] = 1;
    SccResult scc = tarjanScc(space, escSucc_, isEscape);
    report_.escapeAcyclic = scc.cyclicCount == 0;
    if (!report_.escapeAcyclic)
        report_.escapeWitness =
            shortestCycle(escSucc_, scc.comp, scc.cyclic);
}

void
ChannelDepGraph::findWitnesses()
{
    if (report_.cyclicSccCount > 0)
        report_.witness = shortestCycle(succ_, sccOf_, sccCyclic_);
}

std::vector<ChanId>
ChannelDepGraph::shortestCycle(
    const std::vector<std::vector<ChanId>> &succ,
    const std::vector<std::int32_t> &scc_of,
    const std::vector<std::uint8_t> &scc_cyclic) const
{
    const std::size_t space = succ.size();
    constexpr std::uint32_t kInf =
        std::numeric_limits<std::uint32_t>::max();

    std::vector<std::uint32_t> dist(space, kInf);
    std::vector<ChanId> parent(space, kInvalidChan);
    std::vector<ChanId> touched;
    std::vector<ChanId> queue;

    std::vector<ChanId> best;
    std::size_t bestLen = std::numeric_limits<std::size_t>::max();

    const auto inCyclicScc = [&](ChanId c) {
        return scc_of[c] >= 0 &&
               scc_cyclic[static_cast<std::size_t>(scc_of[c])];
    };

    for (std::size_t s = 0; s < space; ++s) {
        if (!inCyclicScc(static_cast<ChanId>(s)))
            continue;
        // BFS inside s's SCC; the shortest cycle through s closes
        // with an edge back to s.
        for (ChanId t : touched) {
            dist[t] = kInf;
            parent[t] = kInvalidChan;
        }
        touched.clear();
        queue.clear();

        const ChanId start = static_cast<ChanId>(s);
        dist[start] = 0;
        touched.push_back(start);
        queue.push_back(start);
        std::size_t head = 0;
        ChanId closer = kInvalidChan;
        while (head < queue.size() && closer == kInvalidChan) {
            const ChanId v = queue[head++];
            if (static_cast<std::size_t>(dist[v]) + 1 >= bestLen)
                break; // cannot beat the best cycle found so far
            for (ChanId w : succ[v]) {
                if (w == start) {
                    closer = v;
                    break;
                }
                if (scc_of[w] != scc_of[start] || dist[w] != kInf)
                    continue;
                dist[w] = dist[v] + 1;
                parent[w] = v;
                touched.push_back(w);
                queue.push_back(w);
            }
        }
        if (closer == kInvalidChan)
            continue;
        std::vector<ChanId> cycle;
        for (ChanId v = closer; v != kInvalidChan; v = parent[v])
            cycle.push_back(v);
        std::reverse(cycle.begin(), cycle.end());
        if (cycle.size() < bestLen) {
            bestLen = cycle.size();
            best = std::move(cycle);
            if (bestLen == 1)
                break; // a self-loop cannot be beaten
        }
    }
    return best;
}

std::string
ChannelDepGraph::describe(ChanId c) const
{
    const NodeId node = static_cast<NodeId>(
        c / (static_cast<std::size_t>(netPorts_) * vcs_));
    const PortId ip = static_cast<PortId>((c / vcs_) % netPorts_);
    const VcId v = static_cast<VcId>(c % vcs_);
    const NodeId up = upstreamOf(node, ip);

    const auto coords = [&](NodeId x) {
        std::ostringstream os;
        os << '(';
        for (unsigned d = 0; d < topo_.numDims(); ++d)
            os << (d ? "," : "") << topo_.coordinate(x, d);
        os << ')';
        return os.str();
    };

    std::ostringstream os;
    os << coords(up) << " -" << dimLetter(Topology::dimOfPort(ip))
       << (Topology::isPositivePort(ip) ? '-' : '+') << "-> "
       << coords(node) << " vc" << unsigned(v);
    return os.str();
}

std::string
ChannelDepGraph::toDot(bool cyclic_only) const
{
    std::ostringstream os;
    os << "digraph cdg {\n"
       << "  rankdir=LR;\n"
       << "  node [shape=box, fontname=\"monospace\", "
          "fontsize=10];\n";

    std::vector<std::uint64_t> witnessEdges;
    const std::size_t space = exists_.size();
    const auto &w = report_.witness;
    for (std::size_t i = 0; i < w.size(); ++i)
        witnessEdges.push_back(static_cast<std::uint64_t>(w[i]) *
                                   space +
                               w[(i + 1) % w.size()]);
    std::sort(witnessEdges.begin(), witnessEdges.end());

    const auto emitVertex = [&](ChanId c) {
        os << "  c" << c << " [label=\"" << describe(c) << '"';
        if (inCycle(c))
            os << ", color=red";
        if (static_cast<VcId>(c % vcs_) < escapeVcs_ &&
            report_.escapeDistinct)
            os << ", style=bold";
        os << "];\n";
    };

    for (std::size_t c = 0; c < space; ++c) {
        if (!reachable_[c])
            continue;
        if (cyclic_only && !inCycle_[c])
            continue;
        emitVertex(static_cast<ChanId>(c));
        for (ChanId s : succ_[c]) {
            if (cyclic_only && !inCycle_[s])
                continue;
            os << "  c" << c << " -> c" << s;
            if (std::binary_search(
                    witnessEdges.begin(), witnessEdges.end(),
                    static_cast<std::uint64_t>(c) * space + s))
                os << " [color=red, penwidth=2]";
            os << ";\n";
        }
    }
    os << "}\n";
    return os.str();
}

std::string
ChannelDepGraph::toJson(
    const std::vector<std::pair<std::string, std::string>> &config)
    const
{
    std::ostringstream os;
    os << "{\n  \"config\": {";
    for (std::size_t i = 0; i < config.size(); ++i) {
        os << (i ? ", " : "") << '"' << jsonEscape(config[i].first)
           << "\": \"" << jsonEscape(config[i].second) << '"';
    }
    os << "},\n";
    os << "  \"verdict\": \"" << toString(report_.verdict)
       << "\",\n";
    os << "  \"graph\": {\"channels\": " << report_.channels
       << ", \"reachable\": " << report_.reachable
       << ", \"edges\": " << report_.edges << "},\n";
    os << "  \"sccs\": {\"count\": " << report_.sccCount
       << ", \"cyclic\": " << report_.cyclicSccCount
       << ", \"largest\": " << report_.largestScc << "},\n";
    os << "  \"escape\": {\"vcs\": " << report_.escapeVcs
       << ", \"distinct\": "
       << (report_.escapeDistinct ? "true" : "false")
       << ", \"connected\": "
       << (report_.escapeConnected ? "true" : "false")
       << ", \"acyclic\": "
       << (report_.escapeAcyclic ? "true" : "false")
       << ", \"edges\": " << report_.escapeEdges << "},\n";

    const auto emitCycle = [&](const char *key,
                               const std::vector<ChanId> &cycle,
                               bool last) {
        os << "  \"" << key << "\": [";
        for (std::size_t i = 0; i < cycle.size(); ++i) {
            os << (i ? ", " : "") << "{\"id\": " << cycle[i]
               << ", \"channel\": \""
               << jsonEscape(describe(cycle[i])) << "\"}";
        }
        os << ']' << (last ? "\n" : ",\n");
    };
    emitCycle("witness", report_.witness, false);
    emitCycle("escape_witness", report_.escapeWitness, true);
    os << "}\n";
    return os.str();
}

} // namespace wormnet
