#include "routing/routing.hh"

#include "common/contracts.hh"
#include "common/log.hh"

namespace wormnet
{

RoutingFunction::RoutingFunction(const Topology &topo,
                                 const RouterParams &params)
    : topo_(topo), params_(params)
{
    WORMNET_ASSERT(params.netPorts == topo.numNetPorts());
}

std::uint32_t
RoutingFunction::allVcsMask() const
{
    return ~std::uint32_t(0) >> (32 - params_.vcs);
}

void
RoutingFunction::route(NodeId current, NodeId dst, PortId in_port,
                       VcId in_vc,
                       std::vector<RouteCandidate> &out) const
{
    out.clear();
    if (current == dst) {
        // Consume locally: every ejection port, every VC.
        for (unsigned e = 0; e < params_.ejePorts; ++e) {
            out.push_back(RouteCandidate{
                static_cast<PortId>(params_.netPorts + e),
                allVcsMask()});
        }
        return;
    }
    networkCandidates(current, dst, in_port, in_vc, out);
    WORMNET_ASSERT(!out.empty(), " no route from ", current, " to ", dst);
}

void
TrueFullyAdaptiveRouting::networkCandidates(
    NodeId current, NodeId dst, PortId, VcId,
    std::vector<RouteCandidate> &out) const
{
    MinimalSteps steps;
    topo_.minimalSteps(current, dst, steps);
    const std::uint32_t vcs = allVcsMask();
    for (unsigned d = 0; d < topo_.numDims(); ++d) {
        if (steps[d].dirMask & 0x1)
            out.push_back(
                RouteCandidate{Topology::outPort(d, true), vcs});
        if (steps[d].dirMask & 0x2)
            out.push_back(
                RouteCandidate{Topology::outPort(d, false), vcs});
    }
}

DimensionOrderRouting::DimensionOrderRouting(
    const Topology &topo, const RouterParams &params)
    : RoutingFunction(topo, params)
{
    if (topo.wraparound() && params.vcs < 2)
        fatal("dimension-order routing on a torus needs >= 2 virtual "
              "channels for the dateline classes");
}

VcId
DimensionOrderRouting::datelineVc(bool positive, unsigned cur_c,
                                  unsigned dst_c)
{
    // Travelling "+" the wraparound edge (k-1 -> 0) still lies ahead
    // iff cur > dst; travelling "-" the edge (0 -> k-1) lies ahead iff
    // cur < dst. Before crossing use class 0, after crossing class 1.
    if (positive)
        return cur_c > dst_c ? 0 : 1;
    return cur_c < dst_c ? 0 : 1;
}

void
DimensionOrderRouting::networkCandidates(
    NodeId current, NodeId dst, PortId, VcId,
    std::vector<RouteCandidate> &out) const
{
    MinimalSteps steps;
    topo_.minimalSteps(current, dst, steps);
    for (unsigned d = 0; d < topo_.numDims(); ++d) {
        if (steps[d].dirMask == 0)
            continue;
        // Lowest unresolved dimension; break direction ties toward +.
        const bool positive = (steps[d].dirMask & 0x1) != 0;
        const PortId port = Topology::outPort(d, positive);
        if (!topo_.wraparound()) {
            out.push_back(RouteCandidate{port, allVcsMask()});
            return;
        }
        const VcId vc = datelineVc(positive, topo_.coordinate(current, d),
                                   topo_.coordinate(dst, d));
        out.push_back(
            RouteCandidate{port, std::uint32_t(1) << vc});
        return;
    }
}

DuatoProtocolRouting::DuatoProtocolRouting(const Topology &topo,
                                           const RouterParams &params)
    : RoutingFunction(topo, params),
      escapeVcs_(topo.wraparound() ? 2 : 1)
{
    if (params.vcs <= escapeVcs_)
        fatal("duato routing needs > ", escapeVcs_,
              " virtual channels (", escapeVcs_,
              " escape + >=1 adaptive), got ", params.vcs);
}

void
DuatoProtocolRouting::networkCandidates(
    NodeId current, NodeId dst, PortId, VcId,
    std::vector<RouteCandidate> &out) const
{
    MinimalSteps steps;
    topo_.minimalSteps(current, dst, steps);

    // Adaptive layer: any minimal direction on VCs >= escapeVcs_.
    const std::uint32_t adaptive_mask =
        allVcsMask() & ~((std::uint32_t(1) << escapeVcs_) - 1);
    for (unsigned d = 0; d < topo_.numDims(); ++d) {
        if (steps[d].dirMask & 0x1)
            out.push_back(RouteCandidate{Topology::outPort(d, true),
                                         adaptive_mask});
        if (steps[d].dirMask & 0x2)
            out.push_back(RouteCandidate{Topology::outPort(d, false),
                                         adaptive_mask});
    }

    // Escape layer: the dimension-order hop on the escape class.
    for (unsigned d = 0; d < topo_.numDims(); ++d) {
        if (steps[d].dirMask == 0)
            continue;
        const bool positive = (steps[d].dirMask & 0x1) != 0;
        const PortId port = Topology::outPort(d, positive);
        std::uint32_t mask;
        if (topo_.wraparound()) {
            mask = std::uint32_t(1)
                   << DimensionOrderRouting::datelineVc(
                          positive, topo_.coordinate(current, d),
                          topo_.coordinate(dst, d));
        } else {
            mask = 0x1;
        }
        // Merge with an existing candidate for the same port if any.
        bool merged = false;
        for (auto &cand : out) {
            if (cand.port == port) {
                cand.vcMask |= mask;
                merged = true;
                break;
            }
        }
        if (!merged)
            out.push_back(RouteCandidate{port, mask});
        break;
    }
}

WestFirstRouting::WestFirstRouting(const Topology &topo,
                                   const RouterParams &params)
    : RoutingFunction(topo, params)
{
    if (topo.wraparound())
        fatal("west-first routing requires a mesh (turn-model "
              "restrictions do not cover wraparound links)");
}

void
WestFirstRouting::networkCandidates(
    NodeId current, NodeId dst, PortId, VcId,
    std::vector<RouteCandidate> &out) const
{
    MinimalSteps steps;
    topo_.minimalSteps(current, dst, steps);
    // All "-x" (west) hops first, with no adaptivity.
    if (steps[0].dirMask & 0x2) {
        out.push_back(RouteCandidate{Topology::outPort(0, false),
                                     allVcsMask()});
        return;
    }
    // Then fully adaptive among the remaining minimal directions
    // (none of which is west).
    const std::uint32_t vcs = allVcsMask();
    for (unsigned d = 0; d < topo_.numDims(); ++d) {
        if (steps[d].dirMask & 0x1)
            out.push_back(
                RouteCandidate{Topology::outPort(d, true), vcs});
        if (d > 0 && (steps[d].dirMask & 0x2))
            out.push_back(
                RouteCandidate{Topology::outPort(d, false), vcs});
    }
}

std::unique_ptr<RoutingFunction>
makeRoutingFunction(const std::string &name, const Topology &topo,
                    const RouterParams &params)
{
    if (name == "tfa")
        return std::make_unique<TrueFullyAdaptiveRouting>(topo, params);
    if (name == "dor")
        return std::make_unique<DimensionOrderRouting>(topo, params);
    if (name == "duato")
        return std::make_unique<DuatoProtocolRouting>(topo, params);
    if (name == "westfirst")
        return std::make_unique<WestFirstRouting>(topo, params);
    fatal("unknown routing function '", name, "'");
}

} // namespace wormnet
