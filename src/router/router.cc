#include "router/router.hh"

#include "common/contracts.hh"

namespace wormnet
{

Router::Router(NodeId node, const RouterParams &params)
    : node_(node), params_(params)
{
    WORMNET_ASSERT(params.vcs >= 1);
    WORMNET_ASSERT(params.bufDepth >= 1);
    WORMNET_ASSERT(params.numOutPorts() <= 32,
              " (PortMask is 32 bits wide)");

    ownIn_.resize(params.numInPorts() * params.vcs);
    ownOut_.resize(params.numOutPorts() * params.vcs);
    for (auto &ovc : ownOut_)
        ovc.credits = params.bufDepth;
    in_ = ownIn_.data();
    out_ = ownOut_.data();

    initCommon();
}

Router::Router(NodeId node, const RouterParams &params, InputVc *in,
               OutputVc *out)
    : node_(node), params_(params), in_(in), out_(out)
{
    WORMNET_ASSERT(params.vcs >= 1);
    WORMNET_ASSERT(params.bufDepth >= 1);
    WORMNET_ASSERT(params.numOutPorts() <= 32,
              " (PortMask is 32 bits wide)");
    WORMNET_ASSERT(in != nullptr && out != nullptr);

    initCommon();
}

void
Router::initCommon()
{
    down_.resize(params_.numOutPorts());
    up_.resize(params_.numInPorts());
    lastTx_.assign(params_.numOutPorts(), 0);
    saRoundRobin.assign(params_.numOutPorts(), 0);
    injRoundRobin.assign(params_.injPorts, 0);
}

bool
Router::inputPcFullyBusy(PortId port) const
{
    for (VcId v = 0; v < params_.vcs; ++v) {
        if (inputVc(port, v).free())
            return false;
    }
    return true;
}

bool
Router::outputPcOccupied(PortId port) const
{
    for (VcId v = 0; v < params_.vcs; ++v) {
        if (outputVc(port, v).allocated)
            return true;
    }
    return false;
}

unsigned
Router::busyNetworkOutputVcs() const
{
    unsigned busy = 0;
    for (PortId p = 0; p < params_.netPorts; ++p) {
        for (VcId v = 0; v < params_.vcs; ++v) {
            if (outputVc(p, v).allocated)
                ++busy;
        }
    }
    return busy;
}

} // namespace wormnet
