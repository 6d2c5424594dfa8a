#include "router/router.hh"

#include "common/contracts.hh"

namespace wormnet
{

Router::Router(NodeId node, const RouterParams &params, InputVc *in,
               OutputVc *out)
    : node_(node), params_(params), in_(in), out_(out)
{
    WORMNET_ASSERT(params.vcs >= 1);
    WORMNET_ASSERT(params.bufDepth >= 1);
    WORMNET_ASSERT(params.numOutPorts() <= 32,
              " (PortMask is 32 bits wide)");
    WORMNET_ASSERT(in != nullptr && out != nullptr);
}

} // namespace wormnet
