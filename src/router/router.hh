/**
 * @file
 * Router shape and per-router view.
 *
 * The paper's router is a physical channel per network direction
 * split into V virtual channels with private flit buffers, a crossbar
 * that moves at most one flit per output physical channel per cycle,
 * and multi-port injection/ejection ("four-port architecture").
 *
 * All of that state lives in flat Network-owned tables: the VC
 * records in VcStore (vc_state.hh), and the link wiring and the
 * round-robin arbitration pointers in per-port tables inside
 * sim/Network. The per-cycle algorithms (routing, switch allocation,
 * credit return) index those tables directly and never go through a
 * Router. A Router is a thin view over one node's slice of the VC
 * store, kept for the code that reasons about one router at a time:
 * detectors, recovery managers, the oracle and tests.
 */

#ifndef WORMNET_ROUTER_ROUTER_HH
#define WORMNET_ROUTER_ROUTER_HH

#include "common/types.hh"
#include "common/contracts.hh"
#include "router/channel.hh"

namespace wormnet
{

/** Static shape of every router in a network. */
struct RouterParams
{
    unsigned netPorts = 6;  ///< network in/out ports (2 per dim)
    unsigned injPorts = 4;  ///< injection (input) ports
    unsigned ejePorts = 4;  ///< ejection (output) ports
    unsigned vcs = 3;       ///< virtual channels per physical channel
    unsigned bufDepth = 4;  ///< flit buffer depth per virtual channel

    unsigned numInPorts() const { return netPorts + injPorts; }
    unsigned numOutPorts() const { return netPorts + ejePorts; }
};

/** Remote endpoint of a link (invalid for injection/ejection). */
struct LinkEnd
{
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;

    bool valid() const { return node != kInvalidNode; }
};

/**
 * One router's VC state: a view over the node-sized slices of the
 * Network's VcStore arrays.
 */
class Router
{
  public:
    /** View over externally owned VC arrays (VcStore slices); @p in
     *  and @p out must stay valid for the router's lifetime. */
    Router(NodeId node, const RouterParams &params, InputVc *in,
           OutputVc *out);

    NodeId nodeId() const { return node_; }
    const RouterParams &params() const { return params_; }

    unsigned numInPorts() const { return params_.numInPorts(); }
    unsigned numOutPorts() const { return params_.numOutPorts(); }
    unsigned numVcs() const { return params_.vcs; }

    /** Input ports >= netPorts are injection ports. */
    bool
    isInjectionPort(PortId in_port) const
    {
        return in_port >= params_.netPorts;
    }

    /** Output ports >= netPorts are ejection ports. */
    bool
    isEjectionPort(PortId out_port) const
    {
        return out_port >= params_.netPorts;
    }

    InputVc &
    inputVc(PortId port, VcId vc)
    {
        WORMNET_ASSERT(port < numInPorts() && vc < params_.vcs);
        return in_[port * params_.vcs + vc];
    }

    const InputVc &
    inputVc(PortId port, VcId vc) const
    {
        WORMNET_ASSERT(port < numInPorts() && vc < params_.vcs);
        return in_[port * params_.vcs + vc];
    }

    OutputVc &
    outputVc(PortId port, VcId vc)
    {
        WORMNET_ASSERT(port < numOutPorts() && vc < params_.vcs);
        return out_[port * params_.vcs + vc];
    }

    const OutputVc &
    outputVc(PortId port, VcId vc) const
    {
        WORMNET_ASSERT(port < numOutPorts() && vc < params_.vcs);
        return out_[port * params_.vcs + vc];
    }

    /** @name Raw slice access. */
    /// @{
    InputVc *inputVcs() { return in_; }
    const InputVc *inputVcs() const { return in_; }
    OutputVc *outputVcs() { return out_; }
    const OutputVc *outputVcs() const { return out_; }
    /// @}

  private:
    NodeId node_;
    RouterParams params_;
    /** Views into the Network's VcStore arrays. */
    InputVc *in_ = nullptr;
    OutputVc *out_ = nullptr;
};

} // namespace wormnet

#endif // WORMNET_ROUTER_ROUTER_HH
