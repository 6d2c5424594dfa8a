/**
 * @file
 * Router shape and link endpoints.
 *
 * The paper's router is a physical channel per network direction
 * split into V virtual channels with private flit buffers, a crossbar
 * that moves at most one flit per output physical channel per cycle,
 * and multi-port injection/ejection ("four-port architecture").
 *
 * All of that state lives in flat Network-owned tables: the VC
 * records in VcStore (vc_state.hh), and the link wiring and the
 * round-robin arbitration pointers in per-port tables inside
 * sim/Network. The per-cycle phases index those tables directly;
 * code outside the network (recovery managers, the oracle, tests)
 * reaches a router's VCs through Network::inputVc() and
 * Network::outputVc().
 */

#ifndef WORMNET_ROUTER_ROUTER_HH
#define WORMNET_ROUTER_ROUTER_HH

#include "common/log.hh"
#include "common/types.hh"

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

    /** Port and VC masks (PortMask, the per-port VC masks) are 32
     *  bits wide: the widest router the simulator represents. */
    static constexpr unsigned kMaxPorts = 32;
    static constexpr unsigned kMaxVcs = 32;

    unsigned numInPorts() const { return netPorts + injPorts; }
    unsigned numOutPorts() const { return netPorts + ejePorts; }

    /** fatal(), naming the option at fault, unless every table the
     *  simulator sizes from this shape can hold it. Call on any shape
     *  built from outside input, before building anything from it. */
    void
    validate() const
    {
        if (vcs < 1 || vcs > kMaxVcs)
            fatal("option --vcs: ", vcs, " virtual channels per physical "
                  "channel; per-port VC masks hold 1 to ", kMaxVcs);
        if (bufDepth < 1)
            fatal("option --buf-depth: a virtual channel needs a buffer "
                  "of at least one flit");
        if (injPorts < 1 || ejePorts < 1)
            fatal("option --", injPorts < 1 ? "inj-ports" : "eje-ports",
                  ": a router needs at least one injection and one "
                  "ejection port");
        if (injPorts > kMaxPorts || numInPorts() > kMaxPorts)
            fatal("option --inj-ports: ", injPorts, " injection + ",
                  netPorts, " network ports = ", numInPorts(),
                  " input ports; port masks hold at most ", kMaxPorts);
        if (ejePorts > kMaxPorts || numOutPorts() > kMaxPorts)
            fatal("option --eje-ports: ", ejePorts, " ejection + ",
                  netPorts, " network ports = ", numOutPorts(),
                  " output ports; port masks hold at most ", kMaxPorts);
    }

    /** Input ports >= netPorts are injection ports. */
    bool isInjectionPort(PortId in_port) const
    {
        return in_port >= netPorts;
    }

    /** Output ports >= netPorts are ejection ports. */
    bool isEjectionPort(PortId out_port) const
    {
        return out_port >= netPorts;
    }
};

/** Remote endpoint of a link (invalid for injection/ejection). */
struct LinkEnd
{
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;

    bool valid() const { return node != kInvalidNode; }
};

} // namespace wormnet

#endif // WORMNET_ROUTER_ROUTER_HH
