/**
 * @file
 * Network-global struct-of-arrays virtual-channel storage.
 *
 * VcStore keeps every router's VC records in two contiguous arrays
 * indexed by a flat (node, port, vc) id:
 *
 *   in   [node * inPorts  * vcs + port * vcs + vc]   InputVc records
 *   out  [node * outPorts * vcs + port * vcs + vc]   OutputVc records
 *
 * An InputVc record carries its own worm buffer (a flit count, not
 * flit slots; see channel.hh) and fills one cache line, so a node's
 * complete VC state is a few adjacent lines, and whole-network sweeps
 * (switch allocation, routing, detection, checkpointing) walk dense
 * memory in flat-id order. sim/Network owns the store and indexes it
 * by flat id, next to its per-port link and arbiter tables; code
 * outside the network reads it through Network::inputVc() and
 * Network::outputVc().
 *
 * The arrays are sized once at construction and never reallocate, so
 * references and flat ids into them stay valid for the lifetime of
 * the network.
 */

#ifndef WORMNET_ROUTER_VC_STATE_HH
#define WORMNET_ROUTER_VC_STATE_HH

#include <vector>

#include "common/types.hh"
#include "router/channel.hh"
#include "router/router.hh"

namespace wormnet
{

/** Flat, contiguous VC state for every router in a network. */
class VcStore
{
  public:
    VcStore() = default;

    void
    init(NodeId nodes, const RouterParams &params)
    {
        in_.clear();
        out_.clear();
        in_.resize(std::size_t(nodes) * params.numInPorts() * params.vcs);
        out_.resize(std::size_t(nodes) * params.numOutPorts() *
                    params.vcs);
        for (OutputVc &ovc : out_)
            ovc.credits = params.bufDepth;
    }

    /** @name Whole-network flat access (hot-path sweeps). */
    /// @{
    InputVc &inAt(std::size_t flat) { return in_[flat]; }
    const InputVc &inAt(std::size_t flat) const { return in_[flat]; }
    OutputVc &outAt(std::size_t flat) { return out_[flat]; }
    const OutputVc &outAt(std::size_t flat) const { return out_[flat]; }
    /// @}

  private:
    std::vector<InputVc> in_;
    std::vector<OutputVc> out_;
};

} // namespace wormnet

#endif // WORMNET_ROUTER_VC_STATE_HH
