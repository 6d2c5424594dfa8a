/**
 * @file
 * Network-global struct-of-arrays virtual-channel storage.
 *
 * Before this layer, every Router owned private std::vectors of
 * InputVc/OutputVc records and every flit buffer was a private heap
 * allocation — per-cycle scans pointer-hopped through hundreds of
 * router objects and thousands of tiny allocations. VcStore hoists
 * all of it into two contiguous arrays indexed by a flat
 * (node, port, vc) id:
 *
 *   in   [node * inPorts  * vcs + port * vcs + vc]   InputVc records
 *   out  [node * outPorts * vcs + port * vcs + vc]   OutputVc records
 *
 * An InputVc record carries its own worm buffer (a flit count, not
 * flit slots; see channel.hh) and fills one cache line, so a node's
 * complete VC state is a few adjacent lines, and whole-network sweeps
 * (switch allocation, routing, detection, checkpointing) walk dense
 * memory in flat-id order. The per-cycle phases of sim/Network index
 * these arrays directly by flat id (next to its per-port link and
 * arbiter tables); a Router is only a view over a node-sized slice,
 * for code that reasons about one router at a time (see router.hh).
 *
 * The arrays are sized once at construction and never reallocate, so
 * raw pointers and flat ids into them stay valid for the lifetime of
 * the network.
 */

#ifndef WORMNET_ROUTER_VC_STATE_HH
#define WORMNET_ROUTER_VC_STATE_HH

#include <vector>

#include "common/contracts.hh"
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
        nodes_ = nodes;
        inPerNode_ = params.numInPorts() * params.vcs;
        outPerNode_ = params.numOutPorts() * params.vcs;

        in_.clear();
        out_.clear();
        in_.resize(std::size_t(nodes) * inPerNode_);
        out_.resize(std::size_t(nodes) * outPerNode_);
        for (OutputVc &ovc : out_)
            ovc.credits = params.bufDepth;
    }

    NodeId numNodes() const { return nodes_; }
    unsigned inPerNode() const { return inPerNode_; }
    unsigned outPerNode() const { return outPerNode_; }

    /** First input VC of @p node (the node's inPerNode()-long run). */
    InputVc *
    inBase(NodeId node)
    {
        WORMNET_ASSERT(node < nodes_);
        return in_.data() + std::size_t(node) * inPerNode_;
    }

    const InputVc *
    inBase(NodeId node) const
    {
        WORMNET_ASSERT(node < nodes_);
        return in_.data() + std::size_t(node) * inPerNode_;
    }

    /** First output VC of @p node. */
    OutputVc *
    outBase(NodeId node)
    {
        WORMNET_ASSERT(node < nodes_);
        return out_.data() + std::size_t(node) * outPerNode_;
    }

    const OutputVc *
    outBase(NodeId node) const
    {
        WORMNET_ASSERT(node < nodes_);
        return out_.data() + std::size_t(node) * outPerNode_;
    }

    /** @name Whole-network flat access (hot-path sweeps). */
    /// @{
    InputVc &inAt(std::size_t flat) { return in_[flat]; }
    const InputVc &inAt(std::size_t flat) const { return in_[flat]; }
    OutputVc &outAt(std::size_t flat) { return out_[flat]; }
    const OutputVc &outAt(std::size_t flat) const { return out_[flat]; }
    std::size_t numIn() const { return in_.size(); }
    std::size_t numOut() const { return out_.size(); }
    /// @}

  private:
    NodeId nodes_ = 0;
    unsigned inPerNode_ = 0;
    unsigned outPerNode_ = 0;
    std::vector<InputVc> in_;
    std::vector<OutputVc> out_;
};

} // namespace wormnet

#endif // WORMNET_ROUTER_VC_STATE_HH
