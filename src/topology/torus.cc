#include "topology/torus.hh"

#include <sstream>

#include "common/contracts.hh"
#include "common/log.hh"

namespace wormnet
{

KAryNCube::KAryNCube(unsigned radix, unsigned dims)
    : radix_(radix), dims_(dims)
{
    if (radix < 2)
        fatal("KAryNCube: radix must be >= 2, got ", radix);
    if (dims < 1 || dims > kMaxDims)
        fatal("KAryNCube: dims must be in [1, ", kMaxDims, "], got ",
              dims);

    NodeId n = 1;
    stride_[0] = 1;
    for (unsigned d = 0; d < dims; ++d) {
        const NodeId prev = n;
        n *= radix;
        if (n / radix != prev)
            fatal("KAryNCube: ", radix, "^", dims, " overflows NodeId");
        stride_[d + 1] = n;
    }
    numNodes_ = n;
}

unsigned
KAryNCube::coordinate(NodeId node, unsigned dim) const
{
    WORMNET_ASSERT(node < numNodes_);
    WORMNET_ASSERT(dim < dims_);
    return (node / stride_[dim]) % radix_;
}

NodeId
KAryNCube::neighbor(NodeId node, unsigned dim, bool positive) const
{
    WORMNET_ASSERT(node < numNodes_);
    WORMNET_ASSERT(dim < dims_);
    const unsigned c = coordinate(node, dim);
    const unsigned nc =
        positive ? (c + 1) % radix_ : (c + radix_ - 1) % radix_;
    return node + (nc - c) * stride_[dim];
}

void
KAryNCube::minimalSteps(NodeId src, NodeId dst,
                        MinimalSteps &steps) const
{
    WORMNET_ASSERT(src < numNodes_ && dst < numNodes_);
    // Peel one base-radix digit per dimension: one division per node
    // and dimension (routing calls this on every header attempt).
    for (unsigned d = 0; d < dims_; ++d) {
        const unsigned sc = src % radix_;
        const unsigned dc = dst % radix_;
        src /= radix_;
        dst /= radix_;
        DimStep &step = steps[d];
        if (sc == dc) {
            step.dirMask = 0;
            step.hops = 0;
            continue;
        }
        const unsigned fwd = dc > sc ? dc - sc : dc + radix_ - sc;
        const unsigned bwd = radix_ - fwd;
        if (fwd < bwd) {
            step.dirMask = 0x1;
            step.hops = static_cast<std::uint16_t>(fwd);
        } else if (bwd < fwd) {
            step.dirMask = 0x2;
            step.hops = static_cast<std::uint16_t>(bwd);
        } else {
            // Equidistant both ways (even radix): both minimal.
            step.dirMask = 0x3;
            step.hops = static_cast<std::uint16_t>(fwd);
        }
    }
    for (unsigned d = dims_; d < kMaxDims; ++d)
        steps[d] = DimStep{};
}

std::string
KAryNCube::name() const
{
    std::ostringstream os;
    os << radix_ << "-ary " << dims_ << "-cube (torus)";
    return os.str();
}

} // namespace wormnet
