/**
 * @file
 * Flit types: the unit of flow control in wormhole switching.
 *
 * A message is serialised into a HEAD flit (carrying, conceptually,
 * the routing information), zero or more BODY flits, and a TAIL flit
 * that releases the virtual channels the worm holds. Single-flit
 * messages use HEAD_TAIL. Flits carry no payload and are not stored
 * one by one: an input VC holds one worm at a time, so a flit is
 * fully described by its position in that worm (see WormBuffer in
 * channel.hh), and its type follows from the position and the
 * worm's length.
 */

#ifndef WORMNET_ROUTER_FLIT_HH
#define WORMNET_ROUTER_FLIT_HH

#include "common/types.hh"

namespace wormnet
{

/** Position of a flit within its message. The encoding is relied on
 *  by flitTypeAt(). */
enum class FlitType : std::uint8_t
{
    Head = 0,
    Body = 1,
    Tail = 2,
    HeadTail = 3, ///< single-flit message
};

/** True for Head and HeadTail. */
inline bool
isHeadFlit(FlitType t)
{
    return t == FlitType::Head || t == FlitType::HeadTail;
}

/** True for Tail and HeadTail. */
inline bool
isTailFlit(FlitType t)
{
    return t == FlitType::Tail || t == FlitType::HeadTail;
}

/**
 * Flit type for position @p index within a message of @p length
 * flits, branch-free: head <=> index 0, tail <=> index + 1 == length.
 */
inline FlitType
flitTypeAt(unsigned index, unsigned length)
{
    const unsigned head = index == 0;
    const unsigned tail = index + 1 == length;
    return static_cast<FlitType>(2 * tail + (head == tail));
}

} // namespace wormnet

#endif // WORMNET_ROUTER_FLIT_HH
