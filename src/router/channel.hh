/**
 * @file
 * Virtual-channel state: the worm buffer, input-side VC records and
 * output-side VC allocation/credit records.
 *
 * An input VC holds at most one worm: a head enters only a free,
 * empty VC, and the VC stays the worm's until its tail leaves. The
 * flits it buffers are therefore always a contiguous run of that
 * worm's flits, and a WormBuffer describes them with three numbers
 * instead of storing flits: how many are buffered, the worm index of
 * the front one, and when the newest one became ready. Flit types
 * follow from the index and the worm length the InputVc caches.
 *
 * Each InputVc record fills exactly one aligned 64-byte cache line,
 * so the switch phase reads one line per winner.
 */

#ifndef WORMNET_ROUTER_CHANNEL_HH
#define WORMNET_ROUTER_CHANNEL_HH

#include <cstdint>

#include "common/contracts.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "router/flit.hh"

namespace wormnet
{

/**
 * The buffered flits of the one worm an input VC holds.
 *
 * A flit becomes ready one cycle after it arrives (link/injection
 * latency). A VC receives at most one flit per cycle: one switch
 * winner per upstream output port, one injection push per injection
 * port. So every buffered flit but the newest is ready, and the front
 * flit is ready iff count > 1 or the newest flit is.
 */
struct WormBuffer
{
    /** Flits buffered. */
    std::uint32_t count = 0;
    /** Worm index of the front flit (flits this VC already sent). */
    std::uint32_t front = 0;
    /** Cycle in which the newest flit becomes ready. */
    Cycle newestReadyAt = 0;

    bool empty() const { return count == 0; }

    /** Buffer the worm's next flit, arriving in cycle @p now, in a VC
     *  of @p depth flit slots. */
    void
    push(Cycle now, unsigned depth)
    {
        WORMNET_ASSERT(count < depth, " (worm buffer overflow)");
        WORMNET_ASSERT(newestReadyAt <= now,
                       " (second flit in one cycle)");
        ++count;
        newestReadyAt = now + 1;
    }

    /** The front flit may be acted upon in cycle @p now. Requires a
     *  nonempty buffer. */
    bool
    frontReady(Cycle now) const
    {
        return count > 1 || newestReadyAt <= now;
    }

    /** Drop the front flit. */
    void
    pop()
    {
        WORMNET_ASSERT(count > 0, " (worm buffer underflow)");
        --count;
        ++front;
    }

    void
    clear()
    {
        count = 0;
        front = 0;
        newestReadyAt = 0;
    }

    template <typename S>
    void
    saveState(S &s) const
    {
        s.u32(count);
        s.u32(front);
        s.u64(newestReadyAt);
    }

    template <typename D>
    void
    loadState(D &d)
    {
        count = d.u32();
        front = d.u32();
        newestReadyAt = d.u64();
    }
};

/**
 * Input-side virtual channel: the worm buffer plus the worm currently
 * using it and its routing decision. Fields are ordered by size so
 * that the record fits one cache line.
 */
struct alignas(64) InputVc
{
    /** When the head's output VC was granted. */
    Cycle allocCycle = kNever;

    /** Cycle of the first failed routing attempt for the current
     *  head (detection support). */
    Cycle headBlockedSince = kNever;

    WormBuffer buf;

    /** Worm occupying this VC (set at head enqueue, cleared at tail
     *  dequeue); kInvalidMsg when free. */
    MsgId msg = kInvalidMsg;

    /** Destination and length in flits of the occupying worm, cached
     *  from the message at head enqueue so the routing and switch
     *  phases never touch the message store. Derived state: rebuilt
     *  on checkpoint load. */
    NodeId dst = kInvalidNode;
    std::uint32_t length = 0;

    /** Feasible output ports observed at the last failed routing
     *  attempt (detection support). */
    PortMask lastFeasible = 0;

    PortId outPort = kInvalidPort; ///< granted output port
    VcId outVc = kInvalidVc;       ///< granted output VC
    bool routed = false;           ///< the head holds an output VC

    /** The current head already had >= 1 failed routing attempt. */
    bool attempted = false;

    /** The occupying message is draining into the recovery buffer. */
    bool recovering = false;

    /** Member of the Network's routable-head set. Owned by
     *  Network::syncRoutable(); nothing else may write it. */
    bool inRouteSet = false;

    bool free() const { return msg == kInvalidMsg; }

    /** Type of the front flit. Requires a nonempty buffer. */
    FlitType frontType() const { return flitTypeAt(buf.front, length); }

    /** Reset per-worm state when the worm fully leaves the VC. */
    void
    release()
    {
        buf.clear();
        msg = kInvalidMsg;
        dst = kInvalidNode;
        length = 0;
        routed = false;
        outPort = kInvalidPort;
        outVc = kInvalidVc;
        allocCycle = kNever;
        attempted = false;
        lastFeasible = 0;
        headBlockedSince = kNever;
        recovering = false;
    }

    /** Checkpoint support. inRouteSet, dst and length are rebuilt by
     *  the Network's activity restore, not read back. */
    template <typename S>
    void
    saveState(S &s) const
    {
        buf.saveState(s);
        s.u32(msg);
        s.boolean(routed);
        s.u16(outPort);
        s.u8(outVc);
        s.u64(allocCycle);
        s.boolean(attempted);
        s.u32(lastFeasible);
        s.u64(headBlockedSince);
        s.boolean(recovering);
    }

    template <typename D>
    void
    loadState(D &d)
    {
        buf.loadState(d);
        msg = d.u32();
        routed = d.boolean();
        outPort = d.u16();
        outVc = d.u8();
        allocCycle = d.u64();
        attempted = d.boolean();
        lastFeasible = d.u32();
        headBlockedSince = d.u64();
        recovering = d.boolean();
        inRouteSet = false;
        dst = kInvalidNode;
        length = 0;
    }
};

static_assert(sizeof(InputVc) == 64,
              "an InputVc record must fill exactly one cache line");

/**
 * Output-side virtual channel: allocation record plus the credit count
 * for the downstream buffer. The input VC that owns an allocated
 * output VC is not stored here: the Network keeps it in a flat
 * source-slot table, which the switch arbiter reads without loading
 * this record.
 */
struct OutputVc
{
    /** Message the VC is allocated to; kInvalidMsg when free. */
    MsgId msg = kInvalidMsg;
    /** Free slots believed available in the downstream buffer. */
    unsigned credits = 0;

    bool allocated() const { return msg != kInvalidMsg; }

    void release() { msg = kInvalidMsg; }

    /** Checkpoint support. The owner's (@p src_port, @p src_vc) comes
     *  from the Network's source-slot table and is written between
     *  msg and credits, after the allocated flag, where the record
     *  once held all three. */
    template <typename S>
    void
    saveState(S &s, PortId src_port, VcId src_vc) const
    {
        s.boolean(allocated());
        s.u32(msg);
        s.u16(src_port);
        s.u8(src_vc);
        s.u32(credits);
    }

    template <typename D>
    void
    loadState(D &d, PortId &src_port, VcId &src_vc)
    {
        const bool allocated_flag = d.boolean();
        msg = d.u32();
        src_port = d.u16();
        src_vc = d.u8();
        credits = d.u32();
        if (allocated_flag != allocated())
            fatal("checkpoint output VC of message ", msg, " is ",
                  allocated_flag ? "allocated" : "free",
                  " against its message field");
    }
};

} // namespace wormnet

#endif // WORMNET_ROUTER_CHANNEL_HH
