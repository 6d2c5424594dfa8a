/**
 * @file
 * Activity tracking for the simulation core.
 *
 * The per-cycle phases of sim::Network (routing, switch allocation,
 * injection, detector cycle-end) used to scan every node x port x VC
 * each cycle. The activity-driven core instead maintains small sets
 * of the entities that can actually do work this cycle — see the
 * "Hot path & activity tracking" section of docs/MECHANISMS.md.
 *
 * NodeBitset is the shared building block: a fixed-size bitset over
 * node ids with O(1) insert/erase/membership and iteration in
 * strictly ascending node order. Ascending iteration is what makes
 * the active sets *deterministically* equivalent to the exhaustive
 * scans they replace: every phase visits active nodes in exactly the
 * node order the full scan used, so skipping the idle ones is
 * unobservable.
 */

#ifndef WORMNET_SIM_ACTIVITY_HH
#define WORMNET_SIM_ACTIVITY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace wormnet
{

/** Bitset over node ids with ascending-order iteration. */
class NodeBitset
{
  public:
    /** Size for @p n nodes and clear all bits. */
    void
    init(std::size_t n)
    {
        words_.assign((n + 63) / 64, 0);
    }

    void
    insert(NodeId i)
    {
        words_[i >> 6] |= std::uint64_t(1) << (i & 63);
    }

    void
    erase(NodeId i)
    {
        words_[i >> 6] &= ~(std::uint64_t(1) << (i & 63));
    }

    bool
    contains(NodeId i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1u;
    }

    bool
    empty() const
    {
        for (const std::uint64_t w : words_) {
            if (w != 0)
                return false;
        }
        return true;
    }

    /**
     * Visit the members in ascending node order, word-at-a-time.
     *
     * Each 64-bit word is copied before its bits are scanned, so the
     * callback may erase members: erasing a node in a *later* word
     * skips it (it no longer does work), erasing one in the current
     * word still visits it (its handler is a no-op by the same state
     * change that caused the erase). Inserting into the set mid-walk
     * is not supported — no per-cycle phase does it on its own set.
     * This replaces the snapshot-into-a-scratch-vector pattern: same
     * visit order, no intermediate store/reload pass.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w) {
                const unsigned b = static_cast<unsigned>(
                    __builtin_ctzll(w));
                w &= w - 1;
                fn(static_cast<NodeId>((wi << 6) + b));
            }
        }
    }

    /** Append the members to @p out in ascending node order. */
    void
    appendTo(std::vector<NodeId> &out) const
    {
        for (std::size_t wi = 0; wi < words_.size(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w) {
                const unsigned b = static_cast<unsigned>(
                    __builtin_ctzll(w));
                w &= w - 1;
                out.push_back(
                    static_cast<NodeId>((wi << 6) + b));
            }
        }
    }

    /** Checkpoint support: word-for-word dump of the membership. */
    template <typename S>
    void
    saveState(S &s) const
    {
        s.u64(static_cast<std::uint64_t>(words_.size()));
        for (const std::uint64_t w : words_)
            s.u64(w);
    }

    template <typename D>
    void
    loadState(D &d)
    {
        words_.assign(d.u64(), 0);
        for (std::uint64_t &w : words_)
            w = d.u64();
    }

  private:
    std::vector<std::uint64_t> words_;
};

} // namespace wormnet

#endif // WORMNET_SIM_ACTIVITY_HH
