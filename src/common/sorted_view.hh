/**
 * @file
 * Deterministic iteration over unordered containers.
 *
 * The repo's bitwise-reproducibility contract (golden tables at any
 * --jobs, checkpoints that resume bit-for-bit) forbids letting
 * hash-iteration order reach committed state, statistics, or any
 * serialized/printed byte. Hash containers are still the right tool
 * for membership and lookup — the rule is only that *iteration* on
 * such paths must happen in a key-determined order.
 *
 * wormnet::sorted_view(c) is the sanctioned way to do that: it
 * snapshots pointers to the container's elements, sorts them by key
 * (pairs sort by .first, sets by value), and iterates the snapshot.
 * O(n log n) with one pointer per element — no element copies. The
 * static checker (tools/wormnet-lint) recognises the call and
 * silences its nondet-iter diagnostic; everything else iterating an
 * unordered container on a determinism-critical path is an error.
 *
 * The view holds pointers into the container: do not insert into or
 * erase from the container while iterating the view (the same rule
 * ordinary iterators impose).
 *
 *     for (const auto &kv : wormnet::sorted_view(map_)) { ... }
 */

#ifndef WORMNET_COMMON_SORTED_VIEW_HH
#define WORMNET_COMMON_SORTED_VIEW_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace wormnet
{

namespace detail
{

template <class T>
concept PairLike = requires(const T &t) {
    t.first;
    t.second;
};

} // namespace detail

template <class Container>
class SortedView
{
public:
    using value_type = typename Container::value_type;

    explicit SortedView(const Container &c)
    {
        items_.reserve(c.size());
        // wormnet-lint: allow(nondet-iter): this is the adapter
        // itself — the order of this walk is erased by the sort
        // below, which is the whole point of sorted_view().
        for (const auto &e : c)
            items_.push_back(&e);
        std::sort(items_.begin(), items_.end(),
                  [](const value_type *a, const value_type *b) {
                      if constexpr (detail::PairLike<value_type>)
                          return a->first < b->first;
                      else
                          return *a < *b;
                  });
    }

    class iterator
    {
    public:
        explicit iterator(const value_type *const *p) : p_(p) {}
        const value_type &operator*() const { return **p_; }
        const value_type *operator->() const { return *p_; }
        iterator &operator++()
        {
            ++p_;
            return *this;
        }
        bool operator!=(const iterator &o) const
        {
            return p_ != o.p_;
        }
        bool operator==(const iterator &o) const
        {
            return p_ == o.p_;
        }

    private:
        const value_type *const *p_;
    };

    iterator begin() const { return iterator(items_.data()); }
    iterator end() const
    {
        return iterator(items_.data() + items_.size());
    }
    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }

private:
    std::vector<const value_type *> items_;
};

/** Deterministically ordered snapshot view of @p c (see file doc). */
template <class Container>
SortedView<Container>
sorted_view(const Container &c)
{
    return SortedView<Container>(c);
}

} // namespace wormnet

#endif // WORMNET_COMMON_SORTED_VIEW_HH
