/**
 * @file
 * wormnet-lint fixture: the nondet-iter family.
 *
 * Never compiled — linted only, by tests/test_wormnet_lint.py. Each
 * `EXPECT:` trailing comment pins a diagnostic (family/kind) to its
 * line; the runner fails on any missing or extra finding. Lines
 * without EXPECT must stay clean, so the negative cases (sorted_view
 * escape, unreachable function, suppressed site) are asserted too.
 * A function named `step` is a root of its own: everything the
 * simulator's per-cycle step() reaches mutates simulated state.
 */

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace wormnet
{
template <typename C> struct SortedView
{
};
template <typename C>
SortedView<C>
sorted_view(const C &c)
{
    return {};
}
} // namespace wormnet

struct Stats
{
    std::unordered_map<std::string, long> counters;
    std::unordered_set<int> nodes;

    // Reachability root: takes an ostream-like sink by the usual
    // spelling (the linter roots any function with an ostream param).
    void dump(std::ostream &os);

    void tally();
    void rebuildCache();
};

void
Stats::dump(std::ostream &os)
{
    tally();
    for (const auto &kv : counters) { // EXPECT: nondet-iter/range-for
        (void)kv;
    }
    // EXPECT-FIXIT: sorted_view
}

void
Stats::tally()
{
    // Reachable from dump() -> flagged, both loop spellings.
    for (const int n : nodes) { // EXPECT: nondet-iter/range-for
        (void)n;
    }
    for (auto it = counters.begin(); // EXPECT: nondet-iter/iterator-loop
         it != counters.end(); ++it) {
        (void)it;
    }
    // The sanctioned escape: identical walk through sorted_view.
    for (const auto &kv : wormnet::sorted_view(counters)) {
        (void)kv;
    }
    // A justified suppression silences the finding.
    // wormnet-lint: allow(nondet-iter): fixture — order folded into a
    // commutative reduction
    for (const auto &kv : counters) {
        (void)kv;
    }
}

void
Stats::rebuildCache()
{
    // NOT reachable from any root: iteration order never escapes
    // into output, so this stays clean.
    for (const auto &kv : counters) {
        (void)kv;
    }
}

struct Engine
{
    std::unordered_set<int> pending;

    void step();
    void drainPending();
};

void
Engine::step()
{
    drainPending();
}

void
Engine::drainPending()
{
    // Reachable only from step(): no output, stats or serialization
    // root leads here, yet the walk order reaches simulated state.
    for (const int id : pending) { // EXPECT: nondet-iter/range-for
        (void)id;
    }
}
