/**
 * @file
 * The wormnet-lint check families.
 *
 *  - nondet-iter: range-for / .begin() iteration over unordered
 *    containers in any function reachable from a step() (simulated
 *    state), serialization, stats or stdout path, unless routed
 *    through wormnet::sorted_view(...).
 *  - banned-api: rand()/srand()/time(), wall-clock *_clock::now()
 *    (incl. through `using Clock = ...` aliases), std::random_device,
 *    default-seeded std RNG engines, pointer-keyed ordering/hashing,
 *    and float accumulation inside unordered-iteration loops.
 *
 * Diagnostics with severity Error fail the run (exit 1); Warnings
 * (e.g. an unused suppression) do not. A finding is silenced by a
 * `// wormnet-lint: allow(<family>): <justification>` comment on the
 * same line, the line above, or `allow-file(...)` anywhere in the
 * file — and the justification text is mandatory: a bare allow() is
 * itself an error.
 */

#ifndef WORMNET_LINT_CHECKS_HH
#define WORMNET_LINT_CHECKS_HH

#include "model.hh"

#include <string>
#include <vector>

namespace wormnet_lint
{

enum class Severity
{
    Error,
    Warning,
};

struct Diagnostic
{
    std::string file;
    int line = 0;
    int col = 0;
    Severity severity = Severity::Error;
    std::string check; ///< family name (what allow() must name)
    std::string kind;  ///< fine-grained kind within the family
    std::string message;
    std::string fixit; ///< optional mechanical rewrite
    std::string note;  ///< optional context (reachability chain...)
};

struct CheckOptions
{
    /** Enabled family names; empty = all. */
    std::set<std::string> enabled;
    bool fixits = true;
    /** Warn on allow() directives that silenced nothing. Off by
     *  default: a directive may cover code the heuristic model
     *  does not see (e.g. a template it cannot instantiate). */
    bool strictSuppressions = false;
};

extern const char *const kCheckFamilies[2];

/** Run every enabled check over the model; returns diagnostics
 *  sorted by (file, line, col), suppressions already applied. */
std::vector<Diagnostic> runChecks(const Model &model,
                                  const CheckOptions &opt);

} // namespace wormnet_lint

#endif // WORMNET_LINT_CHECKS_HH
