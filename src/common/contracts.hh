/**
 * @file
 * Contract / invariant macro layer.
 *
 * Every runtime correctness check in wormnet goes through one of two
 * macros, graded by cost so builds can trade checking for speed:
 *
 *  - WORMNET_ASSERT(cond, ...): a *cheap* contract — O(1) index and
 *    state checks on hot paths (buffer bounds, credit conservation,
 *    VC ownership). Enabled at contract level >= 1.
 *  - WORMNET_INVARIANT(cond, ...): a *full* structural invariant —
 *    potentially O(network) validation (whole-structure scans,
 *    redundant recomputation cross-checks). Enabled at level >= 2
 *    only; never in default or release-performance builds.
 *
 * The level is fixed at compile time by WORMNET_CONTRACT_LEVEL
 * (0 = off, 1 = cheap, 2 = full), normally set through the CMake
 * cache variable WORMNET_CONTRACTS=off|cheap|full. The default is
 * "cheap", matching the repo's long-standing rule that simulation
 * correctness beats the trivial cost of O(1) branches even in
 * release builds.
 *
 * Failed contracts call panic() (an internal wormnet bug, throws
 * PanicError); they are not for user errors — use fatal() for those.
 * Conditions must be side-effect free: at level "off" they are not
 * evaluated at all.
 *
 * WORMNET_INVARIANT_ENABLED is a constexpr bool for code that wants
 * to gate a *block* of full-level checking (e.g. the Network's
 * active-set brute-force cross-check) rather than one expression.
 */

#ifndef WORMNET_COMMON_CONTRACTS_HH
#define WORMNET_COMMON_CONTRACTS_HH

#include "common/log.hh"

/** 0 = off, 1 = cheap (default), 2 = full. */
#ifndef WORMNET_CONTRACT_LEVEL
#define WORMNET_CONTRACT_LEVEL 1
#endif

namespace wormnet
{

/** True when full structural invariants are compiled in. */
inline constexpr bool WORMNET_INVARIANT_ENABLED =
    WORMNET_CONTRACT_LEVEL >= 2;

} // namespace wormnet

#define WORMNET_CONTRACT_FAIL_(kind, cond, ...)                        \
    ::wormnet::panic(kind " violated: ", #cond, " at ", __FILE__,      \
                     ":", __LINE__ __VA_OPT__(, ) __VA_ARGS__)

#if WORMNET_CONTRACT_LEVEL >= 1
#define WORMNET_ASSERT(cond, ...)                                      \
    do {                                                               \
        if (!(cond)) {                                                 \
            WORMNET_CONTRACT_FAIL_("contract", cond, __VA_ARGS__);     \
        }                                                              \
    } while (0)
#else
#define WORMNET_ASSERT(cond, ...)                                      \
    do {                                                               \
    } while (0)
#endif

#if WORMNET_CONTRACT_LEVEL >= 2
#define WORMNET_INVARIANT(cond, ...)                                   \
    do {                                                               \
        if (!(cond)) {                                                 \
            WORMNET_CONTRACT_FAIL_("invariant", cond, __VA_ARGS__);    \
        }                                                              \
    } while (0)
#else
#define WORMNET_INVARIANT(cond, ...)                                   \
    do {                                                               \
    } while (0)
#endif

/**
 * Back-compat alias: historical call sites and tests use the old
 * wn_assert spelling; it now is the cheap contract level. New code
 * should spell out WORMNET_ASSERT or WORMNET_INVARIANT.
 */
#define wn_assert(cond, ...)                                           \
    WORMNET_ASSERT(cond __VA_OPT__(, ) __VA_ARGS__)

#endif // WORMNET_COMMON_CONTRACTS_HH
