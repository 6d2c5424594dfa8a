/**
 * @file
 * Contract macro.
 *
 * WORMNET_ASSERT(cond, ...) is the runtime correctness check on hot
 * paths: O(1) index and state checks (buffer bounds, credit
 * conservation, VC ownership, worm-chain positions). It is always
 * compiled in — simulation correctness beats the trivial cost of an
 * O(1) branch, even in release builds. O(network) structural checks
 * live in one place instead, Network::audit(), which the
 * WORMNET_CHECK_ACTIVE_SETS environment variable runs every cycle.
 *
 * A failed contract calls panic() (an internal wormnet bug, throws
 * PanicError); contracts are not for user errors — use fatal() for
 * those. Extra arguments are appended to the message.
 */

#ifndef WORMNET_COMMON_CONTRACTS_HH
#define WORMNET_COMMON_CONTRACTS_HH

#include "common/log.hh"

#define WORMNET_ASSERT(cond, ...)                                      \
    do {                                                               \
        if (!(cond)) {                                                 \
            ::wormnet::panic("contract violated: ", #cond, " at ",     \
                             __FILE__, ":",                            \
                             __LINE__ __VA_OPT__(, ) __VA_ARGS__);     \
        }                                                              \
    } while (0)

#endif // WORMNET_COMMON_CONTRACTS_HH
