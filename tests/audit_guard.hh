/**
 * @file
 * Shared by the suites that run Network::audit() every cycle
 * (test_active_sets.cpp, test_soa_layout.cpp).
 */

#ifndef WORMNET_TESTS_AUDIT_GUARD_HH
#define WORMNET_TESTS_AUDIT_GUARD_HH

#include <cstdlib>

namespace wormnet
{

/** Sets WORMNET_CHECK_ACTIVE_SETS while alive, so Networks
 *  constructed meanwhile run Network::audit() at the end of every
 *  step() (the flag is latched in the Network constructor). */
class AuditEachStepGuard
{
  public:
    AuditEachStepGuard()
    {
        ::setenv("WORMNET_CHECK_ACTIVE_SETS", "1", 1);
    }
    ~AuditEachStepGuard()
    {
        ::unsetenv("WORMNET_CHECK_ACTIVE_SETS");
    }
};

} // namespace wormnet

#endif // WORMNET_TESTS_AUDIT_GUARD_HH
