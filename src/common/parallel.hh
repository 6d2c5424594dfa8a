/**
 * @file
 * A deterministic parallel_for layer over plain threads.
 *
 * The experiment harness runs hundreds of independent simulations
 * (table cells x seed replications, saturation probes); this module
 * fans them across threads without sacrificing reproducibility. The
 * contract that makes that possible: parallelFor() bodies are
 * independent and each writes only to its own pre-sized output slot,
 * so results are identical to a serial loop regardless of job count
 * or scheduling order. Reductions over those slots then happen
 * sequentially in index order, which keeps floating-point
 * accumulation bitwise-identical to the serial code path.
 *
 * Job-count resolution (defaultJobs()): the WORMNET_JOBS environment
 * variable when set to a positive integer, otherwise the hardware
 * concurrency. Benches additionally accept --jobs, which overrides
 * both. jobs=1 always executes on the caller thread.
 */

#ifndef WORMNET_COMMON_PARALLEL_HH
#define WORMNET_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>

namespace wormnet
{

/**
 * Parse a job count: a positive integer that fits in unsigned, with
 * no sign, whitespace or trailing characters; std::nullopt otherwise.
 */
std::optional<unsigned> parseJobs(std::string_view text);

/**
 * Resolve the job count used when a caller passes jobs=0: the
 * WORMNET_JOBS environment variable if set to a positive integer,
 * otherwise std::thread::hardware_concurrency() (minimum 1).
 */
unsigned defaultJobs();

/**
 * Run body(0) .. body(n-1) across @p jobs threads.
 *
 * Scheduling is dynamic (an atomic index counter), so iteration order
 * is unspecified; the body must write only to per-index state.
 * jobs=0 resolves via defaultJobs(); an effective job count of 1 (or
 * n <= 1) runs the plain loop on the caller thread with no threads
 * created.
 *
 * Exceptions: the exception thrown by the *lowest failing index* is
 * rethrown once all in-flight iterations finish — the same exception
 * a serial run would surface, keeping error behaviour independent of
 * the job count. Indices above a failed one are skipped best-effort.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace wormnet

#endif // WORMNET_COMMON_PARALLEL_HH
