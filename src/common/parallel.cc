#include "common/parallel.hh"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.hh"

namespace wormnet
{

std::optional<unsigned>
parseJobs(std::string_view text)
{
    // from_chars takes no leading '+' or whitespace, and reports a
    // value too large for unsigned instead of wrapping it.
    unsigned jobs = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, jobs);
    if (ec != std::errc() || ptr != end || jobs == 0)
        return std::nullopt;
    return jobs;
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("WORMNET_JOBS")) {
        if (const auto jobs = parseJobs(env))
            return *jobs;
        warn("ignoring WORMNET_JOBS='", env,
             "' (want a positive integer)");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    if (jobs == 0)
        jobs = defaultJobs();
    if (n < jobs)
        jobs = static_cast<unsigned>(n);

    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex errMutex;
    std::size_t errIndex = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;

    std::vector<std::jthread> workers;
    workers.reserve(jobs);
    for (unsigned j = 0; j < jobs; ++j) {
        workers.emplace_back([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                {
                    // Best-effort cancellation: indices above a
                    // failed one would not have run serially.
                    std::lock_guard<std::mutex> lock(errMutex);
                    if (error && i > errIndex)
                        continue;
                }
                try {
                    body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(errMutex);
                    if (!error || i < errIndex) {
                        errIndex = i;
                        error = std::current_exception();
                    }
                }
            }
        });
    }
    // Joins every worker; if a spawn throws, the destructor does.
    workers.clear();
    if (error)
        std::rethrow_exception(error);
}

} // namespace wormnet
