/**
 * @file
 * Error-reporting helpers in the spirit of gem5's fatal()/panic().
 *
 * fatal() reports a user-caused condition (bad arguments, impossible
 * configuration) and exits; panic() reports an internal invariant
 * violation and aborts.
 */

#ifndef HAMMER_COMMON_LOGGING_HPP
#define HAMMER_COMMON_LOGGING_HPP

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hammer::common {

/**
 * Abort the process due to an internal invariant violation.
 *
 * @param msg Description of the broken invariant.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/**
 * Report an unrecoverable user error by throwing std::invalid_argument.
 *
 * Throwing (instead of exit(1)) keeps library code testable: unit tests
 * assert on the exception rather than watching for process death.
 *
 * @param msg Description of the invalid input.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw std::invalid_argument(msg);
}

/**
 * Throw std::invalid_argument when @p cond is false.
 *
 * @p msg is a view, so a passing check on a hot path (one per weight
 * in Rng::discrete) builds no std::string; the message is copied
 * only when the check fails.
 */
inline void
require(bool cond, std::string_view msg)
{
    if (!cond)
        fatal(std::string(msg));
}

} // namespace hammer::common

#endif // HAMMER_COMMON_LOGGING_HPP
