/**
 * @file
 * Error and status reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * panic()  - an internal simulator invariant was violated (a bug);
 *            aborts.
 * fatal()  - the user asked for something the simulator cannot do
 *            (bad configuration); exits with an error code.
 */

#ifndef TSIM_SIM_LOGGING_HH
#define TSIM_SIM_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace tsim
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/**
 * Parse @p arg, the value of command-line option @p flag, as an
 * unsigned count no larger than @p max. Empty input, a sign,
 * non-digits, trailing junk and overflow print "<flag> wants an
 * unsigned integer, got '<arg>'" to stderr and exit(1).
 */
std::uint64_t
parseCount(const char *flag, const char *arg,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** printf-style formatting into a std::string. */
std::string logFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace tsim

#define panic(...) \
    ::tsim::panicImpl(__FILE__, __LINE__, ::tsim::logFormat(__VA_ARGS__))

#define fatal(...) \
    ::tsim::fatalImpl(__FILE__, __LINE__, ::tsim::logFormat(__VA_ARGS__))

/** Panic if a simulator invariant does not hold. */
#define panic_if(cond, ...)                                              \
    do {                                                                 \
        if (cond)                                                        \
            panic(__VA_ARGS__);                                          \
    } while (0)

/** Fatal if a user-visible configuration constraint does not hold. */
#define fatal_if(cond, ...)                                              \
    do {                                                                 \
        if (cond)                                                        \
            fatal(__VA_ARGS__);                                          \
    } while (0)

#endif // TSIM_SIM_LOGGING_HH
