/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic() is for simulator bugs (aborts); fatal() is for user error such
 * as an inconsistent configuration (clean exit); warn()/inform() print
 * and continue. All accept printf-style format strings.
 */

#ifndef MDA_SIM_LOGGING_HH
#define MDA_SIM_LOGGING_HH

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mda
{

/** Severity classes understood by the logger. */
enum class LogLevel { Panic, Fatal, Warn, Inform };

namespace logging_detail
{

/** Whether warn()/inform() output is suppressed (tests use this).
 *  Atomic: sweep workers call warn()/inform() concurrently while the
 *  harness may toggle suppression around a parallel section. */
extern std::atomic<bool> quiet;

void vreport(LogLevel level, const char *fmt, std::va_list args);

} // namespace logging_detail

/** Suppress (or re-enable) warn/inform output. Returns prior value. */
bool setQuietLogging(bool quiet);

/**
 * Report an internal simulator bug and abort with a core dump.
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Warn about suspicious but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** panic() unless @p cond holds; @p msg is a printf format string. */
// The condition text is passed as a %s argument, not spliced into the
// format: a '%' inside the condition (e.g. `a % b == 0`) must not be
// parsed as a conversion.
#define mda_assert(cond, msg, ...)                                      \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::mda::panic("assertion '%s' failed at " __FILE__ ": " msg, \
                         #cond, ##__VA_ARGS__);                         \
        }                                                               \
    } while (0)

} // namespace mda

/** Branch-prediction hint for rarely taken paths (observation gates,
 *  error checks). */
#define MDA_UNLIKELY(x) __builtin_expect(!!(x), 0)

#endif // MDA_SIM_LOGGING_HH
