/**
 * @file
 * Status/error reporting in the gem5 style.
 *
 * panic()  — a drisim bug: a condition that must never happen
 *            regardless of user input. Aborts.
 * fatal()  — a user error (bad configuration, invalid parameters).
 *            Exits with status 1.
 * warn()   — something works but is suspicious or approximate.
 */

#ifndef DRISIM_UTIL_LOGGING_HH
#define DRISIM_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace drisim
{

/** Severity used by the message hooks. */
enum class LogLevel { Warn, Fatal, Panic };

/**
 * Redirect log output for tests; pass nullptr to restore stderr.
 * The hook receives the fully-formatted message (no trailing \n).
 */
void setLogHook(void (*hook)(LogLevel, const std::string &));

/** Internal: format and emit, then abort. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Internal: format and emit, then exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Emit a warning. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace drisim

/** Simulator-bug check: abort with location info. */
#define drisim_panic(...) \
    ::drisim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** User-error check: exit(1) with location info. */
#define drisim_fatal(...) \
    ::drisim::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** panic() unless the invariant @p cond holds. */
#define drisim_assert(cond, ...)                                        \
    do {                                                                \
        if (!(cond))                                                    \
            ::drisim::panicImpl(__FILE__, __LINE__, __VA_ARGS__);       \
    } while (0)

#endif // DRISIM_UTIL_LOGGING_HH
