/**
 * @file
 * Simulation status and error reporting, modeled after gem5's
 * logging discipline: warn() for status, fatal() for user
 * errors (bad configuration), panic() for internal invariant
 * violations (bugs in this library).
 */

#ifndef SNIP_UTIL_LOGGING_H
#define SNIP_UTIL_LOGGING_H

#include <cstdarg>
#include <string>

namespace snip {
namespace util {

/**
 * Print a warning about suspicious-but-tolerable conditions
 * (printf-style) to stderr. Never terminates the process.
 */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable *user* error (bad configuration, invalid
 * arguments) and terminate with exit code 1.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation (a bug in this library) and
 * abort(), allowing a core dump / debugger entry.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Install a handler that throws std::runtime_error instead of
 * terminating, for use in death-avoidant unit tests. Returns the
 * previous setting.
 */
bool setThrowOnError(bool enable);

}  // namespace util
}  // namespace snip

#endif  // SNIP_UTIL_LOGGING_H
