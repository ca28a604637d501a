#include "util/logging.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <unistd.h>

namespace snip {
namespace util {

namespace {

bool g_throw_on_error = false;

/** Format a va_list into a std::string. */
std::string
vformat(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data());
}

/**
 * Write one complete log line to stderr with a single write(2).
 * stderr is unbuffered, so a multi-argument fprintf can reach the
 * fd in several chunks and interleave with lines from other threads
 * (the SNIP audit watchdog warns from whatever thread runs the
 * session); one syscall per line keeps every line intact.
 */
void
emitLine(std::string line)
{
    line.push_back('\n');
    size_t off = 0;
    while (off < line.size()) {
        ssize_t n = ::write(STDERR_FILENO, line.data() + off,
                            line.size() - off);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return;
        }
        off += static_cast<size_t>(n);
    }
}

}  // namespace

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    emitLine("warn: " + msg);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    if (g_throw_on_error)
        throw std::runtime_error("fatal: " + msg);
    emitLine("fatal: " + msg);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    if (g_throw_on_error)
        throw std::runtime_error("panic: " + msg);
    emitLine("panic: " + msg);
    std::abort();
}

bool
setThrowOnError(bool enable)
{
    bool prev = g_throw_on_error;
    g_throw_on_error = enable;
    return prev;
}

}  // namespace util
}  // namespace snip
