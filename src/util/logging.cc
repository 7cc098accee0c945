/**
 * @file
 * Leveled logging sinks.
 */

#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace drisim
{

namespace
{

void (*logHook)(LogLevel, const std::string &) = nullptr;

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
emit(LogLevel level, const std::string &msg)
{
    if (logHook) {
        logHook(level, msg);
        return;
    }
    const char *prefix = "";
    switch (level) {
      case LogLevel::Warn:   prefix = "warn: "; break;
      case LogLevel::Fatal:  prefix = "fatal: "; break;
      case LogLevel::Panic:  prefix = "panic: "; break;
    }
    std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

} // namespace

void
setLogHook(void (*hook)(LogLevel, const std::string &))
{
    logHook = hook;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit(LogLevel::Panic,
         msg + " (" + file + ":" + std::to_string(line) + ")");
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emit(LogLevel::Fatal,
         msg + " (" + file + ":" + std::to_string(line) + ")");
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit(LogLevel::Warn, vformat(fmt, ap));
    va_end(ap);
}

} // namespace drisim
