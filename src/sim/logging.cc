#include "sim/logging.hh"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <vector>

namespace tsim
{

std::string
logFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::uint64_t
parseCount(const char *flag, const char *arg, std::uint64_t max)
{
    const char *end = arg + std::strlen(arg);
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(arg, end, v);
    if (ec != std::errc() || ptr != end || v > max) {
        std::fprintf(stderr, "%s wants an unsigned integer, got '%s'\n",
                     flag, arg);
        std::exit(1);
    }
    return v;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

} // namespace tsim
