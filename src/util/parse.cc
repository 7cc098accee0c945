/**
 * @file
 * Strict bounded number parsing for user-facing knobs.
 */

#include "util/parse.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

namespace drisim
{

bool
parseUnsignedValue(std::string_view text, std::uint64_t &out,
                   std::uint64_t maxValue)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit =
            static_cast<std::uint64_t>(c - '0');
        // Guard the multiply, then the add, in unsigned-safe order
        // (maxValue - digit could underflow when digit > maxValue,
        // which is exactly the small-bound single-digit case).
        if (v > maxValue / 10)
            return false;
        v *= 10;
        if (digit > maxValue - v)
            return false;
        v += digit;
    }
    out = v;
    return true;
}

bool
parsePositiveValue(std::string_view text, std::uint64_t &out,
                   std::uint64_t maxValue)
{
    std::uint64_t v = 0;
    if (!parseUnsignedValue(text, v, maxValue) || v == 0)
        return false;
    out = v;
    return true;
}

bool
parseFiniteValue(std::string_view text, double &out)
{
    // strtod would skip leading whitespace; nothing else may either.
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text.front())))
        return false;
    const std::string s(text); // strtod needs a terminator
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace drisim
