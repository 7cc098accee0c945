/**
 * @file
 * Minimal JSON reading/writing shared by the result-cache sidecar
 * (sim/result_cache.cc), the sweep-farm fragment/merge layer
 * (farm/fragment.cc) and the bench --json reports.
 *
 * Only the subset those artifacts use is supported: objects,
 * arrays, strings, unsigned integers and booleans. Any deviation
 * sets ok=false and the caller treats the whole document as
 * unusable — recompute, never serve garbage.
 */

#ifndef DRISIM_UTIL_JSON_HH
#define DRISIM_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace drisim
{

/** Escape a string for embedding in a JSON document. Control
 *  characters (including newlines — required by the line-oriented
 *  sidecar format) are always escaped. */
std::string jsonEscape(const std::string &s);

/**
 * Hand-rolled recursive-descent reader over an in-memory document.
 * All parse methods leave ok=false on malformed input; callers
 * check ok once at the end (or wherever they need to bail).
 */
struct JsonParser
{
    const std::string &s;
    std::size_t pos = 0;
    bool ok = true;

    explicit JsonParser(const std::string &text) : s(text) {}

    void skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool consume(char c)
    {
        skipWs();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        ok = false;
        return false;
    }

    bool peek(char c)
    {
        skipWs();
        return pos < s.size() && s[pos] == c;
    }

    /** Consume `"key":`, the next field of one of our fixed-order
     *  formats; anything else leaves ok=false. */
    bool expectKey(const char *key)
    {
        if (parseString() != key)
            ok = false;
        return ok && consume(':');
    }

    std::string parseString();
    std::uint64_t parseUInt();
    bool parseBool();

    /** Parse {"k":"v",...} of string values. */
    std::map<std::string, std::string> parseStringMap();

    /** Parse ["a","b",...] of strings. */
    std::vector<std::string> parseStringArray();

    /** Parse [["a",...],...] — an array of string arrays. */
    std::vector<std::vector<std::string>> parseStringArrayArray();
};

} // namespace drisim

#endif // DRISIM_UTIL_JSON_HH
