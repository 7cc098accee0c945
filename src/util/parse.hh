/**
 * @file
 * Strict bounded number parsing shared by every user-facing count
 * knob (`jobs=`, `cores=`, the sense-interval keys, ...) and the
 * numeric environment variables.
 *
 * std::strtoull silently accepts a leading '-' and wraps the value,
 * so "jobs=-1" would ask for four billion workers and
 * "dri.interval=-1" for a 2^64-instruction sense interval. Routing
 * all such knobs through one parser rejects sign characters, junk
 * suffixes and out-of-range values uniformly instead of each call
 * site re-discovering the wraparound bug.
 */

#ifndef DRISIM_UTIL_PARSE_HH
#define DRISIM_UTIL_PARSE_HH

#include <cstdint>
#include <string_view>

namespace drisim
{

/**
 * Parse a plain-decimal unsigned integer in [0, maxValue].
 * Only digits are accepted — no sign, whitespace, or suffix — and
 * overflow past @p maxValue fails instead of wrapping. Returns false
 * without touching @p out on bad input.
 */
bool parseUnsignedValue(std::string_view text, std::uint64_t &out,
                        std::uint64_t maxValue = UINT64_MAX);

/**
 * parseUnsignedValue restricted to [1, maxValue]: the flavour for
 * counts where zero is meaningless (`cores=`, `interval=`).
 */
bool parsePositiveValue(std::string_view text, std::uint64_t &out,
                        std::uint64_t maxValue = UINT64_MAX);

/**
 * Parse a finite decimal or scientific number ("0.05", "-2",
 * "1e-3"). The whole text must be the number — no whitespace or
 * suffix — and nan, infinities and overflow ("1e999") fail. Returns
 * false without touching @p out on bad input.
 */
bool parseFiniteValue(std::string_view text, double &out);

} // namespace drisim

#endif // DRISIM_UTIL_PARSE_HH
