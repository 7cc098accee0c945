/**
 * @file
 * Bit-manipulation helpers used by the cache index/tag machinery.
 *
 * All helpers are constexpr and branch-light; the DRI i-cache mask
 * logic (Section 2.1 of the paper) is built on these.
 */

#ifndef DRISIM_UTIL_BITOPS_HH
#define DRISIM_UTIL_BITOPS_HH

#include <bit>
#include <cassert>
#include <cstdint>

namespace drisim
{

/** Return true iff @p v is a (non-zero) power of two. */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Floor of log2 of @p v.
 * @pre v != 0
 */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    assert(v != 0);
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/**
 * Exact log2 of @p v.
 * @pre v is a power of two
 */
constexpr unsigned
exactLog2(std::uint64_t v)
{
    assert(isPowerOf2(v));
    return floorLog2(v);
}

/** A mask with the low @p n bits set (n may be 0..64). */
constexpr std::uint64_t
maskLow(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/**
 * Extract bits [hi:lo] (inclusive, hi >= lo) of @p v, right-justified.
 */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned hi, unsigned lo)
{
    assert(hi >= lo && hi < 64);
    return (v >> lo) & maskLow(hi - lo + 1);
}

/** Round @p v up to the next multiple of power-of-two @p align. */
constexpr std::uint64_t
roundUp(std::uint64_t v, std::uint64_t align)
{
    assert(isPowerOf2(align));
    return (v + align - 1) & ~(align - 1);
}

} // namespace drisim

#endif // DRISIM_UTIL_BITOPS_HH
