/**
 * @file
 * DRI parameter validation and derived quantities (shared by every
 * resizable cache level, not just the L1 i-cache).
 */

#include "core/dri_params.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace drisim
{

unsigned
DriParams::resizingTagBits() const
{
    return exactLog2(sizeBytes / sizeBoundBytes);
}

std::uint64_t
DriParams::setBytes() const
{
    return static_cast<std::uint64_t>(blockBytes) * assoc;
}

bool
DriParams::sizeBoundFits(std::uint64_t bound) const
{
    return bound >= setBytes() && bound <= sizeBytes;
}

void
DriParams::validate() const
{
    if (!isPowerOf2(sizeBytes) || !isPowerOf2(blockBytes) ||
        !isPowerOf2(sizeBoundBytes))
        drisim_fatal("DRI sizes must be powers of two");
    if (!sizeBoundFits(sizeBoundBytes))
        drisim_fatal(sizeBoundBytes > sizeBytes
                         ? "size-bound exceeds the cache size"
                         : "size-bound smaller than one set");
    if (!isPowerOf2(divisibility) || divisibility < 2)
        drisim_fatal("divisibility must be a power of two >= 2");
    if (senseInterval == 0)
        drisim_fatal("sense interval must be positive");
}

} // namespace drisim
