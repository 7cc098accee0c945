/**
 * @file
 * DRI i-cache: fetch-only access over the shared resize machinery
 * and alias-sweeping invalidation.
 */

#include "core/dri_icache.hh"

#include "util/logging.hh"

namespace drisim
{

DriICache::DriICache(const DriParams &params, MemoryLevel *below,
                     stats::StatGroup *parent)
    : ResizableCache(params, ResizePolicy::icache(), below, parent,
                     "dri_icache"),
      aliasInvalidations_(&group_, "alias_invalidations",
                          "blocks removed by invalidateBlock sweeps")
{
}

AccessResult
DriICache::access(Addr addr, AccessType type)
{
    drisim_assert(type == AccessType::InstFetch,
                  "DRI i-cache only serves instruction fetches");
    return accessTimed(addr, type, 0);
}

AccessResult
DriICache::accessAt(Addr addr, AccessType type, Cycles now)
{
    drisim_assert(type == AccessType::InstFetch,
                  "DRI i-cache only serves instruction fetches");
    return accessTimed(addr, type, now);
}

void
DriICache::invalidateBlock(Addr addr)
{
    const Addr ba = blockAddr(addr);
    const std::uint64_t min_sets = mask_.minSets();
    const std::uint64_t congruent = ba & (min_sets - 1);
    for (std::uint64_t s = congruent; s < mask_.numSets();
         s += min_sets) {
        int way = store_.findWay(s, ba);
        if (way != TagStore::kNoWay) {
            store_.invalidate(s, static_cast<unsigned>(way));
            ++aliasInvalidations_;
        }
    }
}

} // namespace drisim
