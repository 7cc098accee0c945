/**
 * @file
 * Shared resize machinery: sense-interval resize steps, the size and
 * index masks, gating/writeback/remap handling and active-size
 * integrals.
 */

#include "mem/resizable_cache.hh"

namespace drisim
{

CacheParams
cacheParamsFor(const DriParams &params, const std::string &name)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = params.sizeBytes;
    p.assoc = params.assoc;
    p.blockBytes = params.blockBytes;
    p.hitLatency = params.hitLatency;
    p.repl = params.repl;
    p.mshrs = params.mshrs;
    return p;
}

ResizableCache::ResizableCache(const DriParams &params,
                               const ResizePolicy &policy,
                               MemoryLevel *below,
                               stats::StatGroup *parent,
                               const std::string &groupName)
    : LeakagePolicy(cacheParamsFor(params, groupName), below, parent),
      dri_(params),
      policy_(policy),
      mask_(makeSizeMask(params)),
      controller_(params),
      upsizes_(&group_, "upsizes", "interval decisions: upsize"),
      downsizes_(&group_, "downsizes", "interval decisions: downsize"),
      holds_(&group_, "holds", "interval decisions: hold"),
      blocksLost_(&group_, "blocks_lost",
                  "valid blocks destroyed by gating sets off"),
      resizeWritebacks_(&group_, "resize_writebacks",
                        "dirty blocks written back by resizing"),
      remapInvalidations_(&group_, "remap_invalidations",
                          "blocks invalidated because upsizing "
                          "changed their set index")
{
}

void
ResizableCache::writebackBlock(const CacheBlk &blk)
{
    if (below_)
        below_->access(blk.blockAddr << offsetBits_, AccessType::Store);
}

bool
ResizableCache::retireInstructions(InstCount n)
{
    bool resized = false;
    // A large n can cross several interval boundaries; honour each.
    while (controller_.recordInstructions(n)) {
        n = 0;
        const std::uint64_t misses = controller_.missCount();
        const std::uint64_t before = mask_.numSets();
        const std::uint64_t sets = controller_.step(mask_);
        history_.push_back({misses, sets});
        if (sets == before) {
            ++holds_;
            continue;
        }
        if (sets < before)
            ++downsizes_;
        else
            ++upsizes_;
        resizeTo(sets);
        resized = true;
    }
    return resized;
}

void
ResizableCache::resizeTo(std::uint64_t newSets)
{
    const std::uint64_t old_sets = mask_.numSets();

    if (newSets < old_sets) {
        // Gating the supply destroys the state of the disabled
        // sets: dirty blocks must reach the lower level first.
        for (std::uint64_t s = newSets; s < old_sets; ++s) {
            for (unsigned w = 0; w < store_.assoc(); ++w) {
                const CacheBlk &blk = store_.set(s)[w];
                if (!blk.valid)
                    continue;
                ++blocksLost_;
                if (policy_.holdsData && blk.dirty) {
                    ++resizeWritebacks_;
                    writebackBlock(blk);
                }
            }
            store_.invalidateSet(s);
        }
        setSets(newSets);
        return;
    }

    // Upsizing: newly enabled sets were gated and are already
    // invalid. Where stale aliases are not harmless (any level
    // holding data), evict every surviving block whose set index
    // changes under the wider mask; the read-only i-stream skips
    // this (Section 2.2).
    setSets(newSets);
    if (!policy_.holdsData)
        return;
    for (std::uint64_t s = 0; s < old_sets; ++s) {
        for (unsigned w = 0; w < store_.assoc(); ++w) {
            const CacheBlk blk = store_.set(s)[w];
            if (!blk.valid)
                continue;
            if (indexOf(blk.blockAddr) != s) {
                if (blk.dirty) {
                    ++resizeWritebacks_;
                    writebackBlock(blk);
                }
                store_.invalidate(s, w);
                ++remapInvalidations_;
            }
        }
    }
}

void
ResizableCache::setSets(std::uint64_t sets)
{
    mask_.setNumSets(sets);
    indexMask_ = mask_.mask();
}

PolicyActivity
ResizableCache::activity() const
{
    PolicyActivity a;
    a.avgActiveFraction = averageActiveFraction();
    a.blocksLost = blocksLost();
    a.resizes = upsizes() + downsizes();
    a.throttleEvents = controller().throttleEvents();
    a.resizingTagBits = params().resizingTagBits();
    a.coherenceRefetches = coherenceRefetches();
    return a;
}

double
ResizableCache::activeFraction() const
{
    return static_cast<double>(mask_.numSets()) /
           static_cast<double>(mask_.maxSets());
}

std::uint64_t
ResizableCache::currentSizeBytes() const
{
    return mask_.numSets() *
           static_cast<std::uint64_t>(dri_.blockBytes) * dri_.assoc;
}

void
ResizableCache::invalidateAll()
{
    if (policy_.holdsData) {
        for (std::uint64_t s = 0; s < mask_.numSets(); ++s) {
            for (unsigned w = 0; w < store_.assoc(); ++w) {
                const CacheBlk &blk = store_.set(s)[w];
                if (blk.valid && blk.dirty) {
                    ++resizeWritebacks_;
                    writebackBlock(blk);
                }
            }
        }
    }
    Cache::invalidateAll();
}

void
ResizableCache::integrateCycles(Cycles delta)
{
    activeSetCycles_ += static_cast<double>(mask_.numSets()) *
                        static_cast<double>(delta);
    integratedCycles_ += delta;
}

double
ResizableCache::averageActiveFraction() const
{
    if (integratedCycles_ == 0)
        return activeFraction();
    return activeSetCycles_ /
           (static_cast<double>(mask_.maxSets()) *
            static_cast<double>(integratedCycles_));
}

bool
ResizableCache::mappingConsistent() const
{
    for (std::uint64_t s = 0; s < mask_.numSets(); ++s) {
        for (unsigned w = 0; w < store_.assoc(); ++w) {
            const CacheBlk &blk = store_.set(s)[w];
            if (blk.valid && indexOf(blk.blockAddr) != s)
                return false;
        }
    }
    return true;
}

} // namespace drisim
