/**
 * @file
 * Set/way tag array with per-block state and resizing-tag support.
 */

#include "mem/tag_store.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace drisim
{

TagStore::TagStore(std::uint64_t numSets, unsigned assoc,
                   ReplPolicy policy)
    : numSets_(numSets), assoc_(assoc), policy_(policy),
      blocks_(numSets * assoc)
{
    drisim_assert(numSets > 0 && isPowerOf2(numSets),
                  "numSets must be a power of two");
    drisim_assert(assoc > 0, "associativity must be positive");
}

std::span<CacheBlk>
TagStore::mutableSet(std::uint64_t set)
{
    drisim_assert(set < numSets_, "set %llu out of range",
                  static_cast<unsigned long long>(set));
    return {blocks_.data() + set * assoc_, assoc_};
}

std::span<const CacheBlk>
TagStore::set(std::uint64_t set) const
{
    drisim_assert(set < numSets_, "set %llu out of range",
                  static_cast<unsigned long long>(set));
    return {blocks_.data() + set * assoc_, assoc_};
}

int
TagStore::findWay(std::uint64_t set, Addr blockAddr) const
{
    auto ways = this->set(set);
    for (unsigned w = 0; w < assoc_; ++w) {
        if (ways[w].valid && ways[w].blockAddr == blockAddr)
            return static_cast<int>(w);
    }
    return kNoWay;
}

std::uint64_t
TagStore::nextTick()
{
    drisim_assert(tick_ < CacheBlk::kMaxTouch,
                  "replacement clock past its %u-bit timestamps",
                  CacheBlk::kTouchBits);
    return ++tick_;
}

void
TagStore::touch(std::uint64_t set, unsigned way)
{
    mutableSet(set)[way].lastTouch = nextTick();
}

CacheBlk
TagStore::insert(std::uint64_t set, Addr blockAddr)
{
    return insert(set, blockAddr, assoc_, nullptr);
}

CacheBlk
TagStore::insert(std::uint64_t set, Addr blockAddr,
                 unsigned waysLimit, unsigned *wayOut)
{
    drisim_assert(waysLimit >= 1 && waysLimit <= assoc_,
                  "waysLimit %u outside [1, %u]", waysLimit, assoc_);
    auto ways = mutableSet(set);
    unsigned victim = selectVictim({ways.data(), waysLimit},
                                   policy_, nextTick());
    CacheBlk evicted = ways[victim];
    ways[victim].blockAddr = blockAddr;
    ways[victim].valid = true;
    ways[victim].dirty = false;
    ways[victim].lastTouch = tick_;
    if (wayOut)
        *wayOut = victim;
    return evicted;
}

void
TagStore::markDirty(std::uint64_t set, unsigned way)
{
    mutableSet(set)[way].dirty = true;
}

void
TagStore::clearDirty(std::uint64_t set, unsigned way)
{
    mutableSet(set)[way].dirty = false;
}

void
TagStore::setCoherenceState(std::uint64_t set, unsigned way,
                            CoherenceState s)
{
    mutableSet(set)[way].cstate = s;
}

void
TagStore::invalidate(std::uint64_t set, unsigned way)
{
    mutableSet(set)[way].invalidate();
}

void
TagStore::invalidateSet(std::uint64_t set)
{
    for (auto &blk : mutableSet(set))
        blk.invalidate();
}

void
TagStore::invalidateAll()
{
    for (auto &blk : blocks_)
        blk.invalidate();
}

std::uint64_t
TagStore::validCount() const
{
    std::uint64_t n = 0;
    for (const auto &blk : blocks_) {
        if (blk.valid)
            ++n;
    }
    return n;
}

} // namespace drisim
