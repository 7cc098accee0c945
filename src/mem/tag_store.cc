/**
 * @file
 * Set/way tag array with per-block state and resizing-tag support.
 */

#include "mem/tag_store.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace drisim
{

namespace
{

/** Frames per chunk: 4 KB of them. */
constexpr std::uint64_t kChunkFrames = 4096 / sizeof(CacheBlk);

} // namespace

TagStore::TagStore(std::uint64_t numSets, unsigned assoc,
                   ReplPolicy policy)
    : numSets_(numSets), assoc_(assoc), policy_(policy),
      blankSet_(assoc)
{
    drisim_assert(numSets > 0 && isPowerOf2(numSets),
                  "numSets must be a power of two");
    drisim_assert(assoc > 0, "associativity must be positive");
    // As many sets as fit kChunkFrames (at least one), at most all.
    chunkShift_ = std::min(
        floorLog2(std::max<std::uint64_t>(kChunkFrames / assoc, 1)),
        floorLog2(numSets));
    // The frame array is the store's last allocation and, declared
    // before the vectors, its last release, so no allocation of the
    // store sits above it in the heap and freeing it can merge it
    // into free memory above. Allocating the flags after it left
    // holes that kept policy_compare's peak RSS 0.5% above that of a
    // store writing every frame at construction; in this order it is
    // about 1% below.
    filled_.assign(numSets >> chunkShift_, 0);
    blocks_.reset(static_cast<CacheBlk *>(
        ::operator new(numSets * assoc * sizeof(CacheBlk))));
}

void
TagStore::fillChunk(std::uint64_t chunk)
{
    const std::uint64_t frames = std::uint64_t{assoc_} << chunkShift_;
    std::uninitialized_default_construct_n(
        blocks_.get() + chunk * frames, frames);
    filled_[chunk] = 1;
}

std::span<CacheBlk>
TagStore::mutableSet(std::uint64_t set)
{
    checkSet(set);
    return {blocks_.get() + set * assoc_, assoc_};
}

std::span<const CacheBlk>
TagStore::set(std::uint64_t set) const
{
    checkSet(set);
    if (!chunkFilled(set))
        return blankSet_;
    return {blocks_.get() + set * assoc_, assoc_};
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
    auto ways = filledSet(set);
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
    checkSet(set);
    if (!chunkFilled(set))
        return;
    for (CacheBlk &blk : mutableSet(set))
        blk.invalidate();
}

void
TagStore::invalidateAll()
{
    for (std::uint64_t s = 0; s < numSets_; ++s)
        invalidateSet(s);
}

std::uint64_t
TagStore::validCount() const
{
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s < numSets_; ++s)
        for (const CacheBlk &blk : set(s))
            n += blk.valid;
    return n;
}

std::uint64_t
TagStore::filledChunks() const
{
    std::uint64_t n = 0;
    for (const std::uint8_t f : filled_)
        n += f;
    return n;
}

} // namespace drisim
