/**
 * @file
 * Generic set-associative tag/data directory.
 *
 * Both the conventional caches and the DRI i-cache are built on this
 * store; the DRI i-cache simply restricts which sets are live and
 * remaps the index (size mask).
 *
 * Frames are written on first use. The frame array is allocated raw
 * and split into chunks of about 4 KB of frames (a power-of-two
 * number of sets); the first insert that reaches a chunk fills it
 * with default frames. A chunk no insert reached holds no valid
 * frame, so a lookup there misses without reading it and its pages
 * never become resident: a coherent 4-core mix fills 8-16 of its
 * L2's 64 chunks and one of each L1I's 8. Every observable read,
 * the checkpoint walk included, sees such a chunk as default frames.
 */

#ifndef DRISIM_MEM_TAG_STORE_HH
#define DRISIM_MEM_TAG_STORE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"
#include "mem/cache_blk.hh"
#include "mem/repl_policy.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/**
 * A numSets x assoc array of block frames, addressed by set index
 * and full block address.
 */
class TagStore
{
  public:
    TagStore(std::uint64_t numSets, unsigned assoc,
             ReplPolicy policy = ReplPolicy::LRU);

    std::uint64_t numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** Not-found sentinel for findWay(). */
    static constexpr int kNoWay = -1;

    /**
     * Find the way holding @p blockAddr within @p set, or kNoWay.
     * Does not update replacement state.
     */
    int findWay(std::uint64_t set, Addr blockAddr) const
    {
        checkSet(set);
        if (!chunkFilled(set)) [[unlikely]]
            return kNoWay;
        const CacheBlk *ways = blocks_.get() + set * assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (ways[w].valid && ways[w].blockAddr == blockAddr)
                return static_cast<int>(w);
        }
        return kNoWay;
    }

    /** Mark @p way of @p set most-recently used. */
    void touch(std::uint64_t set, unsigned way);

    /**
     * Insert @p blockAddr into @p set, evicting the policy's victim.
     * @return the evicted frame's prior contents (valid == false if
     *         the frame was free).
     */
    CacheBlk insert(std::uint64_t set, Addr blockAddr);

    /**
     * insert() with the victim choice restricted to ways
     * [0, waysLimit) — the selective-ways gating support: frames in
     * gated ways are never allocated, so a way-gated cache behaves
     * exactly like one of narrower associativity. @p wayOut (if
     * non-null) receives the filled way for per-line policy
     * bookkeeping.
     */
    CacheBlk insert(std::uint64_t set, Addr blockAddr,
                    unsigned waysLimit, unsigned *wayOut);

    /** Mark @p way of @p set dirty (store hit). */
    void markDirty(std::uint64_t set, unsigned way);

    /** Clear @p way's dirty bit (coherence downgrade flushed it). */
    void clearDirty(std::uint64_t set, unsigned way);

    /** MSI state of one frame (mem/directory.hh). */
    CoherenceState coherenceState(std::uint64_t set,
                                  unsigned way) const
    {
        return this->set(set)[way].cstate;
    }
    void setCoherenceState(std::uint64_t set, unsigned way,
                           CoherenceState s);

    /** Invalidate one frame. */
    void invalidate(std::uint64_t set, unsigned way);

    /** Invalidate every frame of @p set. */
    void invalidateSet(std::uint64_t set);

    /** Invalidate the whole store. */
    void invalidateAll();

    /** Read-only view of a set's ways (default frames owned by the
     *  store for a set in an unfilled chunk). */
    std::span<const CacheBlk> set(std::uint64_t set) const;

    /** Number of valid frames (for tests/occupancy stats). */
    std::uint64_t validCount() const;

    /** Chunks whose frames an insert or a restore wrote (tests). */
    std::uint64_t filledChunks() const;

    /** Serialize frames + replacement clock (sim/checkpoint.hh).
     *  Restore requires identical geometry, and rejects a clock past
     *  a frame's lastTouch width or a frame touched after it. */
    void checkpoint(sim::StateIO io);

  private:
    /** Releases the raw frame array (frames need no destructor). */
    struct FreeFrames
    {
        void operator()(CacheBlk *p) const { ::operator delete(p); }
    };

    void checkSet(std::uint64_t set) const
    {
        drisim_assert(set < numSets_, "set %llu out of range",
                      static_cast<unsigned long long>(set));
    }

    bool chunkFilled(std::uint64_t set) const
    {
        return filled_[set >> chunkShift_] != 0;
    }

    /** A set of a filled chunk, without a check: the one-frame
     *  updates only ever reach a frame an insert made valid. */
    std::span<CacheBlk> mutableSet(std::uint64_t set);

    /** mutableSet() after filling @p set's chunk if no insert has. */
    std::span<CacheBlk> filledSet(std::uint64_t set)
    {
        checkSet(set);
        if (!chunkFilled(set)) [[unlikely]]
            fillChunk(set >> chunkShift_);
        return {blocks_.get() + set * assoc_, assoc_};
    }

    /** Write default frames over chunk @p chunk. */
    void fillChunk(std::uint64_t chunk);

    /** Advance the replacement clock; asserts it still fits a
     *  frame's lastTouch. */
    std::uint64_t nextTick();

    std::uint64_t numSets_;
    unsigned assoc_;
    ReplPolicy policy_;
    std::uint64_t tick_ = 0;
    /** log2 of the sets in one chunk. */
    unsigned chunkShift_ = 0;
    /** numSets_ x assoc_ frames, raw until their chunk is filled.
     *  Allocated after the vectors below and released after them
     *  (see the constructor). */
    std::unique_ptr<CacheBlk[], FreeFrames> blocks_;
    /** One flag per chunk: nonzero once its frames are written. */
    std::vector<std::uint8_t> filled_;
    /** assoc_ default frames, set()'s view of an unfilled set. */
    std::vector<CacheBlk> blankSet_;
};

} // namespace drisim

#endif // DRISIM_MEM_TAG_STORE_HH
