/**
 * @file
 * Generic set-associative tag/data directory.
 *
 * Both the conventional caches and the DRI i-cache are built on this
 * store; the DRI i-cache simply restricts which sets are live and
 * remaps the index (size mask).
 */

#ifndef DRISIM_MEM_TAG_STORE_HH
#define DRISIM_MEM_TAG_STORE_HH

#include <cstdint>
#include <span>
#include <vector>

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
    int findWay(std::uint64_t set, Addr blockAddr) const;

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

    /** Read-only view of a set's ways. */
    std::span<const CacheBlk> set(std::uint64_t set) const;

    /** Number of valid frames (for tests/occupancy stats). */
    std::uint64_t validCount() const;

    /** Serialize frames + replacement clock (sim/checkpoint.hh).
     *  Restore requires identical geometry, and rejects a clock past
     *  a frame's lastTouch width or a frame touched after it. */
    void checkpoint(sim::StateIO io);

  private:
    std::span<CacheBlk> mutableSet(std::uint64_t set);

    /** Advance the replacement clock; asserts it still fits a
     *  frame's lastTouch. */
    std::uint64_t nextTick();

    std::uint64_t numSets_;
    unsigned assoc_;
    ReplPolicy policy_;
    std::uint64_t tick_ = 0;
    std::vector<CacheBlk> blocks_;
};

} // namespace drisim

#endif // DRISIM_MEM_TAG_STORE_HH
