/**
 * @file
 * DRI d-cache tests: the dirty-block handling the paper defers
 * ("Because of complications involving dirty cache blocks, studying
 * d-cache designs is beyond the scope of this paper", Section 2). A
 * DRI d-cache is a ResizableCache on ResizePolicy::writeback(), the
 * policy the DRI L2 runs on. Downsizing must write back dirty state
 * before gating; upsizing must evict remapped blocks (no stale
 * aliases for data).
 */

#include <gtest/gtest.h>

#include "mem/memory.hh"
#include "mem/resizable_cache.hh"
#include "stats/stats.hh"
#include "util/random.hh"

namespace drisim
{
namespace
{

DriParams
smallDri(std::uint64_t missBound = 10)
{
    DriParams p;
    p.sizeBytes = 8 * 1024;  // 256 sets
    p.sizeBoundBytes = 1024; // 32 sets
    p.blockBytes = 32;
    p.missBound = missBound;
    p.senseInterval = 1000;
    return p;
}

/** A DRI d-cache over @p below. */
ResizableCache
dcache(const DriParams &params, MemoryLevel *below,
       stats::StatGroup *parent)
{
    return ResizableCache(params, ResizePolicy::writeback(), below,
                          parent, "dri_dcache");
}

/** Tracks store traffic arriving from writebacks. */
class CountingMemory : public MemoryLevel
{
  public:
    AccessResult
    access(Addr addr, AccessType type) override
    {
        if (type == AccessType::Store) {
            ++stores;
            lastStore = addr;
        } else {
            ++loads;
        }
        return {true, 10};
    }

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Addr lastStore = kInvalidAddr;
};

TEST(DriDCache, LoadStoreHitMiss)
{
    stats::StatGroup root("t");
    CountingMemory mem;
    ResizableCache c = dcache(smallDri(), &mem, &root);
    EXPECT_FALSE(c.access(0x100, AccessType::Load).hit);
    EXPECT_TRUE(c.access(0x100, AccessType::Load).hit);
    EXPECT_TRUE(c.access(0x104, AccessType::Store).hit);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(DriDCache, DowsizeWritesBackDirtyBlocks)
{
    stats::StatGroup root("t");
    CountingMemory mem;
    ResizableCache c = dcache(smallDri(), &mem, &root);

    // Dirty a block in set 200 (doomed by the first downsize).
    const Addr doomed = 32 * 200;
    c.access(doomed, AccessType::Store);
    const std::uint64_t stores_before = mem.stores;

    c.retireInstructions(1000); // quiet interval -> downsize
    ASSERT_EQ(c.currentSets(), 128u);
    EXPECT_EQ(c.resizeWritebacks(), 1u);
    EXPECT_EQ(mem.stores, stores_before + 1);
    EXPECT_EQ(mem.lastStore, doomed);
}

TEST(DriDCache, CleanBlocksAreDroppedSilently)
{
    stats::StatGroup root("t");
    CountingMemory mem;
    ResizableCache c = dcache(smallDri(), &mem, &root);
    c.access(32 * 200, AccessType::Load); // clean block, set 200
    const std::uint64_t stores_before = mem.stores;
    c.retireInstructions(1000);
    EXPECT_EQ(c.resizeWritebacks(), 0u);
    EXPECT_EQ(mem.stores, stores_before);
}

TEST(DriDCache, UpsizeEvictsRemappedDirtyBlocks)
{
    stats::StatGroup root("t");
    CountingMemory mem;
    ResizableCache c = dcache(smallDri(), &mem, &root);

    // Shrink to 32 sets.
    for (int i = 0; i < 3; ++i)
        c.retireInstructions(1000);
    ASSERT_EQ(c.currentSets(), 32u);

    // Dirty a block whose 64-set index differs from its 32-set one
    // (block 40: set 8 at 32 sets, set 40 at 64 sets).
    const Addr remapped = 32 * 40;
    c.access(remapped, AccessType::Store);
    ASSERT_TRUE(c.access(remapped, AccessType::Load).hit);

    // Force an upsize with conflict misses confined to set 0, so
    // the dirty block in set 8 survives until the resize itself.
    for (Addr a = 1 << 20; a < (1 << 20) + 20 * 1024; a += 1024)
        c.access(a, AccessType::Load);
    c.retireInstructions(1000);
    ASSERT_GT(c.currentSets(), 32u);

    // The dirty block was remapped: written back and invalidated;
    // a re-load misses but sees the written-back data below.
    EXPECT_GE(c.resizeWritebacks(), 1u);
    EXPECT_TRUE(c.mappingConsistent());
    EXPECT_FALSE(c.access(remapped, AccessType::Load).hit);
}

TEST(DriDCache, MappingConsistencyUnderRandomTraffic)
{
    // Property: after any access/resize history, no powered frame
    // disagrees with the current index mask — the invariant that
    // makes data resizing safe.
    stats::StatGroup root("t");
    CountingMemory mem;
    ResizableCache c = dcache(smallDri(50), &mem, &root);
    Rng rng(99);
    for (int step = 0; step < 400; ++step) {
        const int burst = static_cast<int>(rng.range(150));
        for (int i = 0; i < burst; ++i) {
            const Addr a = rng.range(1 << 16) & ~Addr{7};
            c.access(a, rng.chance(0.3) ? AccessType::Store
                                        : AccessType::Load);
        }
        c.retireInstructions(rng.range(1500));
        ASSERT_TRUE(c.mappingConsistent()) << "step " << step;
    }
}

TEST(DriDCache, NoDirtyDataIsEverLost)
{
    // Property: every store is eventually visible below — either
    // via an eviction writeback, a resize writeback, or a final
    // flush. We count unique dirtied blocks and writebacks.
    stats::StatGroup root("t");
    CountingMemory mem;
    ResizableCache c = dcache(smallDri(50), &mem, &root);
    Rng rng(7);
    std::uint64_t stores_issued = 0;
    for (int step = 0; step < 200; ++step) {
        for (int i = 0; i < 100; ++i) {
            const Addr a = rng.range(1 << 15) & ~Addr{7};
            if (rng.chance(0.4)) {
                c.access(a, AccessType::Store);
                ++stores_issued;
            } else {
                c.access(a, AccessType::Load);
            }
        }
        c.retireInstructions(rng.range(1200));
    }
    c.invalidateAll(); // final flush
    // Below-level stores can exceed dirtied blocks (rewrites) but
    // must be nonzero and bounded by issued stores.
    EXPECT_GT(mem.stores, 0u);
    EXPECT_LE(mem.stores, stores_issued);
    EXPECT_TRUE(c.mappingConsistent());
}

TEST(DriDCache, ResizesUnderTheSameControllerRules)
{
    stats::StatGroup root("t");
    CountingMemory mem;
    ResizableCache c = dcache(smallDri(), &mem, &root);
    c.retireInstructions(1000);
    c.retireInstructions(1000);
    EXPECT_EQ(c.downsizes(), 2u);
    EXPECT_DOUBLE_EQ(c.activeFraction(), 0.25);
    c.integrateCycles(100);
    EXPECT_DOUBLE_EQ(c.averageActiveFraction(), 0.25);
}

} // namespace
} // namespace drisim
