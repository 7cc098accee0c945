/**
 * @file
 * DRI i-cache tests: resizing-driven lookup correctness, alias
 * handling, gating-destroys-state semantics, miss-driven adaptation
 * (paper Sections 2.1, 2.2).
 */

#include <gtest/gtest.h>

#include "core/dri_icache.hh"
#include "sim/checkpoint.hh"
#include "stats/stats.hh"

namespace drisim
{
namespace
{

DriParams
smallDri()
{
    DriParams p;
    p.sizeBytes = 8 * 1024;   // 256 sets of 32 B
    p.sizeBoundBytes = 1024;  // 32 sets minimum
    p.blockBytes = 32;
    p.missBound = 10;
    p.senseInterval = 1000;
    return p;
}

TEST(DriParams, ResizingTagBits)
{
    // Paper: a 64 KB cache with a 1 KB size-bound keeps 6 resizing
    // tag bits (16 + 6 = 22 total).
    DriParams p;
    p.sizeBytes = 64 * 1024;
    p.sizeBoundBytes = 1024;
    EXPECT_EQ(p.resizingTagBits(), 6u);
    p.sizeBoundBytes = 64 * 1024;
    EXPECT_EQ(p.resizingTagBits(), 0u);
    p.sizeBoundBytes = 2 * 1024;
    EXPECT_EQ(p.resizingTagBits(), 5u);
}

TEST(DriParams, SizeBoundFitsFromOneSetToTheFullSize)
{
    // 64 KB, 4-way, 32 B blocks: one set is 128 B.
    DriParams p;
    p.sizeBytes = 64 * 1024;
    p.assoc = 4;
    p.blockBytes = 32;
    EXPECT_EQ(p.setBytes(), 128u);
    EXPECT_TRUE(p.sizeBoundFits(128));
    EXPECT_TRUE(p.sizeBoundFits(64 * 1024));
    EXPECT_FALSE(p.sizeBoundFits(64));
    EXPECT_FALSE(p.sizeBoundFits(128 * 1024));
    // Direct-mapped: one block is one set.
    p.assoc = 1;
    EXPECT_TRUE(p.sizeBoundFits(32));
    EXPECT_FALSE(p.sizeBoundFits(16));
}

TEST(DriICache, BasicHitMiss)
{
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    EXPECT_FALSE(c.access(0x1000, AccessType::InstFetch).hit);
    EXPECT_TRUE(c.access(0x1000, AccessType::InstFetch).hit);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(DriICache, DownsizesWhenMissesAreLow)
{
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    EXPECT_EQ(c.currentSets(), 256u);
    // One quiet interval (no misses beyond bound): downsize by 2.
    c.retireInstructions(1000);
    EXPECT_EQ(c.currentSets(), 128u);
    c.retireInstructions(1000);
    EXPECT_EQ(c.currentSets(), 64u);
}

TEST(DriICache, StopsAtSizeBound)
{
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    for (int i = 0; i < 20; ++i)
        c.retireInstructions(1000);
    EXPECT_EQ(c.currentSets(), 32u);
    EXPECT_EQ(c.currentSizeBytes(), 1024u);
}

TEST(DriICache, UpsizesUnderMissPressure)
{
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    c.retireInstructions(1000); // 128 sets
    c.retireInstructions(1000); // 64 sets
    ASSERT_EQ(c.currentSets(), 64u);
    // Generate conflict misses beyond the bound: sweep far more
    // blocks than 64 sets can hold.
    for (Addr a = 0; a < 64 * 1024; a += 32)
        c.access(a, AccessType::InstFetch);
    c.retireInstructions(1000);
    EXPECT_EQ(c.currentSets(), 128u);
}

TEST(DriICache, LookupCorrectAcrossDownsize)
{
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    // Fill a block whose set index is below the minimum set count:
    // it survives downsizing (its frame stays powered).
    const Addr low = 32 * 2; // block 2 -> set 2 at every size
    c.access(low, AccessType::InstFetch);
    c.retireInstructions(1000);
    c.retireInstructions(1000);
    c.retireInstructions(1000); // now 32 sets
    ASSERT_EQ(c.currentSets(), 32u);
    EXPECT_TRUE(c.access(low, AccessType::InstFetch).hit);
}

TEST(DriICache, GatingDestroysDisabledSetContents)
{
    stats::StatGroup root("t");
    DriParams p = smallDri(); // missBound 10
    DriICache c(p, nullptr, &root);
    // Block in set 200 (past the post-shrink boundary of 128).
    const Addr high = 32 * 200;
    c.access(high, AccessType::InstFetch);
    // Quiet interval (1 miss < bound): downsize; set 200 gated off
    // and its contents destroyed.
    c.retireInstructions(1000);
    ASSERT_EQ(c.currentSets(), 128u);
    EXPECT_GE(c.blocksLost(), 1u);

    // Heavy misses force an upsize back to 256 sets.
    for (Addr a = 0; a < 64 * 1024; a += 32)
        c.access(a, AccessType::InstFetch);
    c.retireInstructions(1000);
    ASSERT_EQ(c.currentSets(), 256u);

    // Set 200 came back cold: the original block must miss (its
    // only powered copy after the sweep lives at the 128-set alias
    // position, set 72, which index 200 does not consult).
    EXPECT_FALSE(c.access(high, AccessType::InstFetch).hit);
    EXPECT_GE(c.downsizes(), 1u);
    EXPECT_GE(c.upsizes(), 1u);
}

TEST(DriICache, UpsizeCreatesHarmlessAliases)
{
    stats::StatGroup root("t");
    DriParams p = smallDri();
    DriICache c(p, nullptr, &root);
    // Shrink to the bound.
    for (int i = 0; i < 3; ++i)
        c.retireInstructions(1000);
    ASSERT_EQ(c.currentSets(), 32u);

    // Fetch a block whose full-size index differs from its 1 KB
    // index: block 0x40 -> set 64 at 256 sets, set 0 at 32 sets.
    const Addr block64 = 64 * 32;
    c.access(block64, AccessType::InstFetch);
    EXPECT_TRUE(c.access(block64, AccessType::InstFetch).hit);

    // Upsize via miss pressure.
    for (Addr a = 1 << 20; a < (1 << 20) + 64 * 1024; a += 32)
        c.access(a, AccessType::InstFetch);
    c.retireInstructions(1000);
    ASSERT_GT(c.currentSets(), 32u);

    // Lookup after upsizing goes to the new set and misses
    // (compulsory miss, Section 2.2), creating an alias.
    EXPECT_FALSE(c.access(block64, AccessType::InstFetch).hit);
    EXPECT_TRUE(c.access(block64, AccessType::InstFetch).hit);
}

TEST(DriICache, InvalidateBlockSweepsAllAliases)
{
    stats::StatGroup root("t");
    DriParams p = smallDri();
    DriICache c(p, nullptr, &root);
    // Create an alias as in the previous test.
    for (int i = 0; i < 3; ++i)
        c.retireInstructions(1000);
    const Addr block64 = 64 * 32;
    c.access(block64, AccessType::InstFetch); // lands in set 0
    for (Addr a = 1 << 20; a < (1 << 20) + 64 * 1024; a += 32)
        c.access(a, AccessType::InstFetch);
    c.retireInstructions(1000); // upsizes
    c.access(block64, AccessType::InstFetch); // alias in set 64

    // Invalidate all aliases (page-unmap semantics, Section 2.2).
    c.invalidateBlock(block64);
    EXPECT_FALSE(c.access(block64, AccessType::InstFetch).hit);
}

TEST(DriICache, InvalidateAllFlushes)
{
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    c.access(0x100, AccessType::InstFetch);
    c.invalidateAll();
    EXPECT_FALSE(c.access(0x100, AccessType::InstFetch).hit);
}

TEST(DriICache, ActiveFractionTracksSets)
{
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    EXPECT_DOUBLE_EQ(c.activeFraction(), 1.0);
    c.retireInstructions(1000);
    EXPECT_DOUBLE_EQ(c.activeFraction(), 0.5);
    EXPECT_EQ(c.gatedSets(), 128u);
}

TEST(DriICache, CycleIntegrationWeightsByTime)
{
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    c.integrateCycles(100);           // 100 cycles at full size
    c.retireInstructions(1000);       // halve
    c.integrateCycles(100);           // 100 cycles at half size
    EXPECT_NEAR(c.averageActiveFraction(), 0.75, 1e-9);
}

TEST(DriICache, NonAdaptiveStaysFixed)
{
    stats::StatGroup root("t");
    DriParams p = smallDri();
    p.adaptive = false;
    DriICache c(p, nullptr, &root);
    for (int i = 0; i < 5; ++i)
        c.retireInstructions(1000);
    EXPECT_EQ(c.currentSets(), 256u);
}

TEST(DriICache, Divisibility4ResizesByFour)
{
    stats::StatGroup root("t");
    DriParams p = smallDri();
    p.divisibility = 4;
    DriICache c(p, nullptr, &root);
    c.retireInstructions(1000);
    EXPECT_EQ(c.currentSets(), 64u);
}

TEST(DriICache, SetAssociativeVariant)
{
    stats::StatGroup root("t");
    DriParams p = smallDri();
    p.assoc = 4; // 64 sets of 4 ways
    p.sizeBoundBytes = 2048; // 16 sets minimum
    DriICache c(p, nullptr, &root);
    EXPECT_EQ(c.currentSets(), 64u);
    // Conflicting blocks land in the same set without eviction.
    c.access(0, AccessType::InstFetch);
    c.access(8 * 1024, AccessType::InstFetch);
    c.access(16 * 1024, AccessType::InstFetch);
    EXPECT_TRUE(c.access(0, AccessType::InstFetch).hit);
    c.retireInstructions(1000);
    EXPECT_EQ(c.currentSets(), 32u);
}

TEST(DriICache, RejectsInvalidParams)
{
    DriParams p = smallDri();
    p.sizeBoundBytes = 3000; // not a power of two
    EXPECT_DEATH({ p.validate(); }, "");
}

TEST(DriICache, RestoreRejectsASetCountTheMaskCannotTake)
{
    // The rcache section leads with the set count. One that is not a
    // power of two or lies outside smallDri()'s 32..256 sets must
    // throw CheckpointError rather than reach SizeMask's assert.
    stats::StatGroup root("t");
    DriICache c(smallDri(), nullptr, &root);
    c.retireInstructions(1000); // down to 128 sets
    sim::CheckpointWriter w;
    c.checkpoint(w);
    const std::string snap = w.bytes();
    const std::size_t at = snap.find("rcache") + 6;
    ASSERT_EQ(snap[at], 'U');

    for (const std::uint64_t sets : {0u, 3u, 16u, 96u, 255u, 512u, 64u}) {
        sim::CheckpointWriter count;
        count.putU64(sets);
        std::string spliced = snap;
        spliced.replace(at, 9, count.bytes());
        stats::StatGroup twinRoot("t");
        DriICache twin(smallDri(), nullptr, &twinRoot);
        sim::CheckpointReader r(spliced);
        if (sets == 64)
            EXPECT_NO_THROW(twin.checkpoint(r));
        else
            EXPECT_THROW(twin.checkpoint(r), sim::CheckpointError)
                << sets << " sets";
    }
}

TEST(DriICache, MissesRouteToLowerLevel)
{
    stats::StatGroup root("t");
    MainMemory mem(32, &root);
    DriICache c(smallDri(), &mem, &root);
    auto r = c.access(0x5000, AccessType::InstFetch);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 1u + 80u + 4u * 4u);
    EXPECT_EQ(mem.accesses(), 1u);
}

} // namespace
} // namespace drisim
