/**
 * @file
 * TagStore unit tests: lookup, insertion, LRU victims, invalidation,
 * the packed frame's restore checks, and frames written on first
 * use.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "mem/resizable_cache.hh"
#include "mem/tag_store.hh"
#include "sim/checkpoint.hh"
#include "snapshot_splice.hh"

namespace drisim
{
namespace
{

TEST(TagStore, MissThenHit)
{
    TagStore ts(16, 2);
    EXPECT_EQ(ts.findWay(3, 0xABC), TagStore::kNoWay);
    ts.insert(3, 0xABC);
    EXPECT_NE(ts.findWay(3, 0xABC), TagStore::kNoWay);
    EXPECT_EQ(ts.findWay(4, 0xABC), TagStore::kNoWay);
}

TEST(TagStore, FillsInvalidWaysFirst)
{
    TagStore ts(4, 4);
    for (Addr a = 0; a < 4; ++a) {
        CacheBlk evicted = ts.insert(0, 0x100 + a);
        EXPECT_FALSE(evicted.valid);
    }
    EXPECT_EQ(ts.validCount(), 4u);
}

TEST(TagStore, LruEvictsLeastRecentlyTouched)
{
    TagStore ts(1, 2);
    ts.insert(0, 0xA);
    ts.insert(0, 0xB);
    // Touch A so B becomes LRU.
    ts.touch(0, static_cast<unsigned>(ts.findWay(0, 0xA)));
    CacheBlk evicted = ts.insert(0, 0xC);
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.blockAddr, 0xBu);
    EXPECT_NE(ts.findWay(0, 0xA), TagStore::kNoWay);
    EXPECT_EQ(ts.findWay(0, 0xB), TagStore::kNoWay);
}

TEST(TagStore, DirectMappedAlwaysReplaces)
{
    TagStore ts(8, 1);
    ts.insert(2, 0x10);
    CacheBlk evicted = ts.insert(2, 0x20);
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.blockAddr, 0x10u);
}

TEST(TagStore, DirtyBitSurvivesUntilEviction)
{
    TagStore ts(2, 1);
    ts.insert(0, 0x1);
    ts.markDirty(0, 0);
    CacheBlk evicted = ts.insert(0, 0x2);
    EXPECT_TRUE(evicted.dirty);
}

TEST(TagStore, InvalidateSingle)
{
    TagStore ts(4, 2);
    ts.insert(1, 0x5);
    int way = ts.findWay(1, 0x5);
    ASSERT_NE(way, TagStore::kNoWay);
    ts.invalidate(1, static_cast<unsigned>(way));
    EXPECT_EQ(ts.findWay(1, 0x5), TagStore::kNoWay);
    EXPECT_EQ(ts.validCount(), 0u);
}

TEST(TagStore, InvalidateSetAndAll)
{
    TagStore ts(4, 2);
    for (std::uint64_t s = 0; s < 4; ++s)
        ts.insert(s, 0x100 + s);
    ts.invalidateSet(2);
    EXPECT_EQ(ts.validCount(), 3u);
    ts.invalidateAll();
    EXPECT_EQ(ts.validCount(), 0u);
}

TEST(TagStore, RandomPolicyStaysInBounds)
{
    TagStore ts(2, 4, ReplPolicy::Random);
    for (Addr a = 0; a < 100; ++a)
        ts.insert(0, a);
    EXPECT_EQ(ts.validCount(), 4u);
}

/** A 2-set, 2-way store with three fills, one dirty and one
 *  Modified frame, snapshotted: the layout magic, sets, ways and
 *  clock, then five values per frame. */
std::string
smallStoreSnapshot()
{
    TagStore ts(2, 2);
    ts.insert(0, 0x10);
    ts.insert(0, 0x20);
    ts.insert(1, 0x31);
    ts.markDirty(0, 1);
    ts.setCoherenceState(1, 0, CoherenceState::Modified);
    sim::CheckpointWriter w;
    ts.checkpoint(w);
    return w.bytes();
}

constexpr std::size_t kClock = 3;

/** Value index of field @p field (blockAddr, valid, dirty,
 *  lastTouch, cstate) of frame @p frame. */
constexpr std::size_t
frameValue(std::size_t frame, std::size_t field)
{
    return kClock + 1 + 5 * frame + field;
}

TEST(TagStoreRestore, PackedFrameRoundTripsEveryField)
{
    // Each field at its widest value: a 64-bit block address, the
    // clock and a timestamp at 2^59 - 1, and Modified. Restoring and
    // snapshotting again gives the same bytes.
    const std::string snap = smallStoreSnapshot();
    const std::vector<std::size_t> at = valueOffsets(snap);
    ASSERT_EQ(at.size(), frameValue(4, 0));
    std::string wide = withValue(snap, at[kClock], CacheBlk::kMaxTouch);
    wide = withValue(wide, at[frameValue(0, 0)], ~std::uint64_t{0} - 1);
    wide = withValue(wide, at[frameValue(0, 3)], CacheBlk::kMaxTouch);
    wide = withValue(wide, at[frameValue(0, 4)], 2);
    TagStore ts(2, 2);
    sim::CheckpointReader r(wide);
    ts.checkpoint(r);
    const CacheBlk &b = ts.set(0)[0];
    EXPECT_EQ(b.blockAddr, ~std::uint64_t{0} - 1);
    EXPECT_TRUE(b.valid);
    EXPECT_FALSE(b.dirty);
    EXPECT_EQ(b.lastTouch, CacheBlk::kMaxTouch);
    EXPECT_EQ(b.cstate, CoherenceState::Modified);
    EXPECT_TRUE(ts.set(0)[1].dirty);
    sim::CheckpointWriter w;
    ts.checkpoint(w);
    EXPECT_EQ(w.bytes(), wide);
}

TEST(TagStoreRestore, RejectsValuesThePackedFrameCannotHold)
{
    const std::string snap = smallStoreSnapshot();
    const std::vector<std::size_t> at = valueOffsets(snap);
    const std::uint64_t clock = u64Value(snap, at[kClock]);
    const std::pair<const char *, std::string> cases[] = {
        {"clock past 2^59 - 1",
         withValue(snap, at[kClock], CacheBlk::kMaxTouch + 1)},
        {"frame touched after the clock",
         withValue(snap, at[frameValue(2, 3)], clock + 1)},
        {"no MSI state", withValue(snap, at[frameValue(0, 4)], 3)},
    };
    for (const auto &[what, bytes] : cases) {
        TagStore ts(2, 2);
        sim::CheckpointReader r(bytes);
        EXPECT_THROW(ts.checkpoint(r), sim::CheckpointError) << what;
    }
}

/** Fill two sets 576 apart of a 1024-set, 4-way store (16 KB of
 *  frames), with one dirty and one Shared frame and a touch, so most
 *  of its frames are never filled. */
void
fillPartly(TagStore &ts)
{
    ts.insert(3, 0x403);
    ts.insert(3, 0x803);
    ts.insert(579, 0x643);
    ts.markDirty(3, 1);
    ts.setCoherenceState(579, 0, CoherenceState::Shared);
    ts.touch(3, 0);
}

TEST(TagStoreRestore, PartlyFilledSnapshotIsPinned)
{
    // Captured on a store that wrote every frame at construction: a
    // frame no fill reached is written as a default frame.
    TagStore ts(1024, 4);
    fillPartly(ts);
    sim::CheckpointWriter w;
    ts.checkpoint(w);
    EXPECT_EQ(w.bytes().size(), 127026u);
    EXPECT_EQ(sim::fnv1a64(w.bytes()), 0x532881d93b4266d9u)
        << std::hex << sim::fnv1a64(w.bytes());
}

// ---------------------------------------------------------------
// Frames written on first use: a 1024-set, 4-way store has 16
// chunks of 64 sets (4 KB of frames each).
// ---------------------------------------------------------------

TEST(TagStoreChunks, FillsOnlyTheChunksItsInsertsReach)
{
    TagStore ts(1024, 4);
    EXPECT_EQ(ts.filledChunks(), 0u);
    fillPartly(ts); // sets 3 and 579: chunks 0 and 9
    EXPECT_EQ(ts.filledChunks(), 2u);
    ts.insert(63, 0x43F); // the last set of chunk 0
    ts.insert(576, 0x240); // the first set of chunk 9
    EXPECT_EQ(ts.filledChunks(), 2u);
    EXPECT_EQ(ts.validCount(), 5u);
    ts.invalidateAll();
    EXPECT_EQ(ts.validCount(), 0u);
    EXPECT_EQ(ts.filledChunks(), 2u);
}

TEST(TagStoreChunks, LookupsAndReadsOfAnUnfilledChunkFillNothing)
{
    TagStore ts(1024, 4);
    fillPartly(ts);
    // 0x643 lives in set 579; set 64 opens chunk 1, never filled.
    EXPECT_EQ(ts.findWay(64, 0x643), TagStore::kNoWay);
    EXPECT_EQ(ts.findWay(1023, kInvalidAddr), TagStore::kNoWay);
    EXPECT_NE(ts.findWay(579, 0x643), TagStore::kNoWay);
    const std::span<const CacheBlk> ways = ts.set(64);
    ASSERT_EQ(ways.size(), 4u);
    for (const CacheBlk &b : ways) {
        EXPECT_EQ(b.blockAddr, kInvalidAddr);
        EXPECT_FALSE(b.valid);
        EXPECT_FALSE(b.dirty);
        EXPECT_EQ(b.lastTouch, 0u);
        EXPECT_EQ(b.cstate, CoherenceState::Invalid);
    }
    ts.invalidateSet(64);
    EXPECT_EQ(ts.filledChunks(), 2u);
}

/** A resizable cache that shows its store's filled chunks. */
class ChunkCountingCache : public ResizableCache
{
  public:
    using ResizableCache::ResizableCache;
    std::uint64_t filledChunks() const { return store_.filledChunks(); }
};

TEST(TagStoreChunks, DownsizingOverUnfilledSetsFillsNothing)
{
    // 64 KB direct-mapped with 32-byte blocks: 2048 sets in 8 chunks
    // of 256. One fill in set 5; every quiet interval halves the
    // cache and gates sets no insert reached.
    DriParams p;
    p.sizeBytes = 64 * 1024;
    p.sizeBoundBytes = 1024;
    p.blockBytes = 32;
    p.assoc = 1;
    p.missBound = 10;
    p.senseInterval = 1000;
    stats::StatGroup root("t");
    ChunkCountingCache c(p, ResizePolicy::writeback(), nullptr, &root,
                         "rc");
    c.access(32 * 5, AccessType::Store);
    EXPECT_EQ(c.filledChunks(), 1u);
    for (int i = 0; i < 6; ++i)
        c.retireInstructions(1000);
    ASSERT_EQ(c.currentSets(), 32u);
    EXPECT_EQ(c.filledChunks(), 1u);
    EXPECT_EQ(c.blocksLost(), 0u);
    EXPECT_TRUE(c.contains(32 * 5));
}

TEST(TagStoreChunks, RestoreFillsOnlyChunksWithAFrameToWrite)
{
    // An all-default snapshot restores into a store that fills
    // nothing; the partly filled one fills its two chunks back and
    // snapshots to the same bytes.
    TagStore blank(1024, 4);
    sim::CheckpointWriter wb;
    blank.checkpoint(wb);
    TagStore fromBlank(1024, 4);
    sim::CheckpointReader rb(wb.bytes());
    fromBlank.checkpoint(rb);
    EXPECT_EQ(fromBlank.filledChunks(), 0u);

    TagStore partly(1024, 4);
    fillPartly(partly);
    sim::CheckpointWriter wp;
    partly.checkpoint(wp);
    TagStore restored(1024, 4);
    sim::CheckpointReader rp(wp.bytes());
    restored.checkpoint(rp);
    EXPECT_EQ(restored.filledChunks(), 2u);
    EXPECT_EQ(restored.validCount(), 3u);
    sim::CheckpointWriter again;
    restored.checkpoint(again);
    EXPECT_EQ(again.bytes(), wp.bytes());
}

TEST(TagStoreDeathTest, ClockNeverTruncatesATimestamp)
{
    // At the last tick a frame can hold, the next touch panics
    // rather than store a truncated timestamp.
    const std::string snap = smallStoreSnapshot();
    const std::string full = withValue(
        snap, valueOffsets(snap)[kClock], CacheBlk::kMaxTouch);
    TagStore ts(2, 2);
    sim::CheckpointReader r(full);
    ts.checkpoint(r);
    EXPECT_DEATH(ts.touch(0, 0), "replacement clock");
    EXPECT_DEATH(ts.insert(1, 0x41), "replacement clock");
}

} // namespace
} // namespace drisim
