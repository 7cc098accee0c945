/**
 * @file
 * TagStore unit tests: lookup, insertion, LRU victims, invalidation,
 * and the packed frame's restore checks.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

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
