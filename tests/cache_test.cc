/**
 * @file
 * Conventional cache tests: hit/miss behaviour, latencies, conflict
 * and capacity behaviour, writeback accounting; and a resizable cache
 * held at full size answering exactly as a conventional one.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/dri_icache.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "mem/resizable_cache.hh"
#include "stats/stats.hh"
#include "util/random.hh"

namespace drisim
{
namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "c";
    p.sizeBytes = 1024;
    p.assoc = 1;
    p.blockBytes = 32;
    p.hitLatency = 1;
    return p;
}

TEST(Cache, ColdMissThenHit)
{
    stats::StatGroup root("t");
    Cache c(smallCache(), nullptr, &root);
    auto r1 = c.access(0x100, AccessType::InstFetch);
    EXPECT_FALSE(r1.hit);
    auto r2 = c.access(0x100, AccessType::InstFetch);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.latency, 1u);
    // Same block, different byte: still a hit.
    auto r3 = c.access(0x11F, AccessType::InstFetch);
    EXPECT_TRUE(r3.hit);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.accesses(), 3u);
}

TEST(Cache, MissLatencyIncludesLowerLevel)
{
    stats::StatGroup root("t");
    MainMemory mem(64, &root);
    CacheParams p2 = smallCache();
    p2.name = "l2";
    p2.sizeBytes = 4096;
    p2.blockBytes = 64;
    p2.hitLatency = 12;
    Cache l2(p2, &mem, &root);
    Cache l1(smallCache(), &l2, &root);

    // Cold L1 miss -> L2 miss -> memory: 1 + 12 + (80 + 4*8) = 125.
    auto r = l1.access(0x2000, AccessType::InstFetch);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 1u + 12u + 80u + 4u * 8u);

    // Second block in the same L2 line: L1 miss, L2 hit -> 13.
    auto r2 = l1.access(0x2020, AccessType::InstFetch);
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(r2.latency, 13u);
}

TEST(Cache, DirectMappedConflict)
{
    stats::StatGroup root("t");
    Cache c(smallCache(), nullptr, &root); // 32 sets
    // 0x0 and 0x400 (1024 apart) map to the same set.
    c.access(0x0, AccessType::InstFetch);
    c.access(0x400, AccessType::InstFetch);
    auto r = c.access(0x0, AccessType::InstFetch);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(c.misses(), 3u);
}

TEST(Cache, AssociativityAbsorbsConflict)
{
    stats::StatGroup root("t");
    CacheParams p = smallCache();
    p.assoc = 2;
    Cache c(p, nullptr, &root);
    c.access(0x0, AccessType::InstFetch);
    c.access(0x400, AccessType::InstFetch);
    auto r = c.access(0x0, AccessType::InstFetch);
    EXPECT_TRUE(r.hit);
}

TEST(Cache, LruWithinSet)
{
    stats::StatGroup root("t");
    CacheParams p = smallCache();
    p.assoc = 2; // 16 sets; stride 512 collides
    Cache c(p, nullptr, &root);
    c.access(0x000, AccessType::InstFetch);
    c.access(0x200, AccessType::InstFetch);
    c.access(0x000, AccessType::InstFetch);   // A now MRU
    c.access(0x400, AccessType::InstFetch);   // evicts 0x200
    EXPECT_TRUE(c.access(0x000, AccessType::InstFetch).hit);
    EXPECT_FALSE(c.access(0x200, AccessType::InstFetch).hit);
}

TEST(Cache, CapacitySweepEvictsEverything)
{
    stats::StatGroup root("t");
    Cache c(smallCache(), nullptr, &root);
    // Two full passes over 2x the capacity: every access misses.
    for (int pass = 0; pass < 2; ++pass)
        for (Addr a = 0; a < 2048; a += 32)
            c.access(a, AccessType::InstFetch);
    EXPECT_EQ(c.misses(), c.accesses());
}

TEST(Cache, FitsInCacheNoRepeatMisses)
{
    stats::StatGroup root("t");
    Cache c(smallCache(), nullptr, &root);
    for (int pass = 0; pass < 3; ++pass)
        for (Addr a = 0; a < 1024; a += 32)
            c.access(a, AccessType::InstFetch);
    // Only the cold pass misses.
    EXPECT_EQ(c.misses(), 32u);
    EXPECT_NEAR(c.missRate(), 1.0 / 3.0, 1e-9);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    stats::StatGroup root("t");
    MainMemory mem(32, &root);
    Cache c(smallCache(), &mem, &root);
    c.access(0x000, AccessType::Store); // dirty
    c.access(0x400, AccessType::InstFetch); // evicts dirty block
    EXPECT_EQ(c.writebacks(), 1u);
    // Clean eviction: no writeback.
    c.access(0x800, AccessType::InstFetch);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, ContainsProbeDoesNotTouch)
{
    stats::StatGroup root("t");
    Cache c(smallCache(), nullptr, &root);
    EXPECT_FALSE(c.contains(0x100));
    c.access(0x100, AccessType::Load);
    const auto accesses_before = c.accesses();
    EXPECT_TRUE(c.contains(0x100));
    EXPECT_EQ(c.accesses(), accesses_before);
}

TEST(Cache, InvalidateAllColdsTheCache)
{
    stats::StatGroup root("t");
    Cache c(smallCache(), nullptr, &root);
    c.access(0x100, AccessType::InstFetch);
    c.invalidateAll();
    EXPECT_FALSE(c.access(0x100, AccessType::InstFetch).hit);
}

// ---------------------------------------------------------------
// A full-size resizable cache is a cache: with its controller held
// (adaptive = false) the mask never narrows, and every access, every
// probe and every reference below must be the conventional cache's.
// ---------------------------------------------------------------

/** One reference a cache sent below it; write-backs are untimed. */
struct BelowAccess
{
    Addr addr;
    AccessType type;
    Cycles now;
    bool timed;
    bool operator==(const BelowAccess &) const = default;
};

/** A lower level that records what reaches it. Its latency varies
 *  by block, so fills overlap and the MSHR file fills up. */
class RecordingLevel : public MemoryLevel
{
  public:
    AccessResult access(Addr addr, AccessType type) override
    {
        log.push_back({addr, type, 0, false});
        return {true, latencyOf(addr)};
    }
    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override
    {
        log.push_back({addr, type, now, true});
        return {true, latencyOf(addr)};
    }

    std::vector<BelowAccess> log;

  private:
    static Cycles latencyOf(Addr addr) { return 20 + (addr >> 5) % 7 * 9; }
};

/** A directory stand-in: fixed latencies, every request recorded
 *  as (core, address, 1 = read fill, 2 = exclusive fill, 3 = upgrade). */
class StubAgent : public CoherenceAgent
{
  public:
    Cycles coherentFill(unsigned core, Addr addr, bool exclusive) override
    {
        calls.emplace_back(core, addr, exclusive ? 2 : 1);
        return exclusive ? 9 : 6;
    }
    Cycles coherentUpgrade(unsigned core, Addr addr) override
    {
        calls.emplace_back(core, addr, 3);
        return 4;
    }

    std::vector<std::tuple<unsigned, Addr, int>> calls;
};

/** 4 KB, 2-way, 32 B blocks (64 sets), four MSHRs. */
DriParams
fullSizeDri()
{
    DriParams p;
    p.sizeBytes = 4 * 1024;
    p.assoc = 2;
    p.blockBytes = 32;
    p.sizeBoundBytes = 1024;
    p.missBound = 1;
    p.senseInterval = 64;
    p.mshrs = 4;
    p.adaptive = false;
    return p;
}

CacheParams
convOf(const DriParams &d)
{
    CacheParams p;
    p.name = "conv";
    p.sizeBytes = d.sizeBytes;
    p.assoc = d.assoc;
    p.blockBytes = d.blockBytes;
    p.hitLatency = d.hitLatency;
    p.repl = d.repl;
    p.mshrs = d.mshrs;
    return p;
}

/**
 * Drive @p rc (a resizable cache, held at full size) and @p conv over
 * @p rcBelow / @p convBelow with one seeded stream: accesses through
 * accessAt at rising times, two thirds of them to a hot 2 KB region,
 * with invalidate and downgrade probes of 64-byte granules between
 * them. @p fetchOnly keeps the stream to instruction fetches.
 */
template <typename Resizable>
void
expectSameAsCache(Resizable &rc, RecordingLevel &rcBelow, Cache &conv,
                  RecordingLevel &convBelow, bool fetchOnly)
{
    StubAgent rcAgent, convAgent;
    rc.setCoherence(&rcAgent, 0);
    conv.setCoherence(&convAgent, 0);

    Rng rng(0x5eed);
    Cycles now = 0;
    for (int i = 0; i < 20000; ++i) {
        now += rng.range(4);
        const Addr addr = rng.range(3) == 0 ? rng.range(16 * 1024)
                                            : 0x8000 + rng.range(2048);
        const std::uint64_t pick = rng.range(20);
        if (pick < 2) {
            const Addr granule = addr & ~Addr{63};
            const CoherenceProbe a =
                pick == 0 ? rc.coherenceInvalidate(granule, 64)
                          : rc.coherenceDowngrade(granule, 64);
            const CoherenceProbe b =
                pick == 0 ? conv.coherenceInvalidate(granule, 64)
                          : conv.coherenceDowngrade(granule, 64);
            ASSERT_EQ(a.extraCycles, b.extraCycles) << "probe " << i;
            ASSERT_EQ(a.wasPresent, b.wasPresent) << "probe " << i;
            ASSERT_EQ(a.wasDirty, b.wasDirty) << "probe " << i;
            continue;
        }
        const AccessType type =
            fetchOnly || pick < 8 ? AccessType::InstFetch
            : pick < 14           ? AccessType::Load
                                  : AccessType::Store;
        const AccessResult a = rc.accessAt(addr, type, now);
        const AccessResult b = conv.accessAt(addr, type, now);
        ASSERT_EQ(a.hit, b.hit) << "access " << i;
        ASSERT_EQ(a.latency, b.latency) << "access " << i;
        if (i % 500 == 0)
            rc.retireInstructions(1000);
    }
    EXPECT_EQ(rc.currentSets(), rc.sizeMask().maxSets());

    EXPECT_EQ(rcBelow.log, convBelow.log);
    EXPECT_EQ(rcAgent.calls, convAgent.calls);
    EXPECT_EQ(rc.accesses(), conv.accesses());
    EXPECT_EQ(rc.misses(), conv.misses());
    EXPECT_EQ(rc.mshrCoalesced(), conv.mshrCoalesced());
    EXPECT_EQ(rc.mshrFullStalls(), conv.mshrFullStalls());
    EXPECT_EQ(rc.mshrFullStallCycles(), conv.mshrFullStallCycles());
    EXPECT_EQ(rc.mshrPeakOccupancy(), conv.mshrPeakOccupancy());
    EXPECT_EQ(rc.coherenceInvalidations(), conv.coherenceInvalidations());
    EXPECT_EQ(rc.coherenceDowngrades(), conv.coherenceDowngrades());
    EXPECT_EQ(rc.coherenceWritebacks(), conv.coherenceWritebacks());
    EXPECT_EQ(rc.coherenceRefetches(), conv.coherenceRefetches());

    // The stream reached every path it is meant to pin.
    EXPECT_GT(conv.mshrCoalesced(), 0u);
    EXPECT_GT(conv.mshrFullStalls(), 0u);
    EXPECT_GT(conv.coherenceInvalidations(), 0u);
    EXPECT_GT(conv.coherenceDowngrades(), 0u);
    EXPECT_GT(conv.coherenceRefetches(), 0u);
}

TEST(ResizableCacheIsACache, UnifiedWritebackFlavour)
{
    stats::StatGroup root("t");
    RecordingLevel rcBelow, convBelow;
    ResizableCache rc(fullSizeDri(), ResizePolicy::writeback(), &rcBelow,
                      &root, "rc");
    Cache conv(convOf(fullSizeDri()), &convBelow, &root);
    expectSameAsCache(rc, rcBelow, conv, convBelow, false);
    EXPECT_GT(conv.coherenceWritebacks(), 0u);
    EXPECT_GT(conv.writebacks(), conv.coherenceWritebacks());
}

TEST(ResizableCacheIsACache, InstructionCacheFlavour)
{
    stats::StatGroup root("t");
    RecordingLevel rcBelow, convBelow;
    DriICache rc(fullSizeDri(), &rcBelow, &root);
    Cache conv(convOf(fullSizeDri()), &convBelow, &root);
    expectSameAsCache(rc, rcBelow, conv, convBelow, true);
}

TEST(MainMemory, Table1Latency)
{
    stats::StatGroup root("t");
    // Table 1: 80 cycles + 4 per 8 bytes. 64 B line -> 112.
    MainMemory mem(64, &root);
    EXPECT_EQ(mem.transferLatency(), 112u);
    auto r = mem.access(0x0, AccessType::Load);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 112u);
    EXPECT_EQ(mem.accesses(), 1u);
}

} // namespace
} // namespace drisim
