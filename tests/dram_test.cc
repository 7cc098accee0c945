/**
 * @file
 * Non-blocking memory system tests: the banked/queued DRAM model
 * (row buffers, bank serialization, queue pressure, writeback
 * isolation), the MSHR file (secondary-miss coalescing, structural
 * stalls), flat-memory read/writeback accounting, checkpoint
 * round-trips of both structures, and the CMP acceptance property —
 * miss latency is load-dependent while every event count stays
 * identical. The search-determinism test drives a worker pool, so
 * this file carries the `concurrency` label (see CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include "harness/multilevel.hh"
#include "harness/runner.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory.hh"
#include "mem/mshr.hh"
#include "sim/checkpoint.hh"
#include "stats/stats.hh"

namespace drisim
{
namespace
{

/** Lower level with a fixed fill latency (isolates MSHR timing). */
struct FixedLevel : MemoryLevel
{
    Cycles lat;
    std::uint64_t calls = 0;

    explicit FixedLevel(Cycles l) : lat(l) {}

    AccessResult access(Addr, AccessType) override
    {
        ++calls;
        return {true, lat};
    }
};

/** 64-byte-block direct-mapped cache with @p mshrs registers. */
CacheParams
mshrCache(unsigned mshrs)
{
    CacheParams p;
    p.name = "c";
    p.sizeBytes = 1024;
    p.assoc = 1;
    p.blockBytes = 64;
    p.hitLatency = 1;
    p.mshrs = mshrs;
    return p;
}

DramParams
oneBank()
{
    DramParams p;
    p.banked = true;
    p.banks = 1;
    return p;
}

// Table 1 transfer term for 64-byte fills: 4 * (64/8) = 32.
constexpr Cycles kXfer = 32;

// ---------------------------------------------------------------
// Flat memory: read/writeback split (satellites 1 and 2)
// ---------------------------------------------------------------

TEST(FlatMemory, SplitsReadsFromWritebackProbes)
{
    stats::StatGroup root("t");
    MainMemory m(64, &root);

    const AccessResult read = m.access(0x1000, AccessType::Load);
    EXPECT_TRUE(read.hit);
    EXPECT_EQ(read.latency, m.transferLatency());

    const AccessResult wb = m.access(0x2000, AccessType::Store);
    EXPECT_TRUE(wb.hit);
    EXPECT_EQ(wb.latency, 0u); // drained through the write buffer

    EXPECT_EQ(m.accesses(), 2u);
    EXPECT_EQ(m.reads(), 1u);
    EXPECT_EQ(m.writebacks(), 1u);
}

TEST(FlatMemory, WritebackHeavyTrafficNeverPerturbsDemandLatency)
{
    stats::StatGroup root("t");
    MainMemory clean(64, &root);
    MainMemory dirty(64, &root);

    for (int i = 0; i < 8; ++i) {
        const Addr a = 0x1000 + 64 * static_cast<Addr>(i);
        const Cycles want =
            clean.access(a, AccessType::InstFetch).latency;
        // The same demand fill surrounded by writeback probes.
        for (int w = 0; w < 16; ++w)
            dirty.access(0x9000 + 64 * static_cast<Addr>(w),
                         AccessType::Store);
        EXPECT_EQ(dirty.access(a, AccessType::InstFetch).latency,
                  want);
    }
    EXPECT_EQ(clean.reads(), dirty.reads());
    EXPECT_EQ(dirty.writebacks(), 8u * 16u);
}

// ---------------------------------------------------------------
// Banked DRAM model
// ---------------------------------------------------------------

TEST(Dram, RowMissThenRowHitLatencies)
{
    stats::StatGroup root("t");
    Dram d(oneBank(), 64, &root);

    // Cold bank: row miss costs the Table 1 base + transfer.
    const AccessResult miss = d.accessAt(0, AccessType::Load, 0);
    EXPECT_TRUE(miss.hit);
    EXPECT_EQ(miss.latency, 80u + kXfer);

    // Same 8 KB row much later (bank idle): row-buffer hit.
    const AccessResult hit =
        d.accessAt(128, AccessType::Load, 10000);
    EXPECT_EQ(hit.latency, 40u + kXfer);

    EXPECT_EQ(d.rowMisses(), 1u);
    EXPECT_EQ(d.rowHits(), 1u);
    EXPECT_EQ(d.reads(), 2u);
    EXPECT_EQ(d.busyCycles(), (80u + kXfer) + (40u + kXfer));
}

TEST(Dram, SameBankSerializesSimultaneousFills)
{
    stats::StatGroup root("t");
    Dram d(oneBank(), 64, &root);

    // Both fills arrive at t=0 on the one bank: the second starts
    // when the first completes (and row-hits behind it).
    EXPECT_EQ(d.accessAt(0, AccessType::Load, 0).latency,
              80u + kXfer);
    EXPECT_EQ(d.accessAt(64, AccessType::Load, 0).latency,
              (80u + kXfer) + (40u + kXfer));
}

TEST(Dram, DifferentBanksServiceInParallel)
{
    stats::StatGroup root("t");
    DramParams p;
    p.banked = true;
    p.banks = 8;
    Dram d(p, 64, &root);

    // Consecutive transfer blocks interleave across banks.
    EXPECT_EQ(d.bankOf(0), 0u);
    EXPECT_EQ(d.bankOf(64), 1u);
    EXPECT_EQ(d.bankOf(64 * 8), 0u);

    // Two simultaneous fills to different banks each see an idle
    // bank: no serialization.
    EXPECT_EQ(d.accessAt(0, AccessType::Load, 0).latency,
              80u + kXfer);
    EXPECT_EQ(d.accessAt(64, AccessType::Load, 0).latency,
              80u + kXfer);
    EXPECT_EQ(d.rowMissesForBank(0), 1u);
    EXPECT_EQ(d.rowMissesForBank(1), 1u);
}

TEST(Dram, FullBankQueueIsCounted)
{
    stats::StatGroup root("t");
    DramParams p = oneBank();
    p.queueDepth = 1;
    Dram d(p, 64, &root);

    d.accessAt(0, AccessType::Load, 0);
    EXPECT_EQ(d.queueFullEvents(), 0u);
    // The first fill is still in flight at t=0: the queue is full.
    d.accessAt(64, AccessType::Load, 0);
    EXPECT_EQ(d.queueFullEvents(), 1u);
    // After the bank drains, arrivals find room again.
    d.accessAt(128, AccessType::Load, 100000);
    EXPECT_EQ(d.queueFullEvents(), 1u);
}

TEST(Dram, WritebackProbesNeverPerturbDemandTiming)
{
    // The satellite regression: a writeback-heavy run must report
    // exactly the latencies and row-buffer outcomes of a clean run
    // — Store probes are counted but touch no bank state.
    stats::StatGroup root("t");
    Dram clean(oneBank(), 64, &root);
    Dram dirty(oneBank(), 64, &root);

    const Addr demand[] = {0, 128, 3 * 8192, 64};
    Cycles t = 0;
    for (const Addr a : demand) {
        const Cycles want =
            clean.accessAt(a, AccessType::Load, t).latency;
        // Writebacks to *other rows of the same bank* between
        // demands: were they to occupy the bank or move the open
        // row, the demand latency would change.
        for (int w = 0; w < 8; ++w) {
            const AccessResult wb = dirty.accessAt(
                5 * 8192 + 64 * static_cast<Addr>(w),
                AccessType::Store, t);
            EXPECT_EQ(wb.latency, 0u);
        }
        EXPECT_EQ(dirty.accessAt(a, AccessType::Load, t).latency,
                  want);
        t += 50;
    }
    EXPECT_EQ(clean.rowHits(), dirty.rowHits());
    EXPECT_EQ(clean.rowMisses(), dirty.rowMisses());
    EXPECT_EQ(clean.busyCycles(), dirty.busyCycles());
    EXPECT_EQ(dirty.writebacks(), 4u * 8u);
    EXPECT_EQ(dirty.accesses(),
              clean.accesses() + dirty.writebacks());
}

// ---------------------------------------------------------------
// MSHR file behind a cache level
// ---------------------------------------------------------------

TEST(Mshr, SecondaryMissCoalescesOntoInflightFill)
{
    stats::StatGroup root("t");
    FixedLevel below(100);
    Cache c(mshrCache(2), &below, &root);

    // Primary miss at t=0: 1 (hit latency) + 100 (fill) = 101, so
    // the fill lands at t=101.
    EXPECT_EQ(c.accessAt(0, AccessType::Load, 0).latency, 101u);

    // Same block at t=50: the fill is still 51 cycles out — a
    // secondary miss that waits out the remainder, not a fresh
    // round trip.
    const AccessResult sec = c.accessAt(0, AccessType::Load, 50);
    EXPECT_EQ(sec.latency, 1u + 51u);
    EXPECT_EQ(c.mshrCoalesced(), 1u);
    EXPECT_EQ(below.calls, 1u);

    // After the fill completes it is a plain hit.
    EXPECT_EQ(c.accessAt(0, AccessType::Load, 200).latency, 1u);
    EXPECT_EQ(c.mshrCoalesced(), 1u);
    EXPECT_EQ(c.mshrPeakOccupancy(), 1u);
}

TEST(Mshr, FullFileStallsPrimaryMiss)
{
    stats::StatGroup root("t");
    FixedLevel below(100);
    Cache c(mshrCache(1), &below, &root);

    EXPECT_EQ(c.accessAt(0, AccessType::Load, 0).latency, 101u);
    // A different block at t=0 finds the single register busy: it
    // stalls to t=101 (the outstanding fill), then misses normally.
    const AccessResult r = c.accessAt(64, AccessType::Load, 0);
    EXPECT_EQ(r.latency, 101u + 1u + 100u);
    EXPECT_EQ(c.mshrFullStalls(), 1u);
    EXPECT_EQ(c.mshrFullStallCycles(), 101u);
}

TEST(Mshr, FillLandingExactlyAtNowIsRetiredNotCoalesced)
{
    // The prune boundary: an entry whose fill completes at exactly
    // `now` has delivered its data. prune() runs before find() in
    // the cache's access path, so the boundary access must see a
    // retired entry — never a zero-remainder coalesce target, which
    // would count the fill as both completed and in flight.
    MshrFile m(2);
    m.allocate(0x0, 101);
    m.prune(101);
    EXPECT_EQ(m.occupancy(), 0u);
    Cycles fillAt = 0;
    EXPECT_FALSE(m.find(0x0, fillAt));

    // One cycle earlier the same fill is still outstanding.
    MshrFile n(2);
    n.allocate(0x0, 101);
    n.prune(100);
    EXPECT_EQ(n.occupancy(), 1u);
    EXPECT_TRUE(n.find(0x0, fillAt));
    EXPECT_EQ(fillAt, 101u);
}

TEST(Mshr, AccessAtExactFillTimeFreesTheRegister)
{
    stats::StatGroup root("t");
    FixedLevel below(100);
    Cache c(mshrCache(1), &below, &root);

    // Primary miss at t=0 fills at t=101.
    EXPECT_EQ(c.accessAt(0, AccessType::Load, 0).latency, 101u);

    // A different block at t=101, the completion cycle itself: the
    // register is already free — a normal primary miss, no
    // structural stall.
    EXPECT_EQ(c.accessAt(64, AccessType::Load, 101).latency, 101u);
    EXPECT_EQ(c.mshrFullStalls(), 0u);

    // And the first block is home: a plain hit, not a coalesce.
    EXPECT_TRUE(c.accessAt(0, AccessType::Load, 202).hit);
    EXPECT_EQ(c.mshrCoalesced(), 0u);
}

TEST(Mshr, DisabledFileKeepsBlockingBehaviour)
{
    stats::StatGroup root("t");
    FixedLevel below(100);
    Cache c(mshrCache(0), &below, &root);

    EXPECT_EQ(c.accessAt(0, AccessType::Load, 0).latency, 101u);
    // With mshrs=0 the same-block re-reference at t=50 is a plain
    // hit — the historical blocking model charges no fill wait.
    EXPECT_EQ(c.accessAt(0, AccessType::Load, 50).latency, 1u);
    EXPECT_EQ(c.mshrCoalesced(), 0u);
    EXPECT_EQ(c.mshrFullStalls(), 0u);
    EXPECT_EQ(c.mshrPeakOccupancy(), 0u);
}

// ---------------------------------------------------------------
// Checkpoint round-trips (satellite: MSHR/DRAM state crosses the
// snapshot seam; the end-to-end splits live in checkpoint_test.cc)
// ---------------------------------------------------------------

TEST(MshrCheckpoint, LiveEntriesSurviveARoundTrip)
{
    MshrFile f(4);
    f.allocate(0x10, 100);
    f.allocate(0x20, 200);

    sim::CheckpointWriter w;
    f.checkpoint(w);

    MshrFile g(4);
    sim::CheckpointReader r(w.bytes());
    g.checkpoint(r);

    EXPECT_EQ(g.occupancy(), 2u);
    Cycles fill = 0;
    ASSERT_TRUE(g.find(0x10, fill));
    EXPECT_EQ(fill, 100u);
    EXPECT_EQ(g.earliestFillAt(), 100u);
    g.prune(150);
    EXPECT_EQ(g.occupancy(), 1u);
}

TEST(MshrCheckpoint, RestoreIntoASmallerFileThrows)
{
    MshrFile f(4);
    f.allocate(0x10, 100);
    f.allocate(0x20, 200);
    sim::CheckpointWriter w;
    f.checkpoint(w);

    MshrFile tiny(1);
    sim::CheckpointReader r(w.bytes());
    EXPECT_THROW(tiny.checkpoint(r), sim::CheckpointError);
}

TEST(DramCheckpoint, BankAndQueueStateSurviveARoundTrip)
{
    stats::StatGroup root("t");
    DramParams p = oneBank();
    Dram a(p, 64, &root);

    a.accessAt(0, AccessType::Load, 0);      // opens row 0, busy
    a.accessAt(3 * 8192, AccessType::Load, 0); // row 3 behind it
    a.accessAt(64, AccessType::Store, 0);

    sim::CheckpointWriter w;
    a.checkpoint(w);

    stats::StatGroup root2("t");
    Dram b(p, 64, &root2);
    sim::CheckpointReader r(w.bytes());
    b.checkpoint(r);

    EXPECT_EQ(b.reads(), a.reads());
    EXPECT_EQ(b.writebacks(), a.writebacks());
    EXPECT_EQ(b.rowHits(), a.rowHits());
    EXPECT_EQ(b.rowMisses(), a.rowMisses());
    EXPECT_EQ(b.busyCycles(), a.busyCycles());

    // The restored queue and open row reproduce the original's
    // future behaviour exactly.
    const AccessResult ra = a.accessAt(3 * 8192 + 64,
                                       AccessType::Load, 10);
    const AccessResult rb = b.accessAt(3 * 8192 + 64,
                                       AccessType::Load, 10);
    EXPECT_EQ(ra.latency, rb.latency);
    EXPECT_EQ(a.rowHits(), b.rowHits());
}

TEST(DramCheckpoint, BankCountMismatchThrows)
{
    stats::StatGroup root("t");
    Dram a(oneBank(), 64, &root);
    sim::CheckpointWriter w;
    a.checkpoint(w);

    DramParams p8;
    p8.banked = true;
    p8.banks = 8;
    stats::StatGroup root2("t");
    Dram b(p8, 64, &root2);
    sim::CheckpointReader r(w.bytes());
    EXPECT_THROW(b.checkpoint(r), sim::CheckpointError);
}

// ---------------------------------------------------------------
// CMP acceptance: load-dependent latency, identical event counts
// ---------------------------------------------------------------

RunConfig
bankedCmpConfig()
{
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    cfg.hier.dram.banked = true;
    cfg.hier.l1i.mshrs = 4;
    cfg.hier.l1d.mshrs = 4;
    cfg.hier.l2.mshrs = 8;
    return cfg;
}

CmpConfig
fourCoreMix()
{
    CmpConfig cmp;
    cmp.cores = 4;
    const char *benches[] = {"compress", "li", "mgrid", "gcc"};
    for (const char *b : benches) {
        CmpCoreConfig c;
        c.bench = b;
        cmp.coreConfigs.push_back(std::move(c));
    }
    return cmp;
}

TEST(CmpBankedDram, MissLatencyIsLoadDependentNotEventDependent)
{
    // The same 4-core mix through a wide (8-bank) and a fully
    // serialized (1-bank, depth-1 queue) DRAM: the round-robin
    // quanta are instruction-based, so what is referenced cannot
    // change — only when it completes. Every event count must
    // match; the contended configuration must be strictly slower.
    const CmpConfig cmp = fourCoreMix();
    const RunConfig wide = bankedCmpConfig();
    RunConfig contended = wide;
    contended.hier.dram.banks = 1;
    contended.hier.dram.queueDepth = 1;

    const CmpRunOutput a = runCmp(wide, cmp, "compress");
    const CmpRunOutput b = runCmp(contended, cmp, "compress");

    ASSERT_EQ(a.cores.size(), 4u);
    ASSERT_EQ(b.cores.size(), 4u);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.memAccesses, b.memAccesses);
    std::uint64_t sum_a = 0;
    for (std::size_t k = 0; k < a.cores.size(); ++k) {
        EXPECT_EQ(a.cores[k].meas.instructions,
                  b.cores[k].meas.instructions);
        EXPECT_EQ(a.cores[k].meas.l1iMisses,
                  b.cores[k].meas.l1iMisses);
        EXPECT_EQ(a.cores[k].l2Accesses, b.cores[k].l2Accesses);
        EXPECT_EQ(a.cores[k].l2Misses, b.cores[k].l2Misses);
        // Per-core demand-miss latency is where the load shows.
        EXPECT_GT(b.cores[k].l2MissLatencyCycles,
                  a.cores[k].l2MissLatencyCycles);
        sum_a += a.cores[k].l2MissLatencyCycles;
    }
    EXPECT_EQ(sum_a, a.l2MissLatencyCycles);
    EXPECT_GT(a.l2MissLatencyCycles, 0u);
    EXPECT_GT(b.l2MissLatencyCycles, a.l2MissLatencyCycles);

    // The non-blocking stats surface in the run output.
    EXPECT_GT(a.mshrPeakOccupancy, 0u);
    EXPECT_EQ(a.dramRowHits + a.dramRowMisses,
              b.dramRowHits + b.dramRowMisses);
    ASSERT_EQ(a.dramBankRowHits.size(), 8u);
    std::uint64_t bank_sum = 0;
    for (const std::uint64_t h : a.dramBankRowHits)
        bank_sum += h;
    EXPECT_EQ(bank_sum, a.dramRowHits);
    EXPECT_GT(a.dramBusyCycles, 0u);
}

TEST(CmpBankedDram, FlatModeOutputCarriesNoDramActivity)
{
    RunConfig cfg;
    cfg.maxInstrs = 50 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    const CmpRunOutput out = runCmp(cfg, cmp, "compress");
    EXPECT_EQ(out.mshrCoalesced, 0u);
    EXPECT_EQ(out.mshrFullStalls, 0u);
    EXPECT_EQ(out.mshrPeakOccupancy, 0u);
    EXPECT_EQ(out.dramRowHits, 0u);
    EXPECT_EQ(out.dramRowMisses, 0u);
    EXPECT_EQ(out.dramBusyCycles, 0u);
    EXPECT_TRUE(out.dramBankRowHits.empty());
}

/** Banked CMP search must stay byte-identical at any worker count
 *  (the --jobs determinism acceptance; run under TSan via the
 *  `concurrency` label). */
TEST(CmpBankedDramConcurrency, SearchIsJobCountInvariant)
{
    RunConfig cfg = bankedCmpConfig();
    cfg.maxInstrs = 30 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput conv = runCmp(cfg, cmp, "compress");

    CmpSpace space;
    space.l1MissBoundFactors = {2.0, 32.0};
    space.l2SizeBounds = {64 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 10000;
    l1Tmpl.mshrs = 4;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 10000;

    RunConfig serial = cfg;
    serial.jobs = 1;
    const CmpSearchResult one = searchCmp(
        serial, cmp, "compress", l1Tmpl, l2Tmpl, space,
        EnergyConstants{}, -1.0, conv);

    RunConfig pooled = cfg;
    pooled.jobs = 4;
    const CmpSearchResult four = searchCmp(
        pooled, cmp, "compress", l1Tmpl, l2Tmpl, space,
        EnergyConstants{}, -1.0, conv);

    ASSERT_EQ(one.evaluated.size(), four.evaluated.size());
    for (std::size_t i = 0; i < one.evaluated.size(); ++i) {
        const CmpCandidate &x = one.evaluated[i];
        const CmpCandidate &y = four.evaluated[i];
        EXPECT_EQ(x.l2.sizeBoundBytes, y.l2.sizeBoundBytes);
        EXPECT_EQ(x.l2.missBound, y.l2.missBound);
        ASSERT_EQ(x.l1.size(), y.l1.size());
        for (std::size_t k = 0; k < x.l1.size(); ++k)
            EXPECT_EQ(x.l1[k].missBound, y.l1[k].missBound);
        // Bit-identical doubles, not approximately equal.
        EXPECT_EQ(x.cmp.relativeEnergyDelay(),
                  y.cmp.relativeEnergyDelay());
        EXPECT_EQ(x.cmp.slowdownPercent(), y.cmp.slowdownPercent());
        EXPECT_EQ(x.out.systemCycles, y.out.systemCycles);
        EXPECT_EQ(x.out.memAccesses, y.out.memAccesses);
        EXPECT_EQ(x.out.dramBusyCycles, y.out.dramBusyCycles);
    }
    EXPECT_EQ(one.best.l2.sizeBoundBytes, four.best.l2.sizeBoundBytes);
}

} // namespace
} // namespace drisim
