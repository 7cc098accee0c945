/**
 * @file
 * MSI coherence tests (mem/directory.hh): sparse-directory
 * allocation and deterministic LRU capacity eviction (checked
 * victim by victim against a linear-scan oracle, across restores),
 * the controller's probe routing and per-core attribution, the
 * Cache/PolicyCacheBase client behaviour (dirty flush, granule
 * spanning, drowsy wake charging, decay refetch accounting), the
 * checkpoint v3 layout negotiation, and a TSan-targeted check that
 * independent controllers share no hidden mutable state (this file
 * is labelled `concurrency`; see CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/tag_store.hh"
#include "policy/decay_policy.hh"
#include "policy/drowsy_policy.hh"
#include "sim/checkpoint.hh"
#include "stats/stats.hh"
#include "util/random.hh"

namespace drisim
{
namespace
{

constexpr unsigned kGranule = 64;

CoherenceConfig
smallConfig()
{
    CoherenceConfig cfg;
    cfg.enabled = true;
    cfg.directoryEntries = 16;
    cfg.msgLatency = 3;
    return cfg;
}

/** Probe recorder with a scriptable reply. */
struct FakeClient : CoherenceClient
{
    struct Probe
    {
        Addr addr;
        unsigned bytes;
        bool invalidate;
    };
    std::vector<Probe> probes;
    CoherenceProbe reply;

    CoherenceProbe coherenceInvalidate(Addr addr,
                                       unsigned bytes) override
    {
        probes.push_back({addr, bytes, true});
        return reply;
    }
    CoherenceProbe coherenceDowngrade(Addr addr,
                                      unsigned bytes) override
    {
        probes.push_back({addr, bytes, false});
        return reply;
    }
};

/** Minimal requester-side adapter for wiring real caches to a
 *  controller without a full SharedL2Bus. */
struct AgentAdapter : CoherenceAgent
{
    CoherenceController *ctrl = nullptr;

    Cycles coherentFill(unsigned core, Addr addr,
                        bool exclusive) override
    {
        return ctrl->fill(core, addr, exclusive);
    }
    Cycles coherentUpgrade(unsigned core, Addr addr) override
    {
        return ctrl->upgrade(core, addr);
    }
};

CacheParams
l1Params(const std::string &name)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = 1024;
    p.assoc = 1;
    p.blockBytes = 32;
    p.hitLatency = 1;
    return p;
}

// ---------------------------------------------------------------
// SparseDirectory
// ---------------------------------------------------------------

TEST(SparseDirectory, AllocateFindAndFreeSlots)
{
    SparseDirectory dir(4);
    SparseDirectory::Entry victim;
    SparseDirectory::Entry &a = dir.allocate(0x10, &victim);
    EXPECT_FALSE(victim.valid);
    a.sharers = 0b01;
    dir.allocate(0x20, &victim);
    EXPECT_FALSE(victim.valid);

    EXPECT_EQ(dir.entriesInUse(), 2u);
    EXPECT_EQ(dir.allocations(), 2u);
    EXPECT_EQ(dir.capacityEvictions(), 0u);
    ASSERT_NE(dir.find(0x10), nullptr);
    EXPECT_EQ(dir.find(0x10)->sharers, 0b01u);
    EXPECT_EQ(dir.find(0x30), nullptr);
}

TEST(SparseDirectory, CapacityEvictionPicksLeastRecentlyTouched)
{
    SparseDirectory dir(2);
    SparseDirectory::Entry victim;
    SparseDirectory::Entry &a = dir.allocate(0xA, &victim);
    SparseDirectory::Entry &b = dir.allocate(0xB, &victim);
    b.sharers = 0b11;
    b.owner = 1;
    dir.touch(a); // A is now MRU; B becomes the LRU victim.

    dir.allocate(0xC, &victim);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.block, 0xBu);
    // The victim's prior holders ride out so the caller can
    // invalidate them.
    EXPECT_EQ(victim.sharers, 0b11u);
    EXPECT_EQ(victim.owner, 1);
    EXPECT_EQ(dir.capacityEvictions(), 1u);
    EXPECT_EQ(dir.find(0xB), nullptr);
    EXPECT_NE(dir.find(0xA), nullptr);
    EXPECT_NE(dir.find(0xC), nullptr);
    EXPECT_EQ(dir.entriesInUse(), 2u);
}

/**
 * The linear scan SparseDirectory::allocate() used before its
 * allocation-order list, kept as the oracle: the lowest free slot,
 * else the least lastTouch, ties to the lowest slot.
 */
struct ScanDirectory
{
    struct Slot
    {
        Addr block = kInvalidAddr;
        std::uint64_t lastTouch = 0;
        bool valid = false;
    };

    explicit ScanDirectory(std::size_t entries) : slots(entries) {}

    /** Allocate @p block; the evicted block, or kInvalidAddr. */
    Addr
    allocate(Addr block)
    {
        std::size_t slot = slots.size();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (!slots[s].valid) {
                slot = s;
                break;
            }
        }
        Addr victim = kInvalidAddr;
        if (slot == slots.size()) {
            std::uint64_t best = ~std::uint64_t{0};
            for (std::size_t s = 0; s < slots.size(); ++s) {
                if (slots[s].lastTouch < best) {
                    best = slots[s].lastTouch;
                    slot = s;
                }
            }
            victim = slots[slot].block;
            ++evictions;
        }
        slots[slot] = {block, ++tick, true};
        return victim;
    }

    void
    touch(Addr block)
    {
        for (Slot &s : slots)
            if (s.valid && s.block == block)
                s.lastTouch = ++tick;
    }

    std::vector<Slot> slots;
    std::uint64_t tick = 0;
    std::uint64_t evictions = 0;
};

/**
 * @p steps random fills through @p dir and @p oracle alike: a block
 * from a pool of four times the capacity, allocated when absent (the
 * victims must agree) and usually touched, as the controller does.
 */
void
driveAgainstOracle(SparseDirectory &dir, ScanDirectory &oracle,
                   Rng &rng, int steps)
{
    const std::uint64_t pool = 4 * dir.maxEntries();
    for (int i = 0; i < steps; ++i) {
        const Addr block = rng.range(pool);
        SparseDirectory::Entry *e = dir.find(block);
        if (!e) {
            SparseDirectory::Entry victim;
            e = &dir.allocate(block, &victim);
            const Addr want = oracle.allocate(block);
            ASSERT_EQ(victim.valid, want != kInvalidAddr)
                << "step " << i;
            if (victim.valid) {
                ASSERT_EQ(victim.block, want) << "step " << i;
            }
        }
        if (rng.chance(0.7)) {
            dir.touch(*e);
            oracle.touch(block);
        }
    }
    std::uint64_t inUse = 0;
    for (const ScanDirectory::Slot &s : oracle.slots) {
        if (s.valid) {
            ++inUse;
            ASSERT_NE(dir.find(s.block), nullptr);
            EXPECT_EQ(dir.find(s.block)->lastTouch, s.lastTouch);
        }
    }
    EXPECT_EQ(dir.entriesInUse(), inUse);
    EXPECT_EQ(dir.capacityEvictions(), oracle.evictions);
}

/** Restore a fresh directory of @p entries from @p bytes. */
std::unique_ptr<SparseDirectory>
restoredDirectory(std::uint64_t entries, const std::string &bytes)
{
    auto dir = std::make_unique<SparseDirectory>(entries);
    sim::CheckpointReader r(bytes);
    dir->checkpoint(r);
    return dir;
}

TEST(SparseDirectory, VictimsMatchTheLinearScanAcrossARestore)
{
    for (const std::uint64_t entries : {1u, 2u, 7u, 256u}) {
        SCOPED_TRACE("capacity " + std::to_string(entries));
        Rng rng(entries);
        const int steps = static_cast<int>(40 * entries) + 400;
        SparseDirectory dir(entries);
        ScanDirectory oracle(entries);
        driveAgainstOracle(dir, oracle, rng, steps);

        sim::CheckpointWriter w;
        dir.checkpoint(w);
        auto restored = restoredDirectory(entries, w.bytes());
        driveAgainstOracle(*restored, oracle, rng, steps);
        EXPECT_GT(oracle.evictions, 0u);
    }
}

TEST(SparseDirectory, RestoredTiesEvictTheLowestSlotFirst)
{
    // A hand-made snapshot: seven slots, two free (2 and 5), and the
    // valid ones touched at 3, 5 or 9 with ties.
    const std::uint64_t touches[7] = {5, 3, 0, 3, 9, 0, 3};
    const bool valid[7] = {true, true, false, true, true, false, true};
    constexpr std::uint64_t kTick = 9;
    sim::CheckpointWriter w;
    w.beginSection("dir");
    w.putU64(7);     // capacity
    w.putU64(kTick); // clock
    w.putU64(5);     // allocations
    w.putU64(0);     // capacity evictions
    ScanDirectory oracle(7);
    oracle.tick = kTick;
    for (std::size_t s = 0; s < 7; ++s) {
        const Addr block = valid[s] ? 100 + s : kInvalidAddr;
        w.putU64(block);
        w.putU64(0);  // sharers
        w.putI64(-1); // owner
        w.putU64(touches[s]);
        w.putBool(valid[s]);
        oracle.slots[s] = {block, touches[s], valid[s]};
    }
    w.endSection();
    auto dir = restoredDirectory(7, w.bytes());

    // The free slots fill first; then the ties at 3 go lowest slot
    // first (1, 3, 6), then 0 (5) and 4 (9).
    const Addr expected[7] = {kInvalidAddr, kInvalidAddr, 101, 103,
                              106,          100,          104};
    for (int i = 0; i < 7; ++i) {
        SparseDirectory::Entry victim;
        dir->allocate(200 + i, &victim);
        EXPECT_EQ(victim.valid ? victim.block : kInvalidAddr,
                  expected[i])
            << "allocation " << i;
        EXPECT_EQ(oracle.allocate(200 + i), expected[i]);
    }

    // Then the same random run as the scan.
    auto tied = restoredDirectory(7, w.bytes());
    ScanDirectory tiedOracle(7);
    tiedOracle.tick = kTick;
    for (std::size_t s = 0; s < 7; ++s)
        tiedOracle.slots[s] = {valid[s] ? 100 + s : kInvalidAddr,
                               touches[s], valid[s]};
    Rng rng(77);
    driveAgainstOracle(*tied, tiedOracle, rng, 2000);
}

// ---------------------------------------------------------------
// CoherenceController over fake clients
// ---------------------------------------------------------------

TEST(CoherenceController, ReadSharersNeverProbeEachOther)
{
    CoherenceController ctrl(smallConfig(), 2, kGranule);
    FakeClient c0, c1;
    ctrl.addClient(0, &c0);
    ctrl.addClient(1, &c1);

    EXPECT_EQ(ctrl.fill(0, 0x1000, false), 0u);
    EXPECT_EQ(ctrl.fill(1, 0x1000, false), 0u);
    EXPECT_TRUE(c0.probes.empty());
    EXPECT_TRUE(c1.probes.empty());
    EXPECT_EQ(ctrl.invalidationsSent(), 0u);
    EXPECT_EQ(ctrl.downgradesSent(), 0u);
    EXPECT_EQ(ctrl.coreStats(0).messageCycles, 0u);
}

TEST(CoherenceController, SharedFillDowngradesForeignModifiedOwner)
{
    CoherenceController ctrl(smallConfig(), 2, kGranule);
    FakeClient c0, c1;
    c0.reply = {/*extraCycles=*/2, /*wasPresent=*/true,
                /*wasDirty=*/true};
    ctrl.addClient(0, &c0);
    ctrl.addClient(1, &c1);

    // Core 0 takes the block Modified: nobody else holds it, so no
    // probes and no latency.
    EXPECT_EQ(ctrl.fill(0, 0x1000, true), 0u);

    // Core 1 reads it: the owner is snooped (msgLatency) and its
    // wake stall (extraCycles) rides the requester's path.
    const Cycles lat = ctrl.fill(1, 0x1000, false);
    EXPECT_EQ(lat, 3u + 2u);
    ASSERT_EQ(c0.probes.size(), 1u);
    EXPECT_FALSE(c0.probes[0].invalidate);
    EXPECT_EQ(c0.probes[0].addr, 0x1000u / kGranule * kGranule);
    EXPECT_EQ(c0.probes[0].bytes, kGranule);

    EXPECT_EQ(ctrl.coreStats(0).downgradesReceived, 1u);
    EXPECT_EQ(ctrl.coreStats(0).coherenceWritebacks, 1u);
    EXPECT_EQ(ctrl.coreStats(1).messageCycles, 3u);
    EXPECT_EQ(ctrl.downgradesSent(), 1u);
    EXPECT_EQ(ctrl.invalidationsSent(), 0u);

    // A second read by core 1 finds no foreign owner: silent.
    EXPECT_EQ(ctrl.fill(1, 0x1000, false), 0u);
    EXPECT_EQ(c0.probes.size(), 1u);
}

TEST(CoherenceController, UpgradeInvalidatesSharersSparingRequester)
{
    CoherenceController ctrl(smallConfig(), 3, kGranule);
    FakeClient c0, c1, c2;
    for (FakeClient *c : {&c0, &c1, &c2})
        c->reply = {0, true, false};
    ctrl.addClient(0, &c0);
    ctrl.addClient(1, &c1);
    ctrl.addClient(2, &c2);

    ctrl.fill(0, 0x2000, false);
    ctrl.fill(1, 0x2000, false);
    ctrl.fill(2, 0x2000, false);

    // Core 1 writes its Shared copy: cores 0 and 2 are invalidated,
    // core 1 itself is spared.
    const Cycles lat = ctrl.upgrade(1, 0x2000);
    EXPECT_EQ(lat, 2u * 3u);
    ASSERT_EQ(c0.probes.size(), 1u);
    EXPECT_TRUE(c0.probes[0].invalidate);
    ASSERT_EQ(c2.probes.size(), 1u);
    EXPECT_TRUE(c2.probes[0].invalidate);
    EXPECT_TRUE(c1.probes.empty());

    EXPECT_EQ(ctrl.coreStats(0).invalidationsReceived, 1u);
    EXPECT_EQ(ctrl.coreStats(2).invalidationsReceived, 1u);
    EXPECT_EQ(ctrl.coreStats(1).invalidationsCaused, 2u);
    EXPECT_EQ(ctrl.coreStats(1).messageCycles, 2u * 3u);
    EXPECT_EQ(ctrl.invalidationsSent(), 2u);
}

TEST(CoherenceController, ExclusiveFillInvalidatesPriorHolders)
{
    CoherenceController ctrl(smallConfig(), 2, kGranule);
    FakeClient c0, c1;
    c0.reply = {0, true, true}; // dirty copy flushed on the probe
    ctrl.addClient(0, &c0);
    ctrl.addClient(1, &c1);

    ctrl.fill(0, 0x3000, true);
    // Core 1's store miss takes the block Modified: the old owner
    // is invalidated (not merely downgraded).
    const Cycles lat = ctrl.fill(1, 0x3000, true);
    EXPECT_EQ(lat, 3u);
    ASSERT_EQ(c0.probes.size(), 1u);
    EXPECT_TRUE(c0.probes[0].invalidate);
    EXPECT_EQ(ctrl.coreStats(0).invalidationsReceived, 1u);
    EXPECT_EQ(ctrl.coreStats(0).coherenceWritebacks, 1u);
    EXPECT_EQ(ctrl.coreStats(1).invalidationsCaused, 1u);
}

TEST(CoherenceController, DirectoryEvictionInvalidatesEveryHolder)
{
    CoherenceConfig cfg = smallConfig();
    cfg.directoryEntries = 1;
    CoherenceController ctrl(cfg, 2, kGranule);
    FakeClient c0, c1;
    c0.reply = {0, true, false};
    c1.reply = {0, true, false};
    ctrl.addClient(0, &c0);
    ctrl.addClient(1, &c1);

    ctrl.fill(0, 0x1000, false);
    ctrl.fill(1, 0x1000, false);

    // Core 0 touches a different granule: the single entry is
    // capacity-evicted and BOTH prior holders are invalidated —
    // including the requester, whose tracked copy is of the old
    // block (the conservative sparse-directory behaviour).
    const Cycles lat = ctrl.fill(0, 0x8000, false);
    EXPECT_EQ(lat, 2u * 3u);
    ASSERT_EQ(c0.probes.size(), 1u);
    EXPECT_TRUE(c0.probes[0].invalidate);
    EXPECT_EQ(c0.probes[0].addr, 0x1000u);
    ASSERT_EQ(c1.probes.size(), 1u);
    EXPECT_TRUE(c1.probes[0].invalidate);
    EXPECT_EQ(ctrl.directory().capacityEvictions(), 1u);
    EXPECT_EQ(ctrl.coreStats(0).invalidationsReceived, 1u);
    EXPECT_EQ(ctrl.coreStats(1).invalidationsReceived, 1u);
}

TEST(CoherenceController, AbsentCopiesAreNotCountedAsInvalidations)
{
    // A probe that finds nothing (the L1 evicted the line on its
    // own) must not inflate the attribution counters.
    CoherenceController ctrl(smallConfig(), 2, kGranule);
    FakeClient c0, c1;
    c0.reply = {0, /*wasPresent=*/false, false};
    ctrl.addClient(0, &c0);
    ctrl.addClient(1, &c1);

    ctrl.fill(0, 0x1000, false);
    ctrl.upgrade(1, 0x1000);
    EXPECT_EQ(c0.probes.size(), 1u);
    EXPECT_EQ(ctrl.coreStats(0).invalidationsReceived, 0u);
    EXPECT_EQ(ctrl.coreStats(1).invalidationsCaused, 0u);
    // The message was still sent and charged.
    EXPECT_EQ(ctrl.coreStats(1).messageCycles, 3u);
}

// ---------------------------------------------------------------
// Cache as a coherence client
// ---------------------------------------------------------------

TEST(CacheClient, InvalidateDropsEveryEnclosedLineAndFlushesDirty)
{
    stats::StatGroup root("t");
    Cache c(l1Params("l1d"), nullptr, &root);
    c.access(0x100, AccessType::Store);     // dirty line
    c.access(0x120, AccessType::InstFetch); // clean second line

    // One 64-byte granule covers both 32-byte L1 lines.
    const CoherenceProbe p = c.coherenceInvalidate(0x100, kGranule);
    EXPECT_TRUE(p.wasPresent);
    EXPECT_TRUE(p.wasDirty);
    EXPECT_EQ(c.coherenceInvalidations(), 2u);
    EXPECT_EQ(c.coherenceWritebacks(), 1u);
    EXPECT_FALSE(c.access(0x100, AccessType::Load).hit);
    EXPECT_FALSE(c.access(0x120, AccessType::InstFetch).hit);
}

TEST(CacheClient, DowngradeKeepsTheLineReadable)
{
    stats::StatGroup root("t");
    Cache c(l1Params("l1d"), nullptr, &root);
    c.access(0x100, AccessType::Store);

    const CoherenceProbe p = c.coherenceDowngrade(0x100, kGranule);
    EXPECT_TRUE(p.wasPresent);
    EXPECT_TRUE(p.wasDirty);
    EXPECT_TRUE(c.access(0x100, AccessType::Load).hit);

    // The flush cleared the dirty bit: a second downgrade finds a
    // clean Shared copy.
    const CoherenceProbe q = c.coherenceDowngrade(0x100, kGranule);
    EXPECT_TRUE(q.wasPresent);
    EXPECT_FALSE(q.wasDirty);
    EXPECT_EQ(c.coherenceWritebacks(), 1u);
}

TEST(CacheClient, ProbeOfAnAbsentGranuleIsSilent)
{
    stats::StatGroup root("t");
    Cache c(l1Params("l1d"), nullptr, &root);
    c.access(0x100, AccessType::Store);
    const CoherenceProbe p = c.coherenceInvalidate(0x800, kGranule);
    EXPECT_FALSE(p.wasPresent);
    EXPECT_FALSE(p.wasDirty);
    EXPECT_EQ(c.coherenceInvalidations(), 0u);
    EXPECT_TRUE(c.access(0x100, AccessType::Load).hit);
}

TEST(CacheClient, EndToEndMsiOverTheController)
{
    stats::StatGroup root("t");
    CoherenceController ctrl(smallConfig(), 2, kGranule);
    AgentAdapter agent;
    agent.ctrl = &ctrl;

    Cache d0(l1Params("l1d0"), nullptr, &root);
    Cache d1(l1Params("l1d1"), nullptr, &root);
    d0.setCoherence(&agent, 0);
    d1.setCoherence(&agent, 1);
    ctrl.addClient(0, &d0);
    ctrl.addClient(1, &d1);

    // Core 0 writes: exclusive fill, no other holders.
    d0.access(0x1000, AccessType::Store);
    EXPECT_EQ(ctrl.coreStats(0).messageCycles, 0u);

    // Core 1 reads the same block: core 0's Modified copy is
    // downgraded and its dirty data flushed.
    d1.access(0x1000, AccessType::Load);
    EXPECT_EQ(d0.coherenceDowngrades(), 1u);
    EXPECT_EQ(d0.coherenceWritebacks(), 1u);
    EXPECT_EQ(ctrl.coreStats(0).downgradesReceived, 1u);
    EXPECT_EQ(ctrl.coreStats(1).messageCycles, 3u);
    EXPECT_TRUE(d0.access(0x1000, AccessType::Load).hit);

    // Core 1 now writes its Shared copy: a write upgrade that
    // invalidates core 0.
    d1.access(0x1000, AccessType::Store);
    EXPECT_EQ(d0.coherenceInvalidations(), 1u);
    EXPECT_EQ(ctrl.coreStats(1).invalidationsCaused, 1u);
    EXPECT_FALSE(d0.access(0x1000, AccessType::Load).hit);
}

// ---------------------------------------------------------------
// Leakage policies under coherence probes
// ---------------------------------------------------------------

PolicyConfig
policyConfig(PolicyKind kind)
{
    PolicyConfig pc;
    pc.kind = kind;
    pc.dri.sizeBytes = 1024;
    pc.dri.assoc = 1;
    pc.dri.blockBytes = 32;
    pc.drowsy.drowsyInterval = 1000;
    pc.drowsy.wakeLatency = 2;
    pc.decay.decayInterval = 1000;
    return pc;
}

TEST(DrowsyCoherence, ProbeWakesTheLineAndChargesTheRequester)
{
    stats::StatGroup root("t");
    DrowsyCache c(policyConfig(PolicyKind::Drowsy), nullptr, &root);
    c.access(0x100, AccessType::InstFetch);
    c.onRetire(1000); // drowsy episode: the whole array naps
    // 0x100 with 32B blocks over 32 sets lands in set 8.
    ASSERT_TRUE(c.lineDrowsy(8, 0));

    // The invalidation cannot be answered at the retention voltage:
    // the probe pays the wake before the line is dropped.
    const CoherenceProbe p = c.coherenceInvalidate(0x100, kGranule);
    EXPECT_TRUE(p.wasPresent);
    EXPECT_EQ(p.extraCycles, 2u);

    PolicyActivity act = c.activity();
    EXPECT_EQ(act.coherenceWakes, 1u);
    EXPECT_EQ(c.coherenceInvalidations(), 1u);
    EXPECT_GE(act.wakeStallCycles, 2u);
    EXPECT_EQ(act.coherenceRefetches, 0u);

    // Refilling the stolen frame is a directory-forced refetch.
    EXPECT_FALSE(c.access(0x100, AccessType::InstFetch).hit);
    EXPECT_EQ(c.activity().coherenceRefetches, 1u);
}

TEST(DrowsyCoherence, AwakeLinesAnswerProbesForFree)
{
    stats::StatGroup root("t");
    DrowsyCache c(policyConfig(PolicyKind::Drowsy), nullptr, &root);
    c.access(0x100, AccessType::InstFetch); // filled awake
    const CoherenceProbe p = c.coherenceInvalidate(0x100, kGranule);
    EXPECT_TRUE(p.wasPresent);
    EXPECT_EQ(p.extraCycles, 0u);
    EXPECT_EQ(c.activity().coherenceWakes, 0u);
}

TEST(DecayCoherence, InvalidatedFrameRefetchIsCountedNoWakes)
{
    stats::StatGroup root("t");
    DecayCache c(policyConfig(PolicyKind::Decay), nullptr, &root);
    c.access(0x100, AccessType::InstFetch);

    const CoherenceProbe p = c.coherenceInvalidate(0x100, kGranule);
    EXPECT_TRUE(p.wasPresent);
    // Decay keeps live lines at full supply: no wake to charge.
    EXPECT_EQ(p.extraCycles, 0u);
    EXPECT_EQ(c.activity().coherenceWakes, 0u);
    EXPECT_EQ(c.coherenceInvalidations(), 1u);

    EXPECT_FALSE(c.access(0x100, AccessType::InstFetch).hit);
    EXPECT_EQ(c.activity().coherenceRefetches, 1u);
}

// ---------------------------------------------------------------
// Checkpoint v3 layout negotiation + controller state round-trip
// ---------------------------------------------------------------

TEST(CheckpointV3, TagStoreRoundTripsCoherenceState)
{
    TagStore a(4, 2);
    a.insert(0, 0x40);
    int way = a.findWay(0, 0x40);
    ASSERT_NE(way, TagStore::kNoWay);
    a.setCoherenceState(0, static_cast<unsigned>(way),
                        CoherenceState::Modified);

    sim::CheckpointWriter w;
    a.checkpoint(w);

    TagStore b(4, 2);
    sim::CheckpointReader r(w.bytes());
    b.checkpoint(r);
    EXPECT_EQ(b.coherenceState(0, static_cast<unsigned>(way)),
              CoherenceState::Modified);
}

TEST(CheckpointV3, PreV3TagStoreStreamFailsLoudly)
{
    // A v1/v2 stream began directly with the geometry (numSets_, a
    // small power of two) where v3 puts the layout magic. Restoring
    // such a stream must throw, never misinterpret bytes.
    sim::CheckpointWriter w;
    w.beginSection("tags");
    w.putU64(4); // old layout: numSets_ first
    w.putU64(2);
    w.putU64(0);
    for (int i = 0; i < 8; ++i) {
        w.putU64(kInvalidAddr);
        w.putBool(false);
        w.putBool(false);
        w.putU64(0);
    }
    w.endSection();

    TagStore b(4, 2);
    sim::CheckpointReader r(w.bytes());
    EXPECT_THROW(b.checkpoint(r), sim::CheckpointError);
}

TEST(CheckpointV3, ControllerRoundTripsDirectoryAndAttribution)
{
    CoherenceController a(smallConfig(), 2, kGranule);
    FakeClient a0, a1;
    a0.reply = {0, true, true};
    a.addClient(0, &a0);
    a.addClient(1, &a1);
    a.fill(0, 0x1000, true);
    a.fill(1, 0x1000, false); // downgrade + flush
    a.fill(1, 0x2000, false);

    sim::CheckpointWriter w;
    a.checkpoint(w);

    CoherenceController b(smallConfig(), 2, kGranule);
    FakeClient b0, b1;
    b.addClient(0, &b0);
    b.addClient(1, &b1);
    sim::CheckpointReader r(w.bytes());
    b.checkpoint(r);

    EXPECT_EQ(b.coreStats(0).downgradesReceived, 1u);
    EXPECT_EQ(b.coreStats(0).coherenceWritebacks, 1u);
    EXPECT_EQ(b.coreStats(1).messageCycles, 3u);
    EXPECT_EQ(b.directory().entriesInUse(), 2u);
    EXPECT_EQ(b.directory().allocations(), 2u);

    // The restored directory still remembers the sharer sets: a
    // write upgrade by core 0 probes core 1's restored copy.
    b1.reply = {0, true, false};
    b.upgrade(0, 0x1000);
    ASSERT_EQ(b1.probes.size(), 1u);
    EXPECT_TRUE(b1.probes[0].invalidate);
}

TEST(CheckpointV3, DirectoryRestoreRejectsDifferentCapacity)
{
    SparseDirectory a(8);
    SparseDirectory::Entry victim;
    a.allocate(0x10, &victim);
    sim::CheckpointWriter w;
    a.checkpoint(w);

    SparseDirectory b(16);
    sim::CheckpointReader r(w.bytes());
    EXPECT_THROW(b.checkpoint(r), sim::CheckpointError);
}

/** Byte offset of directory slot @p slot's field @p field (0 block,
 *  1 sharers, 2 owner, 3 lastTouch) in a controller snapshot. */
std::size_t
directoryFieldOffset(std::size_t slot, int field)
{
    sim::CheckpointWriter head;
    head.beginSection("coherence");
    head.beginSection("dir");
    for (int k = 0; k < 4; ++k) // capacity, clock, two counters
        head.putU64(0);
    head.endSection();
    head.endSection();
    const std::size_t headBytes = head.bytes().size() - 2; // less the closes
    sim::CheckpointWriter entry;
    entry.putU64(0); // block
    entry.putU64(0); // sharers
    entry.putI64(0); // owner
    entry.putU64(0); // lastTouch
    entry.putBool(false);
    constexpr std::size_t kFieldBytes = 9; // tag + 8 bytes
    return headBytes + slot * entry.bytes().size() +
           static_cast<std::size_t>(field) * kFieldBytes;
}

TEST(CheckpointV3, DirectoryRestoreRejectsMalformedSlots)
{
    // A real snapshot with two valid slots; each splice below breaks
    // one invariant the allocation order relies on.
    CoherenceController a(smallConfig(), 2, kGranule);
    FakeClient a0, a1;
    a.addClient(0, &a0);
    a.addClient(1, &a1);
    a.fill(0, 0x1000, false);
    a.fill(1, 0x2000, true);
    sim::CheckpointWriter w;
    a.checkpoint(w);
    const std::string snap = w.bytes();

    const auto restores = [](const std::string &bytes) {
        CoherenceController b(smallConfig(), 2, kGranule);
        sim::CheckpointReader r(bytes);
        b.checkpoint(r);
    };
    EXPECT_NO_THROW(restores(snap));

    // Slot 1 names slot 0's block: a later allocate() would find no
    // slot for it.
    std::string dup = snap;
    dup.replace(directoryFieldOffset(1, 0), 9,
                snap.substr(directoryFieldOffset(0, 0), 9));
    EXPECT_THROW(restores(dup), sim::CheckpointError);

    // A lastTouch past the directory clock (4 after two fills and
    // two touches), whether or not the slot is valid.
    for (const std::size_t slot : {0u, 5u}) {
        sim::CheckpointWriter late;
        late.putU64(5);
        std::string bad = snap;
        bad.replace(directoryFieldOffset(slot, 3), 9, late.bytes());
        EXPECT_THROW(restores(bad), sim::CheckpointError)
            << "slot " << slot;
    }
    sim::CheckpointWriter atClock;
    atClock.putU64(4);
    std::string ok = snap;
    ok.replace(directoryFieldOffset(0, 3), 9, atClock.bytes());
    EXPECT_NO_THROW(restores(ok));
}

// ---------------------------------------------------------------
// Concurrency: independent controllers share no hidden state
// ---------------------------------------------------------------

TEST(CoherenceConcurrency, IndependentControllersAreRaceFree)
{
    // Each thread drives its own controller through an identical
    // sharing pattern; every replica must report identical stats.
    // Run under TSan (ctest -L concurrency) this also proves the
    // coherence layer keeps no mutable static state.
    constexpr int kThreads = 4;
    std::vector<std::uint64_t> msgCycles(kThreads, 0);
    std::vector<std::uint64_t> invals(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &msgCycles, &invals] {
            CoherenceConfig cfg;
            cfg.enabled = true;
            cfg.directoryEntries = 8;
            cfg.msgLatency = 3;
            CoherenceController ctrl(cfg, 2, kGranule);
            FakeClient c0, c1;
            c0.reply = {1, true, false};
            c1.reply = {1, true, false};
            ctrl.addClient(0, &c0);
            ctrl.addClient(1, &c1);
            for (Addr a = 0; a < 64 * kGranule; a += kGranule) {
                ctrl.fill(0, a, false);
                ctrl.fill(1, a, false);
                ctrl.upgrade(a % (2 * kGranule) == 0 ? 0 : 1, a);
            }
            msgCycles[t] = ctrl.coreStats(0).messageCycles +
                           ctrl.coreStats(1).messageCycles;
            invals[t] = ctrl.invalidationsSent();
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(msgCycles[t], msgCycles[0]);
        EXPECT_EQ(invals[t], invals[0]);
    }
    EXPECT_GT(invals[0], 0u);
}

} // namespace
} // namespace drisim
