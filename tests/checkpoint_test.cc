/**
 * @file
 * Checkpoint/restore equivalence layer.
 *
 * The load-bearing property is bit-identity: a run that snapshots
 * at its midpoint and a run that restores that snapshot into a
 * fresh system must both reproduce the uninterrupted run exactly —
 * every stat, energy input and resize decision — for each core
 * model, all four leakage policies and resizable L1/L2. The
 * type-tagged stream and the keyed store are covered directly:
 * tag/section mismatches throw, store corruption and key mismatch
 * are misses, never deserialized.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/dri_icache.hh"
#include "cpu/simple_core.hh"
#include "harness/runner.hh"
#include "mem/hierarchy.hh"
#include "sim/checkpoint.hh"
#include "system/cmp.hh"
#include "workload/generator.hh"

#include "same_run.hh"

namespace drisim
{
namespace
{

/** Unique scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/drisim_ckpt_XXXXXX";
        const char *p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }

    ~TempDir()
    {
        if (!path.empty())
            std::filesystem::remove_all(path);
    }
};

/** Short detailed run: big enough to resize, small enough for CI. */
RunConfig
quickConfig()
{
    RunConfig c;
    c.maxInstrs = 200 * 1000;
    return c;
}

DriParams
quickDri()
{
    DriParams d;
    d.senseInterval = 20 * 1000;
    d.sizeBoundBytes = 1024;
    d.missBound = 100;
    return d;
}

/** quickConfig() with the non-blocking memory system: banked DRAM
 *  plus MSHR files at every level — the snapshot now carries live
 *  bank queues, row buffers and in-flight miss registers. */
RunConfig
bankedConfig()
{
    RunConfig c = quickConfig();
    c.hier.dram.banked = true;
    c.hier.l1i.mshrs = 4;
    c.hier.l1d.mshrs = 4;
    c.hier.l2.mshrs = 8;
    return c;
}

/** quickDri() as @p kind over a 4-way L1I, each policy's interval
 *  short enough to act in a quick run. */
PolicyConfig
quickPolicy(PolicyKind kind, unsigned mshrs = 0)
{
    PolicyConfig pol;
    pol.kind = kind;
    pol.dri = quickDri();
    pol.dri.assoc = 4;
    pol.dri.mshrs = mshrs;
    pol.decay.decayInterval = 20 * 1000;
    pol.drowsy.drowsyInterval = 20 * 1000;
    pol.ways.activeWays = 2;
    return pol;
}

/**
 * The one snapshot file a store directory holds, split per the
 * store layout (sim/checkpoint.cc): magic, key length and key, then
 * blob length, blob FNV-1a and blob.
 */
struct StoredSnapshot
{
    std::filesystem::path path;
    std::string head;
    std::string blob;

    explicit StoredSnapshot(const std::string &dir)
    {
        for (const auto &ent : std::filesystem::directory_iterator(dir)) {
            EXPECT_TRUE(path.empty()) << "more than one snapshot";
            path = ent.path();
        }
        std::ifstream in(path, std::ios::binary);
        const std::string file((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        std::size_t keyLen = 0;
        for (int i = 0; i < 8; ++i)
            keyLen |= std::size_t{static_cast<unsigned char>(file[6 + i])}
                      << (8 * i);
        head = file.substr(0, 14 + keyLen);
        blob = file.substr(head.size() + 16);
    }

    /** Write the file back, blob length and checksum recomputed. */
    void write() const
    {
        std::string file = head;
        for (const std::uint64_t v : {std::uint64_t{blob.size()},
                                      sim::fnv1a64(blob)})
            for (int i = 0; i < 8; ++i)
                file.push_back(static_cast<char>(v >> (8 * i)));
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << file + blob;
    }
};

/**
 * Run @p fn three ways — uninterrupted, snapshot pass (simulates
 * both halves, persisting the midpoint), restore pass (restores the
 * midpoint into a fresh system, simulates only the tail) — and
 * require all three bit-identical. Also checks the process-wide
 * counters saw exactly one save then one restore.
 */
template <typename Fn>
void
expectSplitEquivalence(const RunConfig &base, Fn &&fn)
{
    TempDir dir;
    const RunOutput plain = fn(base);

    RunConfig ck = base;
    ck.checkpointDir = dir.path;
    const sim::CheckpointCounters before = sim::checkpointCounters();
    const RunOutput saved = fn(ck);
    const sim::CheckpointCounters mid = sim::checkpointCounters();
    EXPECT_EQ(mid.saves, before.saves + 1);
    EXPECT_EQ(mid.restores, before.restores);

    const RunOutput restored = fn(ck);
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.saves, mid.saves);
    EXPECT_EQ(after.restores, mid.restores + 1);

    expectSameRun(plain, saved);
    expectSameRun(plain, restored);
}

// ---------------------------------------------------------------
// Writer/reader stream primitives
// ---------------------------------------------------------------

TEST(CheckpointIO, RoundTripsEveryType)
{
    sim::CheckpointWriter w;
    w.beginSection("t");
    w.putU64(0);
    w.putU64(~std::uint64_t{0});
    w.putI64(-42);
    w.putF64(0.1);
    w.putBool(true);
    w.putBool(false);
    w.putString(std::string_view("hello\0world\n", 12));
    w.beginSection("nested");
    w.putU64(7);
    w.endSection();
    w.endSection();

    sim::CheckpointReader r(w.bytes());
    r.beginSection("t");
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_EQ(r.getU64(), ~std::uint64_t{0});
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_EQ(r.getF64(), 0.1);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getString(), std::string("hello\0world\n", 12));
    r.beginSection("nested");
    EXPECT_EQ(r.getU64(), 7u);
    r.endSection();
    r.endSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(CheckpointIO, RoundTripsNanAndNegativeZero)
{
    sim::CheckpointWriter w;
    w.beginSection("f");
    w.putF64(std::nan(""));
    w.putF64(-0.0);
    w.endSection();

    sim::CheckpointReader r(w.bytes());
    r.beginSection("f");
    EXPECT_TRUE(std::isnan(r.getF64()));
    const double z = r.getF64();
    EXPECT_EQ(z, 0.0);
    EXPECT_TRUE(std::signbit(z));
    r.endSection();
}

TEST(CheckpointIO, TagMismatchThrows)
{
    sim::CheckpointWriter w;
    w.beginSection("t");
    w.putU64(1);
    w.endSection();

    sim::CheckpointReader r(w.bytes());
    r.beginSection("t");
    EXPECT_THROW(r.getI64(), sim::CheckpointError);
}

TEST(CheckpointIO, SectionNameMismatchThrows)
{
    sim::CheckpointWriter w;
    w.beginSection("cache");
    w.putU64(1);
    w.endSection();

    sim::CheckpointReader r(w.bytes());
    EXPECT_THROW(r.beginSection("core"), sim::CheckpointError);
}

TEST(CheckpointIO, TruncatedStreamThrows)
{
    sim::CheckpointWriter w;
    w.beginSection("t");
    w.putString("a long enough payload to truncate");
    w.endSection();

    const std::string &full = w.bytes();
    sim::CheckpointReader r(full.substr(0, full.size() / 2));
    r.beginSection("t");
    EXPECT_THROW(r.getString(), sim::CheckpointError);
}

// ---------------------------------------------------------------
// Keyed store
// ---------------------------------------------------------------

TEST(CheckpointStore, MissOnAbsentKey)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    std::string blob;
    EXPECT_FALSE(store.load("never-saved", blob));
}

TEST(CheckpointStore, SaveThenLoadRoundTrips)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    const std::string payload("\x00\x01\xff\xfe"
                              "binary",
                              10);
    store.save("k1", payload);
    std::string blob;
    ASSERT_TRUE(store.load("k1", blob));
    EXPECT_EQ(blob, payload);
    // A second store over the same dir sees the same file.
    sim::CheckpointStore again(dir.path);
    blob.clear();
    ASSERT_TRUE(again.load("k1", blob));
    EXPECT_EQ(blob, payload);
}

TEST(CheckpointStore, CorruptedFileIsAMissNotAnAnswer)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    store.save("k1", "payload-bytes");

    // Clobber the file: the magic/key verification must fail.
    for (const auto &ent :
         std::filesystem::directory_iterator(dir.path)) {
        std::ofstream f(ent.path(), std::ios::binary);
        f << "not a checkpoint at all";
    }
    std::string blob;
    EXPECT_FALSE(store.load("k1", blob));
}

TEST(CheckpointStore, TruncatedFileIsAMiss)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    store.save("k1", "payload that will get cut short");

    for (const auto &ent :
         std::filesystem::directory_iterator(dir.path)) {
        const auto full = std::filesystem::file_size(ent.path());
        std::filesystem::resize_file(ent.path(), full / 2);
    }
    std::string blob;
    EXPECT_FALSE(store.load("k1", blob));
}

TEST(CheckpointStore, DistinctKeysDoNotAlias)
{
    TempDir dir;
    sim::CheckpointStore store(dir.path);
    store.save("cfgA", "A");
    store.save("cfgB", "B");
    std::string blob;
    ASSERT_TRUE(store.load("cfgA", blob));
    EXPECT_EQ(blob, "A");
    ASSERT_TRUE(store.load("cfgB", blob));
    EXPECT_EQ(blob, "B");
}

// ---------------------------------------------------------------
// Split-run bit-identity: detailed core
// ---------------------------------------------------------------

TEST(CheckpointedRun, ConventionalDetailedSplitIsExact)
{
    const auto &b = findBenchmark("compress");
    expectSplitEquivalence(quickConfig(), [&](const RunConfig &c) {
        return run(b, c);
    });
}

TEST(CheckpointedRun, DriDetailedSplitIsExact)
{
    const auto &b = findBenchmark("li");
    const DriParams dp = quickDri();
    expectSplitEquivalence(quickConfig(), [&](const RunConfig &c) {
        return run(b, c, {dp});
    });
}

TEST(CheckpointedRun, DriL2SplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = quickConfig();
    cfg.hier.l2Dri = true;
    cfg.hier.l2DriParams = HierarchyParams::defaultL2DriParams();
    cfg.hier.l2DriParams.senseInterval = 20 * 1000;
    const DriParams dp = quickDri();
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return run(b, c, {dp});
    });
}

TEST(CheckpointedRun, EveryPolicySplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = quickConfig();
    cfg.hier.l1i.assoc = 4; // selective-ways needs ways to gate

    for (const PolicyKind kind :
         {PolicyKind::Dri, PolicyKind::Decay, PolicyKind::Drowsy,
          PolicyKind::StaticWays}) {
        SCOPED_TRACE(static_cast<int>(kind));
        expectSplitEquivalence(cfg, [&](const RunConfig &c) {
            return run(b, c, {quickPolicy(kind)});
        });
    }
}

// ---------------------------------------------------------------
// Split-run bit-identity: banked DRAM + MSHRs (the snapshot must
// carry bank queues, open rows and in-flight miss registers)
// ---------------------------------------------------------------

TEST(CheckpointedRun, ConventionalBankedDramSplitIsExact)
{
    const auto &b = findBenchmark("compress");
    expectSplitEquivalence(bankedConfig(), [&](const RunConfig &c) {
        return run(b, c);
    });
}

TEST(CheckpointedRun, DriBankedDramSplitIsExact)
{
    const auto &b = findBenchmark("li");
    DriParams dp = quickDri();
    dp.mshrs = 4;
    expectSplitEquivalence(bankedConfig(), [&](const RunConfig &c) {
        return run(b, c, {dp});
    });
}

TEST(CheckpointedRun, DriL2BankedDramSplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = bankedConfig();
    cfg.hier.l2Dri = true;
    cfg.hier.l2DriParams = HierarchyParams::defaultL2DriParams();
    cfg.hier.l2DriParams.senseInterval = 20 * 1000;
    DriParams dp = quickDri();
    dp.mshrs = 4;
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return run(b, c, {dp});
    });
}

TEST(CheckpointedRun, EveryPolicyBankedDramSplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = bankedConfig();
    cfg.hier.l1i.assoc = 4; // selective-ways needs ways to gate

    for (const PolicyKind kind :
         {PolicyKind::Dri, PolicyKind::Decay, PolicyKind::Drowsy,
          PolicyKind::StaticWays}) {
        SCOPED_TRACE(static_cast<int>(kind));
        expectSplitEquivalence(cfg, [&](const RunConfig &c) {
            return run(b, c, {quickPolicy(kind, 4)});
        });
    }
}

TEST(CheckpointedRun, FastModelBankedDramSplitIsExact)
{
    const auto &b = findBenchmark("li");
    const RunConfig cfg = bankedConfig();
    const RunOutput conv = run(b, cfg);
    const FastCalibration cal = calibrateFast(b, cfg, conv);
    DriParams dp = quickDri();
    dp.mshrs = 4;

    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return run(b, c, {ConventionalL1i{}, &cal});
    });
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return run(b, c, {dp, &cal});
    });
}

TEST(CheckpointedRun, DifferentDramConfigsNeverShareASnapshot)
{
    // Flat and banked runs of the same benchmark share a checkpoint
    // dir: the dram.* knobs are in the run key, so each flavour must
    // save its own snapshot and restore its own bit-identical run.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig flat = quickConfig();
    RunConfig banked = bankedConfig();

    const RunOutput plainFlat = run(b, flat);
    const RunOutput plainBanked = run(b, banked);

    flat.checkpointDir = dir.path;
    banked.checkpointDir = dir.path;
    const sim::CheckpointCounters before = sim::checkpointCounters();
    expectSameRun(plainFlat, run(b, flat));
    expectSameRun(plainBanked, run(b, banked));
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.saves, before.saves + 2);
    EXPECT_EQ(after.restores, before.restores);

    expectSameRun(plainFlat, run(b, flat));
    expectSameRun(plainBanked, run(b, banked));
    EXPECT_EQ(sim::checkpointCounters().restores,
              after.restores + 2);
}

// ---------------------------------------------------------------
// Split-run bit-identity: fast core (batched retirement)
// ---------------------------------------------------------------

TEST(CheckpointedRun, FastModelSplitIsExact)
{
    const auto &b = findBenchmark("li");
    const RunConfig cfg = quickConfig();
    const RunOutput conv = run(b, cfg);
    const FastCalibration cal = calibrateFast(b, cfg, conv);
    const DriParams dp = quickDri();

    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return run(b, c, {ConventionalL1i{}, &cal});
    });
    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return run(b, c, {dp, &cal});
    });
}

TEST(CheckpointedRun, FastPolicySplitIsExact)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg = quickConfig();
    cfg.hier.l1i.assoc = 4;
    const RunOutput conv = run(b, cfg);
    const FastCalibration cal = calibrateFast(b, cfg, conv);

    expectSplitEquivalence(cfg, [&](const RunConfig &c) {
        return run(b, c, {quickPolicy(PolicyKind::Drowsy), &cal});
    });
}

TEST(CheckpointedRun, OlderFastSnapshotIsAMissNotACrash)
{
    // Fast runs snapshot a replay cursor under v4 store keys. A fast
    // snapshot an older build left in a shared checkpoint dir holds
    // the generator's state under a v3 key; it must miss and be
    // rewritten, not fail to restore mid-sweep.
    const auto &b = findBenchmark("li");
    RunConfig cfg = quickConfig();
    const RunOutput conv = run(b, cfg);
    const FastCalibration cal = calibrateFast(b, cfg, conv);
    const DriParams dp = quickDri();
    const RunOutput plain = run(b, cfg, {dp, &cal});

    TempDir dir;
    const InstCount split = (cfg.maxInstrs / 2) & ~InstCount{63};
    {
        // The older build's generator-driven fast run at the split.
        stats::StatGroup root("fast");
        Hierarchy hier(cfg.hier, &root, false);
        DriICache icache(dp, &hier.l2(), &root);
        hier.setL1I(&icache);
        SimpleCoreParams scp;
        scp.baseCpi = cal.baseCpi;
        scp.missOverlap = cal.missOverlap;
        scp.fetchBlockBytes = dp.blockBytes;
        SimpleCore fast(scp, &icache);
        fast.addRetireSink(&icache);
        fast.addRetireSink(hier.driL2());
        TraceGenerator gen(programImageFor(b));
        fast.run(gen, split);
        sim::CheckpointWriter w;
        w.beginSection("run");
        gen.checkpoint(w);
        fast.checkpoint(w);
        hier.checkpoint(w);
        icache.checkpoint(w);
        w.endSection();
        sim::CheckpointStore(dir.path).save(
            "v3|" + runKey(b, cfg, {dp, &cal}).canonical() +
                "|ckpt@" + std::to_string(split),
            w.bytes());
    }

    cfg.checkpointDir = dir.path;
    const sim::CheckpointCounters before = sim::checkpointCounters();
    expectSameRun(plain, run(b, cfg, {dp, &cal}));
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.restores, before.restores);
    EXPECT_EQ(after.saves, before.saves + 1);

    // The rewritten snapshot serves the next run.
    expectSameRun(plain, run(b, cfg, {dp, &cal}));
    EXPECT_EQ(sim::checkpointCounters().restores, after.restores + 1);
}

// ---------------------------------------------------------------
// Snapshot bytes. The midpoint blob of every configuration the split
// tests run is pinned by its FNV-1a. A change to the format must edit
// these literals and bump the store-key tag (snapshotVersion() in
// harness/runner.cc) together, so that older stores miss.
// ---------------------------------------------------------------

TEST(CheckpointBytes, MidpointSnapshotsArePinned)
{
    const auto &compress = findBenchmark("compress");
    const auto &li = findBenchmark("li");
    RunConfig ways = quickConfig();
    ways.hier.l1i.assoc = 4;
    RunConfig waysBanked = bankedConfig();
    waysBanked.hier.l1i.assoc = 4;
    RunConfig driL2 = quickConfig();
    driL2.hier.l2Dri = true;
    driL2.hier.l2DriParams = HierarchyParams::defaultL2DriParams();
    driL2.hier.l2DriParams.senseInterval = 20 * 1000;
    RunConfig driL2Banked = bankedConfig();
    driL2Banked.hier.l2Dri = true;
    driL2Banked.hier.l2DriParams = driL2.hier.l2DriParams;
    const DriParams dri = quickDri();
    DriParams driMshrs = quickDri();
    driMshrs.mshrs = 4;
    const FastCalibration liCal =
        calibrateFast(li, quickConfig(), run(li, quickConfig()));
    const FastCalibration liBankedCal =
        calibrateFast(li, bankedConfig(), run(li, bankedConfig()));
    const FastCalibration waysCal =
        calibrateFast(compress, ways, run(compress, ways));

    struct Pin
    {
        std::string name;
        const BenchmarkInfo &bench;
        RunConfig config;
        RunSpec spec;
        std::uint64_t fnv;
    };
    std::vector<Pin> pins = {
        {"conv", compress, quickConfig(), {}, 0x75867d121e882208},
        {"dri", li, quickConfig(), {dri}, 0x6fcbb903e2ad3d53},
        {"dri_l2", compress, driL2, {dri}, 0x88c424c7de4554f6},
        {"conv_fast", li, quickConfig(), {ConventionalL1i{}, &liCal},
         0x0b5deb0ced0b7371},
        {"dri_fast", li, quickConfig(), {dri, &liCal}, 0x7ae4660729d43e5e},
        {"conv_banked", compress, bankedConfig(), {}, 0x8661838e35d39055},
        {"dri_banked", li, bankedConfig(), {driMshrs}, 0x24526c0dada01b5c},
        {"dri_l2_banked", compress, driL2Banked, {driMshrs},
         0x4ae3dcc786843589},
        {"conv_fast_banked", li, bankedConfig(),
         {ConventionalL1i{}, &liBankedCal}, 0x59047712bc190ee8},
        {"dri_fast_banked", li, bankedConfig(), {driMshrs, &liBankedCal},
         0x44ea5c7e3cdeb37e},
    };
    const std::uint64_t policyPins[][3] = {
        // Dri, Decay, Drowsy, StaticWays: detailed, fast, and
        // detailed over banked DRAM
        {0x6281c38103b3d774, 0x99f680784f725bbf, 0xff5f9ff69bd36cbe},
        {0x2e74a20064703ee5, 0x4e84431ac2280275, 0x109a7c224e7ba804},
        {0xbf0088fcc52f7ea5, 0x3c026dda4a0f4e39, 0x699c057edf20816b},
        {0x2b09abb8689230de, 0xc2345a678bd0986c, 0x938391018f9e6a8c},
    };
    for (const PolicyKind kind :
         {PolicyKind::Dri, PolicyKind::Decay, PolicyKind::Drowsy,
          PolicyKind::StaticWays}) {
        const std::uint64_t *fnv = policyPins[static_cast<int>(kind)];
        const std::string name =
            std::string("policy_") + policyKindName(kind);
        pins.push_back({name, compress, ways, {quickPolicy(kind)}, fnv[0]});
        pins.push_back({name + "_fast", compress, ways,
                        {quickPolicy(kind), &waysCal}, fnv[1]});
        pins.push_back({name + "_banked", compress, waysBanked,
                        {quickPolicy(kind, 4)}, fnv[2]});
    }

    for (const Pin &p : pins) {
        TempDir dir;
        RunConfig ck = p.config;
        ck.checkpointDir = dir.path;
        run(p.bench, ck, p.spec);
        const std::uint64_t fnv =
            sim::fnv1a64(StoredSnapshot(dir.path).blob);
        EXPECT_EQ(fnv, p.fnv) << p.name << ": 0x" << std::hex << fnv;
    }
}

TEST(CheckpointedRun, SnapshotThatFailsToRestoreIsAMiss)
{
    // A blob that passes the store's checksum but not the restore
    // walk is recomputed, not fatal. Its last tag closes the run
    // section, so the walk fails only after every component has been
    // overwritten: the run must start over on fresh components, and
    // its midpoint snapshot replaces the bad one.
    const auto &b = findBenchmark("li");
    const DriParams dp = quickDri();
    RunConfig cfg = quickConfig();
    const RunOutput plain = run(b, cfg, {dp});

    TempDir dir;
    cfg.checkpointDir = dir.path;
    run(b, cfg, {dp});
    StoredSnapshot snap(dir.path);
    ASSERT_EQ(snap.blob.back(), ')');
    snap.blob.back() = 'U';
    snap.write();

    const sim::CheckpointCounters before = sim::checkpointCounters();
    expectSameRun(plain, run(b, cfg, {dp}));
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.restores, before.restores);
    EXPECT_EQ(after.saves, before.saves + 1);

    expectSameRun(plain, run(b, cfg, {dp}));
    EXPECT_EQ(sim::checkpointCounters().restores, after.restores + 1);
}

// ---------------------------------------------------------------
// Interactions
// ---------------------------------------------------------------

TEST(CheckpointedRun, DifferentConfigsNeverShareASnapshot)
{
    // Two runs differing in one knob share a checkpoint dir; each
    // must save its own snapshot (different keys), and each restore
    // must reproduce its own plain run.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    DriParams a = quickDri();
    DriParams c = quickDri();
    c.missBound = a.missBound + 1;

    RunConfig cfg = quickConfig();
    const RunOutput plainA = run(b, cfg, {a});
    const RunOutput plainC = run(b, cfg, {c});

    cfg.checkpointDir = dir.path;
    const sim::CheckpointCounters before = sim::checkpointCounters();
    expectSameRun(plainA, run(b, cfg, {a}));
    expectSameRun(plainC, run(b, cfg, {c}));
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.saves, before.saves + 2);
    EXPECT_EQ(after.restores, before.restores);

    expectSameRun(plainA, run(b, cfg, {a}));
    expectSameRun(plainC, run(b, cfg, {c}));
    EXPECT_EQ(sim::checkpointCounters().restores,
              after.restores + 2);
}

TEST(CheckpointedRun, DistinctCoherenceConfigsNeverShareAKey)
{
    // The CMP run identity must cover the coherence layer: a
    // coherent run restored into (or memoized for) a protocol-off
    // system — or one with a different directory size or message
    // latency — would replay a different machine. Every knob must
    // move the canonical key.
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    CmpConfig off;
    off.cores = 2;

    CmpConfig on = off;
    on.coherence.enabled = true;
    CmpConfig bigDir = on;
    bigDir.coherence.directoryEntries = 512;
    CmpConfig slowMsg = on;
    slowMsg.coherence.msgLatency = 7;

    const std::string kOff =
        runKeyCmp(cfg, off, "compress").canonical();
    const std::string kOn =
        runKeyCmp(cfg, on, "compress").canonical();
    const std::string kBig =
        runKeyCmp(cfg, bigDir, "compress").canonical();
    const std::string kSlow =
        runKeyCmp(cfg, slowMsg, "compress").canonical();

    EXPECT_NE(kOff, kOn);
    EXPECT_NE(kOn, kBig);
    EXPECT_NE(kOn, kSlow);
    EXPECT_NE(kBig, kSlow);

    // With the protocol off the directory knobs are inert: they
    // must NOT perturb the key, or pre-coherence sidecar entries
    // and snapshots would be orphaned.
    CmpConfig offTuned = off;
    offTuned.coherence.directoryEntries = 512;
    offTuned.coherence.msgLatency = 7;
    EXPECT_EQ(kOff,
              runKeyCmp(cfg, offTuned, "compress").canonical());
}

TEST(CheckpointedRun, SamplingDisablesMidRunSnapshots)
{
    // Sampled runs are not checkpointed (the sampler owns the run
    // loop); the flag combination must run cleanly and leave the
    // counters untouched.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg = quickConfig();
    cfg.sampling.enabled = true;
    cfg.sampling.detailedWindow = 20 * 1000;
    cfg.sampling.period = 50 * 1000;
    cfg.checkpointDir = dir.path;

    const sim::CheckpointCounters before = sim::checkpointCounters();
    const RunOutput s1 = run(b, cfg);
    const RunOutput s2 = run(b, cfg);
    const sim::CheckpointCounters after = sim::checkpointCounters();
    EXPECT_EQ(after.saves, before.saves);
    EXPECT_EQ(after.restores, before.restores);
    expectSameRun(s1, s2);
}

} // namespace
} // namespace drisim
