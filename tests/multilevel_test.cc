/**
 * @file
 * Multi-level DRI scenario tests: the unified ResizableCache used
 * as an L2, the DRI-L2 hierarchy wiring, per-level energy
 * accounting invariants, and the (L1 x L2) search's determinism.
 */

#include <gtest/gtest.h>

#include "circuit/hierarchy_energy.hh"
#include "harness/multilevel.hh"
#include "harness/runner.hh"
#include "mem/hierarchy.hh"
#include "stats/stats.hh"
#include "util/logging.hh"

namespace drisim
{
namespace
{

DriParams
smallL2Params()
{
    DriParams p;
    p.sizeBytes = 64 * 1024;
    p.assoc = 4;
    p.blockBytes = 64;
    p.hitLatency = 12;
    p.sizeBoundBytes = 8 * 1024;
    p.missBound = 10;
    p.senseInterval = 1000;
    return p;
}

// --- ResizableCache as a unified (L2-style) cache ---------------------

TEST(ResizableL2, ServesAllAccessTypes)
{
    stats::StatGroup root("t");
    ResizableCache l2(smallL2Params(), ResizePolicy::writeback(),
                      nullptr, &root, "dri_l2");
    EXPECT_FALSE(l2.access(0x1000, AccessType::InstFetch).hit);
    EXPECT_TRUE(l2.access(0x1000, AccessType::Load).hit);
    EXPECT_TRUE(l2.access(0x1000, AccessType::Store).hit);
    EXPECT_EQ(l2.accesses(), 3u);
    EXPECT_EQ(l2.misses(), 1u);
}

TEST(ResizableL2, DowncastWritesBackDirtyBlocks)
{
    stats::StatGroup root("t");
    MainMemory mem(64, &root);
    DriParams p = smallL2Params();
    p.missBound = 1000000; // always downsize
    ResizableCache l2(p, ResizePolicy::writeback(), &mem, &root,
                      "dri_l2");

    // Dirty a block in a set that the first downsize will gate off.
    const std::uint64_t sets = l2.currentSets();
    const Addr high_set_addr = (sets - 1) * 64;
    l2.access(high_set_addr, AccessType::Store);
    const std::uint64_t mem_before = mem.accesses();

    l2.retireInstructions(p.senseInterval);
    ASSERT_LT(l2.currentSets(), sets);
    EXPECT_EQ(l2.resizeWritebacks(), 1u);
    // The writeback reached the level below before the rail
    // dropped.
    EXPECT_EQ(mem.accesses(), mem_before + 1);
    EXPECT_TRUE(l2.mappingConsistent());
}

TEST(ResizableL2, UpsizeRemapsInsteadOfAliasing)
{
    stats::StatGroup root("t");
    DriParams p = smallL2Params();
    ResizableCache l2(p, ResizePolicy::writeback(), nullptr, &root,
                      "dri_l2");

    // Shrink, fill a low set with a block whose full-mask index is
    // higher, then grow: the block must be remapped out, never
    // left as a stale alias.
    p.missBound = 1000000;
    ResizableCache shrunk(p, ResizePolicy::writeback(), nullptr,
                          &root, "dri_l2b");
    shrunk.retireInstructions(p.senseInterval);
    const std::uint64_t small_sets = shrunk.currentSets();
    ASSERT_LT(small_sets, shrunk.sizeMask().maxSets());

    // Block that maps to set 0 at the small size but not at full.
    const Addr aliasing = small_sets * 64;
    shrunk.access(aliasing, AccessType::Store);
    ASSERT_TRUE(shrunk.mappingConsistent());

    // Force upsizes until full size.
    for (int i = 0; i < 20; ++i) {
        shrunk.access(i * 64 * 1024 + 32 * 64, AccessType::Load);
        shrunk.access((i + 100) * 64 * 1024, AccessType::Load);
        shrunk.retireInstructions(100);
        EXPECT_TRUE(shrunk.mappingConsistent())
            << "stale alias after resize step " << i;
    }
}

// --- hierarchy wiring -------------------------------------------------

TEST(DriL2Hierarchy, BuildsResizableL2)
{
    HierarchyParams hp;
    hp.l2Dri = true;
    stats::StatGroup root("t");
    Hierarchy h(hp, &root, true);
    ASSERT_NE(h.driL2(), nullptr);
    EXPECT_EQ(&h.l2(), h.driL2());

    // Geometry follows the conventional L2 description.
    const DriParams &p = h.driL2()->params();
    EXPECT_EQ(p.sizeBytes, hp.l2.sizeBytes);
    EXPECT_EQ(p.assoc, hp.l2.assoc);
    EXPECT_EQ(p.blockBytes, hp.l2.blockBytes);
    EXPECT_EQ(p.hitLatency, hp.l2.hitLatency);

    // The L1s miss into the DRI L2.
    h.l1i()->access(0x4000, AccessType::InstFetch);
    h.l1d().access(0x8000, AccessType::Load);
    EXPECT_EQ(h.l2().accesses(), 2u);
    EXPECT_EQ(h.l2().misses(), 2u);
    EXPECT_EQ(h.mem().accesses(), 2u);
}

TEST(DriL2Hierarchy, DriParamsForLevelClampsBounds)
{
    CacheParams l2{"l2", 256 * 1024, 4, 64, 12, ReplPolicy::LRU};
    DriParams knobs;
    knobs.sizeBoundBytes = 1024 * 1024; // above the level size
    DriParams p = driParamsForLevel(l2, knobs);
    EXPECT_EQ(p.sizeBytes, 256u * 1024);
    EXPECT_EQ(p.sizeBoundBytes, 256u * 1024);

    knobs.sizeBoundBytes = 64; // below one set (64 B x 4 ways)
    p = driParamsForLevel(l2, knobs);
    EXPECT_EQ(p.sizeBoundBytes, 64u * 4);
    p.validate(); // must be a legal combination
}

TEST(DriL2Hierarchy, DetailedRunResizesTheL2)
{
    const auto &b = findBenchmark("li");
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.hier.l2Dri = true;
    cfg.hier.l2DriParams.senseInterval = 20 * 1000;
    cfg.hier.l2DriParams.missBound = 1000000; // force downsizing
    cfg.hier.l2DriParams.sizeBoundBytes = 64 * 1024;

    DriParams l1;
    l1.senseInterval = 20 * 1000;
    const RunOutput out = run(b, cfg, {l1});
    EXPECT_GT(out.l2Resizes, 0u) << "core never drove the L2";
    EXPECT_LT(out.l2AvgActiveFraction, 1.0);
    EXPECT_EQ(out.l2SizeBytes, cfg.hier.l2.sizeBytes);
    EXPECT_EQ(out.l2ResizingTagBits, 4u); // 1M -> 64K bound
}

TEST(DriL2Hierarchy, ConventionalRunLeavesL2Fixed)
{
    const auto &b = findBenchmark("li");
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    const RunOutput out = run(b, cfg);
    EXPECT_EQ(out.l2Resizes, 0u);
    EXPECT_DOUBLE_EQ(out.l2AvgActiveFraction, 1.0);
    EXPECT_EQ(out.l2ResizingTagBits, 0u);
    EXPECT_GT(out.l2Misses, 0u);
    EXPECT_EQ(out.memAccesses, out.l2Misses);
}

// --- per-level energy accounting --------------------------------------

/** A conventional two-level run's output (Table 1 L1I and L2). */
RunOutput
convHierarchy()
{
    RunOutput o;
    o.meas.cycles = 1000000;
    o.meas.l1iAccesses = 800000;
    o.meas.l1iMisses = 5000;
    o.l2SizeBytes = 1024 * 1024;
    o.l2Accesses = 9000;
    o.l2Misses = 700;
    o.memAccesses = 700;
    return o;
}

/** The hierarchy-view ledger of @p run against @p base. */
Ledger
hierarchyLedger(const EnergyConstants &c, const RunOutput &run,
                const RunOutput &base)
{
    return ledger(c, run.meas.cycles, hierarchyView(run),
                  hierarchyView(base));
}

TEST(MultiLevelEnergy, RowsSumToHierarchyTotal)
{
    const EnergyConstants c;
    const RunOutput conv = convHierarchy();

    RunOutput dri = conv;
    dri.meas.cycles = 1020000;
    dri.meas.avgActiveFraction = 0.4;
    dri.meas.resizingTagBits = 6;
    dri.meas.l1iMisses = 9000;
    dri.l2Accesses = 13000;
    dri.l2AvgActiveFraction = 0.5;
    dri.l2ResizingTagBits = 4;
    dri.memAccesses = 1500;

    const Ledger h = hierarchyLedger(c, dri, conv);
    ASSERT_EQ(h.rows.size(), 3u);
    EXPECT_EQ(h.rows[0].level, "l1i");
    EXPECT_EQ(h.rows[1].level, "l2");
    EXPECT_EQ(h.rows[2].level, "mem");

    double leak = 0.0, dyn = 0.0;
    for (const Ledger::Row &l : h.rows) {
        leak += l.leakageNJ();
        dyn += l.dynamicNJ();
    }
    EXPECT_EQ(h.leakageNJ(), leak);
    EXPECT_EQ(h.dynamicNJ(), dyn);
    EXPECT_EQ(h.totalNJ(), leak + dyn);

    // Level rows carry the expected physics.
    EXPECT_DOUBLE_EQ(h.rows[0].leakageNJ(), 0.4 * 0.91 * 1020000.0);
    EXPECT_DOUBLE_EQ(h.rows[1].leakageNJ(),
                     0.5 * c.l2LeakPerCycleNJ * 1020000.0);
    // Extra traffic: 4000 L2 accesses, 800 memory accesses.
    EXPECT_DOUBLE_EQ(h.rows[2].dynamicNJ(), c.memPerAccessNJ * 800.0);
    EXPECT_EQ(h.rows[2].leakageNJ(), 0.0);
}

TEST(MultiLevelEnergy, ConventionalBaselineHasNoDynamicOverhead)
{
    RunOutput conv = convHierarchy();
    conv.meas.cycles = 500000;
    conv.meas.l1iAccesses = 400000;
    conv.l2Accesses = 4000;
    conv.memAccesses = 300;
    const Ledger h = hierarchyLedger(EnergyConstants{}, conv, conv);
    EXPECT_EQ(h.dynamicNJ(), 0.0);
    EXPECT_GT(h.leakageNJ(), 0.0);
    // The L2 dominates the conventional hierarchy's leakage (the
    // Bai et al. observation motivating the scenario).
    EXPECT_GT(h.rows[1].leakageNJ(), 10.0 * h.rows[0].leakageNJ());
}

TEST(MultiLevelEnergy, ExtraTrafficClampsAtZero)
{
    // A DRI run with *less* downstream traffic than baseline must
    // not produce negative dynamic energy.
    RunOutput conv = convHierarchy();
    conv.meas.cycles = 1000;
    conv.l2Accesses = 500;
    conv.memAccesses = 100;
    RunOutput dri = conv;
    dri.l2Accesses = 400;
    dri.memAccesses = 50;
    const Ledger h = hierarchyLedger(EnergyConstants{}, dri, conv);
    EXPECT_GE(h.rows[1].dynamicNJ(), 0.0);
    EXPECT_EQ(h.rows[2].dynamicNJ(), 0.0);
}

TEST(MultiLevelEnergy, DerivedConstantsMatchCircuitSubstrate)
{
    const auto levels = circuit::defaultHierarchyCircuit();
    ASSERT_EQ(levels.size(), 2u);
    const EnergyConstants c =
        EnergyConstants::derived(levels[0], levels[1]);
    // The derived L1 figures are the paper's constants (the circuit
    // substrate is calibrated to them); the L2 leakage then scales
    // with the 16x larger array.
    EXPECT_NEAR(c.l1LeakPerCycleNJ, 0.91, 0.05);
    EXPECT_NEAR(c.l2LeakPerCycleNJ / c.l1LeakPerCycleNJ, 16.0, 0.1);
    EXPECT_GT(c.l2BitlinePerAccessNJ, 0.0);
    EXPECT_NEAR(c.l2PerAccessNJ, 3.6, 0.2);
    // One derivation covers the standby residuals too.
    EXPECT_NEAR(c.gatedLeakFraction, 0.03, 0.02);
    EXPECT_GT(c.wakePerTransitionNJ, 0.0);
}

// --- the search itself ------------------------------------------------

TEST(MultiLevelSearch, DeterministicAcrossWorkerCounts)
{
    const auto &b = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;

    MultiLevelSpace space;
    space.l1SizeBounds = {1024, 65536};
    space.l2SizeBounds = {64 * 1024, 1024 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 20 * 1000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 20 * 1000;
    const EnergyConstants constants;

    const RunOutput conv = run(b, cfg);

    auto run = [&](unsigned jobs) {
        RunConfig c2 = cfg;
        c2.jobs = jobs;
        return searchMultiLevel(b, c2, l1Tmpl, l2Tmpl, space,
                                constants, 4.0, conv);
    };
    const MultiLevelSearchResult serial = run(1);
    const MultiLevelSearchResult parallel = run(4);

    ASSERT_EQ(serial.evaluated.size(), 4u);
    ASSERT_EQ(parallel.evaluated.size(), 4u);
    for (std::size_t i = 0; i < serial.evaluated.size(); ++i) {
        const MultiLevelCandidate &a = serial.evaluated[i];
        const MultiLevelCandidate &c = parallel.evaluated[i];
        EXPECT_EQ(a.l1.sizeBoundBytes, c.l1.sizeBoundBytes);
        EXPECT_EQ(a.l2.sizeBoundBytes, c.l2.sizeBoundBytes);
        EXPECT_EQ(a.cmp.relativeEnergyDelay(),
                  c.cmp.relativeEnergyDelay());
        EXPECT_EQ(a.cmp.slowdownPercent(), c.cmp.slowdownPercent());
        EXPECT_EQ(a.feasible, c.feasible);
    }
    EXPECT_EQ(serial.best.l1.sizeBoundBytes,
              parallel.best.l1.sizeBoundBytes);
    EXPECT_EQ(serial.best.l2.sizeBoundBytes,
              parallel.best.l2.sizeBoundBytes);
    EXPECT_EQ(serial.best.cmp.relativeEnergyDelay(),
              parallel.best.cmp.relativeEnergyDelay());
}

TEST(MultiLevelSearch, UnconstrainedAlwaysSelectsLowestEd)
{
    const auto &b = findBenchmark("li");
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;

    MultiLevelSpace space;
    space.l1SizeBounds = {4096, 65536};
    space.l2SizeBounds = {64 * 1024, 1024 * 1024};
    DriParams tmpl;
    tmpl.senseInterval = 20 * 1000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 20 * 1000;

    const RunOutput conv = run(b, cfg);
    const MultiLevelSearchResult sr = searchMultiLevel(
        b, cfg, tmpl, l2Tmpl, space, EnergyConstants{}, -1.0, conv);

    ASSERT_FALSE(sr.evaluated.empty());
    double min_ed = sr.evaluated[0].cmp.relativeEnergyDelay();
    for (const MultiLevelCandidate &cand : sr.evaluated)
        min_ed =
            std::min(min_ed, cand.cmp.relativeEnergyDelay());
    EXPECT_EQ(sr.best.cmp.relativeEnergyDelay(), min_ed);
    EXPECT_TRUE(sr.best.feasible);

    // The winner carries its run's identity: the L1 run over the
    // config that resizes the L2 too.
    RunConfig ml = cfg;
    ml.hier.l2Dri = true;
    ml.hier.l2DriParams = sr.best.l2;
    EXPECT_EQ(sr.best.configHash,
              runKey(b, ml, {sr.best.l1}).hashHex());
}

// ---------------------------------------------------------------
// searchCmp factor-cap degradation
// ---------------------------------------------------------------

namespace caplog
{
std::vector<std::string> warnings; // hook target (single-threaded)

void
hook(LogLevel level, const std::string &msg)
{
    if (level == LogLevel::Warn)
        warnings.push_back(msg);
}
} // namespace caplog

TEST(CmpSearch, FactorCapDegradationIsFlaggedAndWarned)
{
    RunConfig cfg;
    cfg.maxInstrs = 30 * 1000;

    CmpConfig cmp;
    cmp.cores = 2;
    for (const char *b : {"compress", "li"}) {
        CmpCoreConfig core;
        core.bench = b;
        cmp.coreConfigs.push_back(std::move(core));
    }
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 10 * 1000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 10 * 1000;
    const CmpRunOutput conv = runCmp(cfg, cmp, "compress");

    // 33 factors over 2 cores: 33^2 = 1089 > the 1024-cell cap, so
    // the grid must degrade to one shared factor index — loudly
    // (a warning) and visibly (the result flag), never silently.
    CmpSpace wide;
    wide.l1MissBoundFactors.clear();
    for (int i = 0; i < 33; ++i)
        wide.l1MissBoundFactors.push_back(2.0 + i);
    wide.l2SizeBounds = {1024 * 1024};

    caplog::warnings.clear();
    setLogHook(&caplog::hook);
    const CmpSearchResult degraded = searchCmp(
        cfg, cmp, "compress", l1Tmpl, l2Tmpl, wide,
        EnergyConstants{}, -1.0, conv);
    setLogHook(nullptr);

    EXPECT_TRUE(degraded.sharedFactorSweep);
    EXPECT_EQ(degraded.evaluated.size(), 33u); // |factors| x 1 bound
    ASSERT_EQ(caplog::warnings.size(), 1u);
    EXPECT_NE(caplog::warnings[0].find("shared"),
              std::string::npos);
    // Shared index: both cores always share one factor position.
    for (const CmpCandidate &cand : degraded.evaluated)
        ASSERT_EQ(cand.l1.size(), 2u);

    // A grid under the cap keeps the full cross product and stays
    // unflagged.
    CmpSpace small;
    small.l1MissBoundFactors = {2.0, 32.0};
    small.l2SizeBounds = {1024 * 1024};
    caplog::warnings.clear();
    setLogHook(&caplog::hook);
    const CmpSearchResult full = searchCmp(
        cfg, cmp, "compress", l1Tmpl, l2Tmpl, small,
        EnergyConstants{}, -1.0, conv);
    setLogHook(nullptr);
    EXPECT_FALSE(full.sharedFactorSweep);
    EXPECT_EQ(full.evaluated.size(), 4u); // 2^2 x 1 bound
    EXPECT_TRUE(caplog::warnings.empty());
}

} // namespace
} // namespace drisim
