/**
 * @file
 * Leakage-policy subsystem tests: per-policy edge cases (decay
 * counter saturation/reset, drowsy single-charge wake stalls,
 * static-ways way-0 protection), the Dri adapter's bit-for-bit
 * equivalence with a hand-wired DriICache, the policy view of the
 * energy ledger (including its exact reduction to the paper's
 * Section 5.2 view when the gated residual is zeroed), and the
 * per-core policy CMP wiring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "circuit/drowsy_cell.hh"
#include "cpu/simple_core.hh"
#include "circuit/hierarchy_energy.hh"
#include "harness/multilevel.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "mem/hierarchy.hh"
#include "policy/decay_policy.hh"
#include "core/dri_icache.hh"
#include "policy/drowsy_policy.hh"
#include "policy/static_ways.hh"
#include "sim/checkpoint.hh"
#include "workload/fetch_replay.hh"
#include "workload/generator.hh"

#include "same_run.hh"

namespace drisim
{
namespace
{

/** A tiny direct-mapped geometry: 32 sets x 32 B lines. */
PolicyConfig
tinyConfig(PolicyKind kind)
{
    PolicyConfig c;
    c.kind = kind;
    c.dri.sizeBytes = 1024;
    c.dri.assoc = 1;
    c.dri.blockBytes = 32;
    c.dri.sizeBoundBytes = 1024;
    return c;
}

Addr
setAddr(std::uint64_t set, std::uint64_t tag = 0)
{
    return (tag * 32 + set) * 32; // 32 sets of 32-byte blocks
}

// ---------------------------------------------------------------
// Decay
// ---------------------------------------------------------------

TEST(DecayPolicy, CounterSaturatesAndGatesDeadLines)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Decay);
    cfg.decay.decayInterval = 1000;
    cfg.decay.counterLimit = 3;
    DecayCache cache(cfg, nullptr, &root);

    cache.access(setAddr(0), AccessType::InstFetch); // fill set 0
    EXPECT_TRUE(cache.linePowered(0, 0));
    EXPECT_EQ(cache.lineCounter(0, 0), 0u);

    // Two generations: the counter climbs but the line survives.
    cache.onRetire(2000);
    EXPECT_EQ(cache.generations(), 2u);
    EXPECT_EQ(cache.lineCounter(0, 0), 2u);
    EXPECT_TRUE(cache.access(setAddr(0), AccessType::InstFetch).hit);

    // The third generation saturates untouched lines and gates
    // them, destroying the one valid block.
    cache.onRetire(1000); // line 0 counter back at 1 (touch reset)
    EXPECT_EQ(cache.lineCounter(0, 0), 1u);
    cache.onRetire(2000);
    EXPECT_FALSE(cache.linePowered(0, 0));
    EXPECT_EQ(cache.decayGatedBlocks(), 1u);
    // Every other (invalid) frame is gated too, without loss.
    EXPECT_EQ(cache.poweredLineCount(), 0u);

    // The re-fetch misses (state was destroyed) and re-powers the
    // frame — a wake transition hidden under the fill.
    EXPECT_FALSE(
        cache.access(setAddr(0), AccessType::InstFetch).hit);
    EXPECT_TRUE(cache.linePowered(0, 0));
    EXPECT_EQ(cache.poweredLineCount(), 1u);
    EXPECT_EQ(cache.activity().wakeTransitions, 1u);
}

TEST(DecayPolicy, TouchResetKeepsHotLinesAlive)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Decay);
    cfg.decay.decayInterval = 1000;
    cfg.decay.counterLimit = 2;
    DecayCache cache(cfg, nullptr, &root);

    cache.access(setAddr(3), AccessType::InstFetch);
    // Touch every generation: the line must never decay.
    for (int g = 0; g < 10; ++g) {
        cache.onRetire(1000);
        EXPECT_TRUE(
            cache.access(setAddr(3), AccessType::InstFetch).hit)
            << "generation " << g;
    }
    EXPECT_EQ(cache.decayGatedBlocks(), 0u);
    EXPECT_TRUE(cache.linePowered(3, 0));
}

TEST(DecayPolicy, ActiveFractionIntegratesGatedTime)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Decay);
    cfg.decay.decayInterval = 1000;
    cfg.decay.counterLimit = 1;
    DecayCache cache(cfg, nullptr, &root);

    cache.onCycles(100); // fully powered
    cache.onRetire(1000); // everything decays at limit 1
    EXPECT_EQ(cache.poweredLineCount(), 0u);
    cache.onCycles(100); // fully gated
    const PolicyActivity a = cache.activity();
    EXPECT_DOUBLE_EQ(a.avgActiveFraction, 0.5);
    EXPECT_DOUBLE_EQ(a.avgDrowsyFraction, 0.0);
}

// ---------------------------------------------------------------
// Drowsy
// ---------------------------------------------------------------

TEST(DrowsyPolicy, WakeStallChargedExactlyOncePerWake)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Drowsy);
    cfg.drowsy.drowsyInterval = 1000;
    cfg.drowsy.wakeLatency = 2;
    DrowsyCache cache(cfg, nullptr, &root);

    cache.access(setAddr(0), AccessType::InstFetch); // fill, awake
    EXPECT_EQ(cache.access(setAddr(0), AccessType::InstFetch)
                  .latency,
              1u); // plain hit

    cache.onRetire(1000); // episode: the whole array goes drowsy
    EXPECT_EQ(cache.episodes(), 1u);
    EXPECT_EQ(cache.drowsyLineCount(), cache.totalLines());
    EXPECT_TRUE(cache.lineDrowsy(0, 0));

    // First touch pays the wake stall...
    AccessResult r = cache.access(setAddr(0), AccessType::InstFetch);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 3u); // hit 1 + wake 2
    EXPECT_EQ(cache.activity().wakeStallCycles, 2u);
    EXPECT_EQ(cache.activity().wakeTransitions, 1u);

    // ...and exactly once: the line stays awake.
    r = cache.access(setAddr(0), AccessType::InstFetch);
    EXPECT_EQ(r.latency, 1u);
    EXPECT_EQ(cache.activity().wakeStallCycles, 2u);
    EXPECT_EQ(cache.activity().wakeTransitions, 1u);

    // A fill into a drowsy frame wakes it under the fill's own
    // latency: a transition, but no extra stall.
    EXPECT_FALSE(
        cache.access(setAddr(5), AccessType::InstFetch).hit);
    EXPECT_FALSE(cache.lineDrowsy(5, 0));
    EXPECT_EQ(cache.activity().wakeTransitions, 2u);
    EXPECT_EQ(cache.activity().wakeStallCycles, 2u);
}

TEST(DrowsyPolicy, FractionsPartitionTheArray)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::Drowsy);
    cfg.drowsy.drowsyInterval = 1000;
    DrowsyCache cache(cfg, nullptr, &root);

    cache.onCycles(300); // all awake
    cache.onRetire(1000);
    cache.onCycles(100); // all drowsy
    const PolicyActivity a = cache.activity();
    EXPECT_DOUBLE_EQ(a.avgActiveFraction, 0.75);
    EXPECT_DOUBLE_EQ(a.avgDrowsyFraction, 0.25);
    // State-preserving: nothing is ever lost or invalidated.
    EXPECT_EQ(a.blocksLost, 0u);
}

// ---------------------------------------------------------------
// StaticWays
// ---------------------------------------------------------------

TEST(StaticWaysPolicy, NeverGatesWayZeroAndClampsToAssoc)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::StaticWays);
    cfg.dri.sizeBytes = 4096;
    cfg.dri.assoc = 4;

    cfg.ways.activeWays = 0; // illegal: clamped up, way 0 survives
    StaticWaysCache clamped0(cfg, nullptr, &root);
    EXPECT_EQ(clamped0.activeWays(), 1u);

    cfg.ways.activeWays = 7; // past assoc: clamped down
    StaticWaysCache clamped7(cfg, nullptr, &root);
    EXPECT_EQ(clamped7.activeWays(), 4u);
}

TEST(StaticWaysPolicy, GatedWaysAreNeverAllocated)
{
    stats::StatGroup root("t");
    PolicyConfig cfg = tinyConfig(PolicyKind::StaticWays);
    cfg.dri.sizeBytes = 4096;
    cfg.dri.assoc = 4;
    cfg.ways.activeWays = 1;
    StaticWaysCache cache(cfg, nullptr, &root);

    // Two conflicting blocks: with only way 0 powered the cache
    // behaves direct-mapped — the second fill evicts the first.
    const Addr a = 0;
    const Addr b = 32u * 32u; // same set, different tag
    EXPECT_FALSE(cache.access(a, AccessType::InstFetch).hit);
    EXPECT_FALSE(cache.access(b, AccessType::InstFetch).hit);
    EXPECT_TRUE(cache.access(b, AccessType::InstFetch).hit);
    EXPECT_FALSE(cache.access(a, AccessType::InstFetch).hit);

    EXPECT_DOUBLE_EQ(cache.activeFraction(), 0.25);
    cache.onCycles(50);
    const PolicyActivity act = cache.activity();
    EXPECT_DOUBLE_EQ(act.avgActiveFraction, 0.25);
    EXPECT_EQ(act.wakeTransitions, 0u);

    // With all ways powered the same pair coexists.
    cfg.ways.activeWays = 4;
    StaticWaysCache full(cfg, nullptr, &root);
    full.access(a, AccessType::InstFetch);
    full.access(b, AccessType::InstFetch);
    EXPECT_TRUE(full.access(a, AccessType::InstFetch).hit);
    EXPECT_TRUE(full.access(b, AccessType::InstFetch).hit);
}

// ---------------------------------------------------------------
// Dri adapter equivalence
// ---------------------------------------------------------------

/** A hand-wired DRI run: its outputs and its midpoint snapshot. */
struct DirectDriRun
{
    RunOutput out;
    /** Valid blocks the cache's downsizing destroyed. */
    std::uint64_t blocksLost = 0;
    /** The snapshot the checkpoint seam writes at the midpoint. */
    std::string snapshot;
};

/**
 * Run @p dri without the policy layer: a DriICache wired by hand and
 * attached to the core with addRetireSink, on the detailed core or,
 * given @p cal, the fast model, over the default (blocking, flat
 * memory, fixed L2) hierarchy. The run stops at the checkpoint seam's
 * midpoint to take the snapshot run() would save there.
 */
DirectDriRun
directDriRun(const BenchmarkInfo &bench, const RunConfig &cfg,
             const DriParams &dri, const FastCalibration *cal)
{
    stats::StatGroup root(cal ? "fast" : "sim");
    Hierarchy hier(cfg.hier, &root, false);
    DriICache icache(dri, &hier.l2(), &root);
    hier.setL1I(&icache);
    std::unique_ptr<Core> core;
    if (cal) {
        SimpleCoreParams scp;
        scp.baseCpi = cal->baseCpi;
        scp.missOverlap = cal->missOverlap;
        scp.fetchBlockBytes = dri.blockBytes;
        core = std::make_unique<SimpleCore>(scp, &icache);
    } else {
        core = std::make_unique<OooCore>(cfg.core, &icache,
                                         &hier.l1d(), &root);
    }
    core->addRetireSink(&icache);
    core->addRetireSink(hier.driL2());

    DirectDriRun r;
    const InstCount split = (cfg.maxInstrs / 2) & ~InstCount{63};
    const auto drive = [&](auto &stream) {
        core->run(stream, split);
        sim::CheckpointWriter w;
        w.beginSection("run");
        stream.checkpoint(w);
        core->checkpoint(w);
        hier.checkpoint(w);
        icache.checkpoint(w);
        w.endSection();
        r.snapshot = w.bytes();
        return core->run(stream, cfg.maxInstrs - split);
    };
    CoreStats cs;
    if (cal) {
        const FetchRecording rec(programImageFor(bench), cfg.maxInstrs);
        FetchReplay replay(rec);
        cs = drive(replay);
    } else {
        TraceGenerator gen(programImageFor(bench));
        cs = drive(gen);
    }

    RunOutput &o = r.out;
    o.meas.cycles = cs.cycles;
    o.meas.instructions = cs.instructions;
    o.meas.l1iAccesses = icache.accesses();
    o.meas.l1iMisses = icache.misses();
    o.meas.avgActiveFraction = icache.averageActiveFraction();
    o.meas.resizingTagBits = dri.resizingTagBits();
    o.meas.l1iBytes = dri.sizeBytes;
    o.ipc = cs.ipc();
    o.l1dMissRate = hier.l1d().missRate();
    o.l2MissRate = hier.l2().missRate();
    o.l2Accesses = hier.l2().accesses();
    o.l2Misses = hier.l2().misses();
    o.memAccesses = hier.memAccesses();
    o.memReads = hier.memReads();
    o.memWritebacks = hier.memWritebacks();
    o.l2SizeBytes = hier.params().l2.sizeBytes;
    for (Cache *c : {&hier.l2(), &hier.l1d()}) {
        o.mshrCoalesced += c->mshrCoalesced();
        o.mshrFullStalls += c->mshrFullStalls();
        o.mshrFullStallCycles += c->mshrFullStallCycles();
        o.mshrPeakOccupancy =
            std::max(o.mshrPeakOccupancy, c->mshrPeakOccupancy());
    }
    o.resizes = icache.upsizes() + icache.downsizes();
    o.throttleEvents = icache.controller().throttleEvents();
    r.blocksLost = icache.blocksLost();
    return r;
}

/**
 * run() builds a DRI L1I as the Dri policy; it must give every
 * output field and the exact checkpoint bytes of the hand-wired
 * cache. A PolicyConfig of kind Dri takes the same path and differs
 * only in also reporting the blocks downsizing lost and
 * in reporting its inactive share as gated (charged at the gated
 * residual, where a DriParams L1I keeps the paper's zero).
 */
void
expectAdapterMatchesDirectPath(const BenchmarkInfo &bench,
                               const DriParams &dri,
                               const FastCalibration *cal)
{
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    const DirectDriRun direct = directDriRun(bench, cfg, dri, cal);
    ASSERT_GT(direct.out.resizes, 0u);
    ASSERT_GT(direct.blocksLost, 0u);

    char tmpl[] = "/tmp/drisim_adapter_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    cfg.checkpointDir = tmpl;
    expectSameRun(direct.out, run(bench, cfg, {dri, cal}));
    const InstCount split = (cfg.maxInstrs / 2) & ~InstCount{63};
    std::string saved;
    EXPECT_TRUE(sim::CheckpointStore(cfg.checkpointDir)
                    .load(std::string(cal ? "v6|" : "v7|") +
                              runKey(bench, cfg, {dri, cal}).canonical() +
                              "|ckpt@" + std::to_string(split),
                          saved));
    EXPECT_EQ(saved, direct.snapshot);

    PolicyConfig pc;
    pc.kind = PolicyKind::Dri;
    pc.dri = dri;
    RunOutput viaPolicy = direct.out;
    viaPolicy.policyBlocksLost = direct.blocksLost;
    viaPolicy.l1GatedFraction =
        std::max(0.0, 1.0 - direct.out.meas.avgActiveFraction);
    ASSERT_GT(viaPolicy.l1GatedFraction, 0.0);
    expectSameRun(viaPolicy, run(bench, cfg, {pc, cal}));
    std::filesystem::remove_all(cfg.checkpointDir);
}

TEST(DriAdapter, DetailedRunBitForBitEqualsDirectPath)
{
    DriParams dri;
    dri.sizeBoundBytes = 2048;
    dri.missBound = 200;
    dri.senseInterval = 50 * 1000;
    expectAdapterMatchesDirectPath(findBenchmark("compress"), dri,
                                   nullptr);
}

TEST(DriAdapter, FastRunBitForBitEqualsDirectPath)
{
    DriParams dri;
    dri.sizeBoundBytes = 1024;
    dri.missBound = 200;
    dri.senseInterval = 20 * 1000;
    FastCalibration cal;
    cal.baseCpi = 0.6;
    expectAdapterMatchesDirectPath(findBenchmark("li"), dri, &cal);
}

// ---------------------------------------------------------------
// Energy accounting
// ---------------------------------------------------------------

RunOutput
convOut()
{
    RunOutput o;
    o.meas.cycles = 1000000;
    o.meas.instructions = 1000000;
    o.meas.l1iAccesses = 800000;
    o.meas.l1iMisses = 5000;
    return o;
}

/** The paper view of @p run against @p conv. */
Comparison
paperComparison(const EnergyConstants &c, const RunOutput &conv,
                const RunOutput &run)
{
    return compare(c, conv.meas.cycles, paperView(conv),
                   run.meas.cycles, paperView(run));
}

TEST(PolicyEnergy, ReducesToPaperModelWithZeroGatedResidual)
{
    // With the gated residual zeroed and no drowsy component, the
    // policy view of a run must reproduce the paper's Section 5.2
    // view row by row — the bridge between the policy subsystem and
    // the paper's numbers.
    EnergyConstants c;
    c.gatedLeakFraction = 0.0;

    const RunOutput conv = convOut();
    RunOutput dri = conv;
    dri.meas.cycles = 1010000;
    dri.meas.l1iMisses = 9000;
    dri.meas.avgActiveFraction = 0.4;
    dri.meas.resizingTagBits = 6;
    // The same run reported by a PolicyConfig L1I: its inactive
    // share is gated.
    RunOutput policy = dri;
    policy.l1GatedFraction = 0.6;

    const Ledger pe = paperComparison(c, conv, policy).run;
    const Ledger de = paperComparison(c, conv, dri).run;
    ASSERT_EQ(pe.rows.size(), de.rows.size());
    for (std::size_t i = 0; i < pe.rows.size(); ++i) {
        const Ledger::Row &p = pe.rows[i];
        const Ledger::Row &d = de.rows[i];
        EXPECT_EQ(p.level, d.level);
        EXPECT_EQ(p.activeNJ, d.activeNJ);
        EXPECT_EQ(p.gatedNJ, d.gatedNJ);
        EXPECT_EQ(p.drowsyNJ, d.drowsyNJ);
        EXPECT_EQ(p.tagNJ, d.tagNJ);
        EXPECT_EQ(p.wakeNJ, d.wakeNJ);
        EXPECT_EQ(p.trafficNJ, d.trafficNJ);
        EXPECT_EQ(p.probeNJ, d.probeNJ);
    }
    EXPECT_EQ(pe.totalNJ(), de.totalNJ());
    EXPECT_DOUBLE_EQ(pe.rows[0].gatedNJ, 0.0);
    EXPECT_DOUBLE_EQ(pe.rows[0].drowsyNJ, 0.0);
    EXPECT_DOUBLE_EQ(pe.rows[0].wakeNJ, 0.0);

    // With the default residual the gated share costs ~3% of its
    // active leakage.
    const Ledger charged = paperComparison(EnergyConstants{}, conv,
                                           policy).run;
    EXPECT_DOUBLE_EQ(charged.rows[0].gatedNJ,
                     0.6 * 0.03 * 0.91 * 1010000.0);
}

TEST(PolicyEnergy, SplitsStatePreservingFromStateDestroying)
{
    const EnergyConstants pc;
    const RunOutput conv = convOut();

    // A drowsy-style run: 30% active, 70% state-preserving.
    RunOutput drowsy = conv;
    drowsy.meas.avgActiveFraction = 0.3;
    drowsy.l1DrowsyFraction = 0.7;
    drowsy.wakeTransitions = 1000;
    const Ledger de = paperComparison(pc, conv, drowsy).run;
    EXPECT_GT(de.rows[0].drowsyNJ, 0.0);
    EXPECT_DOUBLE_EQ(de.rows[0].gatedNJ, 0.0);
    EXPECT_DOUBLE_EQ(de.rows[0].wakeNJ,
                     1000.0 * pc.wakePerTransitionNJ);

    // A decay-style run: same inactive fraction, state-destroying.
    RunOutput decay = conv;
    decay.meas.avgActiveFraction = 0.3;
    decay.l1GatedFraction = 0.7;
    const Ledger ce = paperComparison(pc, conv, decay).run;
    EXPECT_GT(ce.rows[0].gatedNJ, 0.0);
    EXPECT_DOUBLE_EQ(ce.rows[0].drowsyNJ, 0.0);

    // The state-preserving residual costs more standby leakage
    // than gated-Vdd at equal inactive fraction — Bai et al.'s
    // trade (the drowsy run buys back the miss behaviour instead).
    EXPECT_GT(de.rows[0].drowsyNJ, ce.rows[0].gatedNJ);

    // The rows expose the split, in fixed order.
    const auto rows = policyEnergyRows(de);
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_EQ(rows[1].first, "leak-gated");
    EXPECT_EQ(rows[2].first, "leak-drowsy");
    double sum = 0.0;
    for (const auto &[label, nj] : rows)
        sum += nj;
    EXPECT_DOUBLE_EQ(sum, de.totalNJ());
}

TEST(PolicyEnergy, DerivedConstantsMatchCircuitFigures)
{
    circuit::LevelCircuit l1;
    l1.geom = circuit::CacheGeometry{};
    circuit::LevelCircuit l2;
    l2.geom = circuit::CacheGeometry{1024 * 1024, 4, 64, 4096};
    const EnergyConstants c = EnergyConstants::derived(l1, l2);
    // Gated-Vdd residual: Table 2's preferred scheme saves ~97%.
    EXPECT_NEAR(c.gatedLeakFraction, 0.03, 0.02);
    // Drowsy residual: the ~6x reduction regime.
    EXPECT_GT(c.drowsyLeakFraction, 0.08);
    EXPECT_LT(c.drowsyLeakFraction, 0.30);
    // Waking one 32-byte line costs far less than one L2 access.
    EXPECT_GT(c.wakePerTransitionNJ, 0.0);
    EXPECT_LT(c.wakePerTransitionNJ, c.l2PerAccessNJ);
}

TEST(DrowsyCellCircuit, StatePreservingFiguresAreSane)
{
    const circuit::Technology tech = circuit::Technology::scaled018();
    const circuit::SramCell cell(tech, tech.vtLow);
    const circuit::DrowsyCell drowsy(tech, cell,
                                     circuit::DrowsyCellConfig{});
    // Leakage falls substantially but nowhere near gated-Vdd's 97%.
    EXPECT_GT(drowsy.leakageSavingsFraction(), 0.5);
    EXPECT_LT(drowsy.leakageSavingsFraction(), 0.97);
    // Standby leaks less than active, more than zero.
    EXPECT_GT(drowsy.standbyLeakagePerCycle(),0.0);
    EXPECT_LT(drowsy.standbyLeakagePerCycle(),
              cell.activeLeakagePerCycle());
    // A deeper retention rail leaks less.
    circuit::DrowsyCellConfig deep;
    deep.standbyVddV = 0.2;
    const circuit::DrowsyCell deeper(tech, cell, deep);
    EXPECT_LT(deeper.standbyLeakageCurrentPerCell(),
              drowsy.standbyLeakageCurrentPerCell());
    // Wake energy scales with the line length.
    EXPECT_GT(drowsy.wakeEnergyPerLineNJ(512),
              drowsy.wakeEnergyPerLineNJ(256));
}

// ---------------------------------------------------------------
// CMP per-core policies
// ---------------------------------------------------------------

TEST(CmpPolicy, PerCoreTechniquesRunSideBySide)
{
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;

    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0;
    c0.bench = "compress";
    c0.l1i = PolicyConfig{.kind = PolicyKind::Decay};
    c0.l1i->decay.decayInterval = 25 * 1000;
    CmpCoreConfig c1;
    c1.bench = "li";
    c1.l1i = PolicyConfig{.kind = PolicyKind::Drowsy};
    c1.l1i->drowsy.drowsyInterval = 25 * 1000;
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "compress");
    ASSERT_EQ(out.cores.size(), 2u);

    // Decay core: state-destroying — inactive fraction, no drowsy.
    EXPECT_LT(out.cores[0].meas.avgActiveFraction, 1.0);
    EXPECT_EQ(out.cores[0].l1DrowsyFraction, 0.0);
    // Drowsy core: state-preserving fraction + wake stalls.
    EXPECT_GT(out.cores[1].l1DrowsyFraction, 0.0);
    EXPECT_GT(out.cores[1].wakeTransitions, 0u);
    EXPECT_GT(out.cores[1].wakeStallCycles, 0u);

    // The energy view carries the per-core split and still sums
    // exactly (the ledger's rows-define-totals contract).
    const CmpConfig convCmp = [&] {
        CmpConfig c = cmp;
        for (CmpCoreConfig &cc : c.coreConfigs)
            cc.l1i.reset();
        return c;
    }();
    const CmpRunOutput conv = runCmp(cfg, convCmp, "compress");
    const EnergyConstants mc;
    const Comparison cmpResult =
        compare(mc, conv.systemCycles, cmpView(conv), out.systemCycles,
                cmpView(out));
    ASSERT_EQ(cmpResult.run.rows.size(), 4u);
    double leak = 0.0;
    for (const Ledger::Row &l : cmpResult.run.rows)
        leak += l.leakageNJ();
    EXPECT_EQ(leak, cmpResult.run.leakageNJ());
    // Both managed L1Is leak less than a fully-active array would
    // (the conventional comparison's l1i rows).
    EXPECT_LT(cmpResult.run.rows[0].leakageNJ(),
              cmpResult.baseline.rows[0].leakageNJ());
    EXPECT_LT(cmpResult.run.rows[1].leakageNJ(),
              cmpResult.baseline.rows[1].leakageNJ());

    // The CMP view charges the same standby residuals as the
    // single-core policy view: the decay core's gated fraction
    // carries the Table 2 residual on top of its active share, and
    // the drowsy core's standby fraction its drowsy residual.
    const double cycles = static_cast<double>(out.systemCycles);
    for (std::size_t k = 0; k < 2; ++k) {
        const CmpCoreOutput &c = out.cores[k];
        const double leakPerCycle = mc.l1LeakPerCycleNJ *
                                    static_cast<double>(c.meas.l1iBytes) /
                                    static_cast<double>(mc.l1BaseBytes);
        const double expected =
            (c.meas.avgActiveFraction +
             c.l1DrowsyFraction * mc.drowsyLeakFraction +
             c.l1GatedFraction * mc.gatedLeakFraction) *
            leakPerCycle * cycles;
        EXPECT_DOUBLE_EQ(cmpResult.run.rows[k].leakageNJ(), expected);
        // active + drowsy + gated partitions the array.
        EXPECT_NEAR(c.meas.avgActiveFraction + c.l1DrowsyFraction +
                        c.l1GatedFraction,
                    1.0, 1e-12);
    }
}

// ---------------------------------------------------------------
// searchPolicies
// ---------------------------------------------------------------

TEST(SearchPolicies, FindsOneWinnerPerKindInOrder)
{
    const auto &bench = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;
    cfg.hier.l1i.assoc = 4;

    PolicyConfig tmpl;
    tmpl.dri.senseInterval = 50 * 1000;
    PolicySpace space;
    space.driSizeBounds = {4096};
    space.decayIntervals = {50 * 1000};
    space.drowsyIntervals = {50 * 1000};
    space.waysActive = {2};

    const RunOutput conv = run(bench, cfg);
    const PolicySearchResult sr = searchPolicies(
        bench, cfg, tmpl, space, EnergyConstants{}, 4.0, conv);

    ASSERT_EQ(sr.evaluated.size(), 4u);
    ASSERT_EQ(sr.bestPerKind.size(), 4u);
    EXPECT_EQ(sr.bestPerKind[0].config.kind, PolicyKind::Dri);
    EXPECT_EQ(sr.bestPerKind[1].config.kind, PolicyKind::Decay);
    EXPECT_EQ(sr.bestPerKind[2].config.kind, PolicyKind::Drowsy);
    EXPECT_EQ(sr.bestPerKind[3].config.kind,
              PolicyKind::StaticWays);
    // Each winner carries its run's identity, the row's config_hash.
    for (const PolicyCandidate &cand : sr.bestPerKind)
        EXPECT_EQ(cand.configHash,
                  runKey(bench, cfg, {cand.config}).hashHex());
    // Four different techniques cannot land on the same
    // energy-delay: the comparison is meaningful.
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = i + 1; j < 4; ++j)
            EXPECT_NE(
                sr.bestPerKind[i].cmp.relativeEnergyDelay(),
                sr.bestPerKind[j].cmp.relativeEnergyDelay());
}

} // namespace
} // namespace drisim
