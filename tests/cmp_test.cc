/**
 * @file
 * CMP system tests: the cores=1 degeneration contract (CmpSystem
 * reproduces the single-core runner bit-for-bit), shared-L2
 * attribution and bank contention, the per-level CMP energy
 * accounting invariants, and a TSan-targeted hammer that drives the
 * shared programImageFor() image cache from concurrent searchCmp
 * cells (this file is labelled `concurrency`; see CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <map>

#include "harness/multilevel.hh"
#include "harness/runner.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "system/cmp.hh"

namespace drisim
{
namespace
{

/**
 * The single-core hierarchy-view ledger of @p single (against
 * @p singleBase) equals the CMP-view ledger of its cores=1 twin
 * @p cmp (against @p cmpBase): every row, every term and every
 * total, bit for bit. Only the L1I row's name differs.
 */
void
expectSameLedger(const RunOutput &single, const RunOutput &singleBase,
                 const CmpRunOutput &cmp, const CmpRunOutput &cmpBase)
{
    const EnergyConstants c;
    const Ledger a = ledger(c, single.meas.cycles, hierarchyView(single),
                            hierarchyView(singleBase));
    const Ledger b = ledger(c, cmp.systemCycles, cmpView(cmp),
                            cmpView(cmpBase));
    ASSERT_EQ(a.rows.size(), 3u);
    ASSERT_EQ(b.rows.size(), 3u);
    EXPECT_EQ(a.rows[0].level, "l1i");
    EXPECT_EQ(b.rows[0].level, "l1i[0]");
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        const Ledger::Row &x = a.rows[i];
        const Ledger::Row &y = b.rows[i];
        SCOPED_TRACE(x.level);
        if (i > 0) {
            EXPECT_EQ(x.level, y.level);
        }
        EXPECT_EQ(x.activeNJ, y.activeNJ);
        EXPECT_EQ(x.gatedNJ, y.gatedNJ);
        EXPECT_EQ(x.drowsyNJ, y.drowsyNJ);
        EXPECT_EQ(x.tagNJ, y.tagNJ);
        EXPECT_EQ(x.wakeNJ, y.wakeNJ);
        EXPECT_EQ(x.trafficNJ, y.trafficNJ);
        EXPECT_EQ(x.probeNJ, y.probeNJ);
    }
    EXPECT_EQ(a.leakageNJ(), b.leakageNJ());
    EXPECT_EQ(a.dynamicNJ(), b.dynamicNJ());
    EXPECT_EQ(a.totalNJ(), b.totalNJ());
    EXPECT_EQ(a.energyDelay(), b.energyDelay());
    EXPECT_GT(a.totalNJ(), 0.0);
}

TEST(CmpSystem, SingleCoreConventionalMatchesRunnerBitForBit)
{
    const BenchmarkInfo &b = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    const RunOutput single = run(b, cfg);

    CmpConfig cmp;
    cmp.cores = 1; // default core config: conventional L1I
    const CmpRunOutput out = runCmp(cfg, cmp, "compress");

    ASSERT_EQ(out.cores.size(), 1u);
    const CmpCoreOutput &c = out.cores[0];
    EXPECT_EQ(c.bench, "compress");
    EXPECT_EQ(c.meas.cycles, single.meas.cycles);
    EXPECT_EQ(c.meas.instructions, single.meas.instructions);
    EXPECT_EQ(c.meas.l1iAccesses, single.meas.l1iAccesses);
    EXPECT_EQ(c.meas.l1iMisses, single.meas.l1iMisses);
    EXPECT_EQ(c.ipc, single.ipc);
    EXPECT_EQ(c.l1dMissRate, single.l1dMissRate);
    EXPECT_EQ(out.systemCycles, single.meas.cycles);
    EXPECT_EQ(out.l2Accesses, single.l2Accesses);
    EXPECT_EQ(out.l2Misses, single.l2Misses);
    EXPECT_EQ(out.l2MissRate, single.l2MissRate);
    EXPECT_EQ(out.memAccesses, single.memAccesses);
    EXPECT_EQ(out.l2ContentionEvents, 0u);
    expectSameLedger(single, single, out, out);
}

TEST(CmpSystem, SingleCoreDriWithDriL2MatchesRunnerBitForBit)
{
    // The full multi-level wiring: DRI L1I over a resizable L2.
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    cfg.hier.l2Dri = true;
    DriParams l2p = HierarchyParams::defaultL2DriParams();
    l2p.senseInterval = 50000;
    cfg.hier.l2DriParams = l2p;

    DriParams dri;
    dri.senseInterval = 50000;
    dri.sizeBoundBytes = 4096;
    dri.missBound = 300;
    const DriParams resolved =
        driParamsForLevel(cfg.hier.l1i, dri);

    const BenchmarkInfo &b = findBenchmark("li");
    const RunOutput single = run(b, cfg, {resolved});

    CmpConfig cmp;
    cmp.cores = 1;
    CmpCoreConfig core;
    core.bench = "li";
    core.l1i = PolicyConfig{.dri = dri};
    cmp.coreConfigs.push_back(core);
    const CmpRunOutput out = runCmp(cfg, cmp, "li");

    ASSERT_EQ(out.cores.size(), 1u);
    const CmpCoreOutput &c = out.cores[0];
    EXPECT_EQ(c.meas.cycles, single.meas.cycles);
    EXPECT_EQ(c.meas.instructions, single.meas.instructions);
    EXPECT_EQ(c.meas.l1iAccesses, single.meas.l1iAccesses);
    EXPECT_EQ(c.meas.l1iMisses, single.meas.l1iMisses);
    EXPECT_EQ(c.meas.avgActiveFraction,
              single.meas.avgActiveFraction);
    EXPECT_EQ(c.meas.resizingTagBits, single.meas.resizingTagBits);
    EXPECT_EQ(c.resizes, single.resizes);
    EXPECT_EQ(c.throttleEvents, single.throttleEvents);
    EXPECT_EQ(out.l2Accesses, single.l2Accesses);
    EXPECT_EQ(out.l2Misses, single.l2Misses);
    EXPECT_EQ(out.memAccesses, single.memAccesses);
    EXPECT_EQ(out.l2SizeBytes, single.l2SizeBytes);
    EXPECT_EQ(out.l2AvgActiveFraction, single.l2AvgActiveFraction);
    EXPECT_EQ(out.l2ResizingTagBits, single.l2ResizingTagBits);
    EXPECT_EQ(out.l2Resizes, single.l2Resizes);

    // Against the conventional hierarchy, so the resizing L2's
    // extra memory traffic is charged too.
    RunConfig convCfg = cfg;
    convCfg.hier.l2Dri = false;
    CmpConfig convCmp;
    convCmp.cores = 1;
    const RunOutput singleBase = run(b, convCfg);
    const CmpRunOutput cmpBase = runCmp(convCfg, convCmp, "li");
    ASSERT_GT(single.memAccesses, singleBase.memAccesses);
    expectSameLedger(single, singleBase, out, cmpBase);
}

/**
 * A cores=1 CMP whose L1I is @p pc matches run() with the same
 * policy on the geometry CmpSystem gives it: every L1I field of the
 * core's output and the ledger against the conventional runs, bit
 * for bit.
 */
void
expectSingleCorePolicyMatchesRunner(const RunConfig &cfg, PolicyConfig pc)
{
    const BenchmarkInfo &b = findBenchmark("gcc");
    CmpConfig cmp;
    cmp.cores = 1;
    cmp.coreConfigs.push_back({"gcc", pc});
    const CmpRunOutput out = runCmp(cfg, cmp, "gcc");
    pc.dri = driParamsForLevel(cfg.hier.l1i, pc.dri);
    const RunOutput single = run(b, cfg, {pc});

    ASSERT_EQ(out.cores.size(), 1u);
    const CmpCoreOutput &c = out.cores[0];
    EXPECT_EQ(c.meas.cycles, single.meas.cycles);
    EXPECT_EQ(c.meas.instructions, single.meas.instructions);
    EXPECT_EQ(c.meas.l1iAccesses, single.meas.l1iAccesses);
    EXPECT_EQ(c.meas.l1iMisses, single.meas.l1iMisses);
    EXPECT_EQ(c.meas.avgActiveFraction, single.meas.avgActiveFraction);
    EXPECT_EQ(c.meas.resizingTagBits, single.meas.resizingTagBits);
    EXPECT_EQ(c.meas.l1iBytes, single.meas.l1iBytes);
    EXPECT_EQ(c.ipc, single.ipc);
    EXPECT_EQ(c.l1dMissRate, single.l1dMissRate);
    EXPECT_EQ(c.resizes, single.resizes);
    EXPECT_EQ(c.throttleEvents, single.throttleEvents);
    EXPECT_EQ(c.l1DrowsyFraction, single.l1DrowsyFraction);
    EXPECT_EQ(c.l1GatedFraction, single.l1GatedFraction);
    EXPECT_EQ(c.wakeTransitions, single.wakeTransitions);
    EXPECT_EQ(c.wakeStallCycles, single.wakeStallCycles);
    // The policy manages the array: some of it is not at full power.
    EXPECT_LT(c.meas.avgActiveFraction, 1.0);

    CmpConfig convCmp;
    convCmp.cores = 1;
    expectSameLedger(single, run(b, cfg), out, runCmp(cfg, convCmp, "gcc"));
}

TEST(CmpSystem, SingleCoreDecayMatchesRunnerBitForBit)
{
    // 25 K generations, so idle lines decay well within the run.
    RunConfig cfg;
    cfg.maxInstrs = 300 * 1000;
    PolicyConfig pc{.kind = PolicyKind::Decay};
    pc.decay.decayInterval = 25 * 1000;
    expectSingleCorePolicyMatchesRunner(cfg, pc);
}

TEST(CmpSystem, SingleCoreDrowsyMatchesRunnerBitForBit)
{
    RunConfig cfg;
    cfg.maxInstrs = 300 * 1000;
    expectSingleCorePolicyMatchesRunner(
        cfg, PolicyConfig{.kind = PolicyKind::Drowsy});
}

TEST(CmpSystem, SingleCoreStaticWaysMatchesRunnerBitForBit)
{
    // A 4-way L1I, so gating all but way 0 leaves a quarter powered.
    RunConfig cfg;
    cfg.maxInstrs = 300 * 1000;
    cfg.hier.l1i.assoc = 4;
    expectSingleCorePolicyMatchesRunner(
        cfg, PolicyConfig{.kind = PolicyKind::StaticWays});
}

TEST(CmpSystem, AttributionSumsAndContentionFiresWithSharers)
{
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "compress");
    ASSERT_EQ(out.cores.size(), 2u);
    EXPECT_EQ(out.cores[0].bench, "compress");
    EXPECT_EQ(out.cores[1].bench, "li");

    // Attribution partitions the shared traffic.
    EXPECT_EQ(out.cores[0].l2Accesses + out.cores[1].l2Accesses,
              out.l2Accesses);
    EXPECT_EQ(out.cores[0].l2Misses + out.cores[1].l2Misses,
              out.l2Misses);
    EXPECT_GT(out.cores[0].l2Accesses, 0u);
    EXPECT_GT(out.cores[1].l2Accesses, 0u);

    // Two cores interleaving over the same banks must collide.
    EXPECT_GT(out.l2ContentionEvents, 0u);

    // System time is the slowest core.
    EXPECT_EQ(out.systemCycles,
              std::max(out.cores[0].meas.cycles,
                       out.cores[1].meas.cycles));
    // Both cores ran their full budget.
    EXPECT_EQ(out.cores[0].meas.instructions, cfg.maxInstrs);
    EXPECT_EQ(out.cores[1].meas.instructions, cfg.maxInstrs);
}

TEST(CmpSystem, ContentionPenaltyCostsCycles)
{
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "mgrid";
    cmp.coreConfigs = {c0, c1};

    CmpConfig free = cmp;
    free.l2ContentionPenalty = 0;
    const CmpRunOutput base = runCmp(cfg, free, "compress");

    CmpConfig costly = cmp;
    costly.l2ContentionPenalty = 50;
    const CmpRunOutput slow = runCmp(cfg, costly, "compress");

    // The round-robin quanta are instruction-based, so the L2
    // access interleaving — and hence the contention count — is
    // identical; only the charged latency differs.
    EXPECT_EQ(base.l2ContentionEvents, slow.l2ContentionEvents);
    EXPECT_GT(base.l2ContentionEvents, 0u);
    EXPECT_GT(slow.systemCycles, base.systemCycles);
}

TEST(CmpSystem, ContentionAdderReachesTheTimedL2UnderBankedDram)
{
    // Regression (bank-contention sweep): the contention adder must
    // be threaded into the shared L2's accessAt() arrival time, not
    // only added to the returned latency — under banked DRAM the
    // timed path is arrival-dependent. A contended system can never
    // be faster than an uncontended one.
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    cfg.hier.dram.banked = true;
    cfg.hier.l1i.mshrs = 4;
    cfg.hier.l1d.mshrs = 4;
    cfg.hier.l2.mshrs = 8;

    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};

    CmpConfig free = cmp;
    free.l2ContentionPenalty = 0;
    const CmpRunOutput base = runCmp(cfg, free, "compress");

    CmpConfig costly = cmp;
    costly.l2ContentionPenalty = 50;
    const CmpRunOutput slow = runCmp(cfg, costly, "compress");

    // Instruction-driven quanta: the reference stream — and the
    // contention count — is identical; only timing moves.
    EXPECT_EQ(base.l2ContentionEvents, slow.l2ContentionEvents);
    EXPECT_GT(base.l2ContentionEvents, 0u);
    EXPECT_EQ(base.l2Accesses, slow.l2Accesses);
    // (Only the end-to-end time is monotone: a later L2 arrival can
    // land MORE DRAM row hits, so the below-the-bus miss-latency
    // component alone may legitimately shrink.)
    EXPECT_GT(slow.systemCycles, base.systemCycles);
}

TEST(CmpCoherence, SharingWorkloadProducesAttributedInvalidations)
{
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    cmp.coherence.enabled = true;
    CmpCoreConfig c0, c1;
    c0.bench = "shared_image";
    c1.bench = "shared_image";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "shared_image");
    ASSERT_EQ(out.cores.size(), 2u);

    // Both cores hammer one shared window: each must both receive
    // and cause invalidations, and pay message cycles.
    for (const CmpCoreOutput &c : out.cores) {
        EXPECT_GT(c.coherenceInvalidationsReceived, 0u);
        EXPECT_GT(c.coherenceInvalidationsCaused, 0u);
        EXPECT_GT(c.coherenceMsgCycles, 0u);
    }

    // Attribution partitions the totals (both directions: probes
    // received and probes caused are two views of the same sends).
    std::uint64_t recv = 0, caused = 0, down = 0, wb = 0, msg = 0;
    for (const CmpCoreOutput &c : out.cores) {
        recv += c.coherenceInvalidationsReceived;
        caused += c.coherenceInvalidationsCaused;
        down += c.coherenceDowngrades;
        wb += c.coherenceWritebacks;
        msg += c.coherenceMsgCycles;
    }
    EXPECT_EQ(recv, out.coherenceInvalidations);
    EXPECT_EQ(caused, out.coherenceInvalidations);
    EXPECT_EQ(down, out.coherenceDowngrades);
    EXPECT_EQ(wb, out.coherenceWritebacks);
    EXPECT_EQ(msg, out.coherenceMsgCycles);
    EXPECT_GT(out.coherenceWritebacks, 0u);
}

TEST(CmpCoherence, DisabledProtocolReportsNoCoherenceActivity)
{
    // The same sharing mix without the protocol (the default):
    // every coherence counter stays zero — the pre-coherence
    // behaviour the sharing-free goldens pin.
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "shared_image";
    c1.bench = "shared_image";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "shared_image");
    EXPECT_EQ(out.coherenceInvalidations, 0u);
    EXPECT_EQ(out.coherenceDowngrades, 0u);
    EXPECT_EQ(out.coherenceWritebacks, 0u);
    EXPECT_EQ(out.coherenceMsgCycles, 0u);
    EXPECT_EQ(out.directoryEvictions, 0u);
    for (const CmpCoreOutput &c : out.cores) {
        EXPECT_EQ(c.coherenceInvalidationsReceived, 0u);
        EXPECT_EQ(c.coherenceMsgCycles, 0u);
    }
}

/**
 * One core of each L1I flavour on a coherent sharing mix, @p instrs
 * instructions each: a conventional core, a DRI core with an
 * aggressive bound and a drowsy core, sampled every 10 K
 * instructions. Every core's last row comes from the tail pass after
 * all cores finished, so it carries the probes that landed on the
 * core after its last turn, and each series' deltas sum to the
 * core's totals. @p text receives the metrics CSV.
 */
void
expectSharedMixIntervalsSumToCoreTotals(InstCount instrs,
                                        std::string &text)
{
    RunConfig cfg;
    cfg.maxInstrs = instrs;
    CmpConfig cmp;
    cmp.cores = 3;
    cmp.coherence.enabled = true;
    CmpCoreConfig conv, dri, drowsy;
    conv.bench = dri.bench = drowsy.bench = "shared_image";
    dri.l1i = PolicyConfig{};
    dri.l1i->dri.sizeBoundBytes = 1024;
    dri.l1i->dri.missBound = 2000;
    dri.l1i->dri.senseInterval = 5 * 1000;
    drowsy.l1i = PolicyConfig{.kind = PolicyKind::Drowsy};
    drowsy.l1i->drowsy.drowsyInterval = 10 * 1000;
    cmp.coreConfigs = {conv, dri, drowsy};

    obs::initMetrics("cmp_test.metrics.csv", 10 * 1000);
    const CmpRunOutput out = runCmp(cfg, cmp, "shared_image");
    text = obs::metrics()->renderCsv();
    obs::resetMetrics();

    obs::MetricsCsv csv;
    std::string err;
    ASSERT_TRUE(obs::parseMetricsCsvText(text, csv, err)) << err;
    ASSERT_EQ(out.cores.size(), 3u);
    for (std::size_t k = 0; k < out.cores.size(); ++k) {
        SCOPED_TRACE(k);
        const CmpCoreOutput &c = out.cores[k];
        const std::string suffix = "/core" + std::to_string(k);
        std::map<std::string, double> sums;
        std::uint64_t lastInstrs = 0;
        for (const obs::MetricsCsv::Row &row : csv.rows) {
            if (row.series.size() < suffix.size() ||
                row.series.compare(row.series.size() - suffix.size(),
                                   suffix.size(), suffix) != 0)
                continue;
            for (std::size_t i = 0; i < row.values.size(); ++i)
                sums[csv.columns[i + 2]] += row.values[i];
            lastInstrs = row.instrs;
        }
        EXPECT_EQ(lastInstrs, c.meas.instructions);
        EXPECT_EQ(sums["cycles"], static_cast<double>(c.meas.cycles));
        EXPECT_EQ(sums["resizes"], static_cast<double>(c.resizes));
        EXPECT_EQ(sums["wakes"],
                  static_cast<double>(c.wakeTransitions));
        EXPECT_EQ(sums["coherence_invalidations"],
                  static_cast<double>(c.coherenceInvalidationsReceived));
        EXPECT_EQ(sums["coherence_refetches"],
                  static_cast<double>(c.coherenceRefetches));
    }
    EXPECT_GT(out.cores[1].resizes, 0u);
    EXPECT_GT(out.cores[2].wakeTransitions, 0u);
}

TEST(CmpMetrics, PerCoreIntervalsSumToCoreTotals)
{
    // The last 5 K instructions fall short of an interval.
    std::string text;
    expectSharedMixIntervalsSumToCoreTotals(45 * 1000, text);
    EXPECT_EQ(text,
              "series,instrs,active_bytes,active_fraction,coherence_invalidations,coherence_refetches,coherence_wakes,cpi,cycles,drowsy_fraction,l1i_miss_rate,l2_miss_rate,resizes,wake_stall_cycles,wakes\n"
              "shared_image/cmp#8ed91da4d0f7785e/core0,20000,65536,1,1272,0,0,2.1174,42348,0,0.0654205607,0.372504829,0,0,0\n"
              "shared_image/cmp#8ed91da4d0f7785e/core0,40000,65536,1,1443,0,0,1.16365,23273,0,0.0282828283,0.168927649,0,0,0\n"
              "shared_image/cmp#8ed91da4d0f7785e/core0,45000,65536,1,640,0,0,1.1218,5609,0,0.0459652707,0.0968718466,0,0,0\n"
              "shared_image/cmp#8ed91da4d0f7785e/core1,20000,4096,0.446596388,1272,3,0,0.61185,12237,0,0.0654205607,0,4,0,0\n"
              "shared_image/cmp#8ed91da4d0f7785e/core1,40000,1024,0.0344614766,1416,102,0,0.43545,8709,0,0.0299971157,0,2,0,0\n"
              "shared_image/cmp#8ed91da4d0f7785e/core1,45000,1024,0.015625,635,32,0,0.4902,2451,0,0.0472279261,0,0,0,0\n"
              "shared_image/cmp#8ed91da4d0f7785e/core2,20000,30817.63,0.470239715,1272,3,11,0.61155,12231,0.529760285,0.0654205607,0,0,14,153\n"
              "shared_image/cmp#8ed91da4d0f7785e/core2,40000,1794.28571,0.0273786272,1442,92,51,0.434,8680,0.972621373,0.0285549466,0,0,57,147\n"
              "shared_image/cmp#8ed91da4d0f7785e/core2,45000,1072.56026,0.0163659708,387,45,10,0.4912,2456,0.983634029,0.046201232,0,0,10,53\n");
}

TEST(CmpMetrics, SeriesEndingOnAnIntervalCarryLateProbes)
{
    // Every series ends on an interval boundary: a core that
    // finishes first still takes its last sample in the tail pass,
    // after the probes the other cores send it while they finish.
    std::string text;
    expectSharedMixIntervalsSumToCoreTotals(40 * 1000, text);
}

TEST(CmpCoherence, PolicyCoresReportWakesAndRefetches)
{
    // Drowsy and decay L1Is under the producer/consumer pair: the
    // drowsy core's probes charge wakes, both cores refetch frames
    // the directory stole — the leakage/coherence interaction the
    // 2001 paper never modelled.
    RunConfig cfg;
    cfg.maxInstrs = 150 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    cmp.coherence.enabled = true;
    CmpCoreConfig c0, c1;
    c0.bench = "producer";
    c0.l1i = PolicyConfig{.kind = PolicyKind::Drowsy};
    c1.bench = "consumer";
    c1.l1i = PolicyConfig{.kind = PolicyKind::Decay};
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput out = runCmp(cfg, cmp, "producer");
    ASSERT_EQ(out.cores.size(), 2u);
    EXPECT_GT(out.coherenceInvalidations, 0u);
    EXPECT_GT(out.cores[0].coherenceRefetches, 0u);
    EXPECT_GT(out.cores[1].coherenceRefetches, 0u);
    // Decay never naps lines: wakes can only come from the drowsy
    // core.
    EXPECT_EQ(out.cores[1].coherenceWakes, 0u);

    // Determinism: the identical config replays bit-for-bit.
    const CmpRunOutput again = runCmp(cfg, cmp, "producer");
    EXPECT_EQ(again.systemCycles, out.systemCycles);
    EXPECT_EQ(again.coherenceInvalidations,
              out.coherenceInvalidations);
    EXPECT_EQ(again.coherenceMsgCycles, out.coherenceMsgCycles);
    EXPECT_EQ(again.cores[0].coherenceWakes,
              out.cores[0].coherenceWakes);
}

TEST(CmpAccounting, PerCoreRowsPlusSharedRowsSumToSystemTotal)
{
    CmpRunOutput conv;
    conv.systemCycles = 1000000;
    conv.cores.resize(2);
    conv.cores[0].meas.l1iAccesses = 500000;
    conv.cores[1].meas.l1iAccesses = 400000;
    conv.l2SizeBytes = 1024 * 1024;
    conv.l2Accesses = 20000;
    conv.l2Misses = 2000;
    conv.memAccesses = 2000;

    CmpRunOutput dri = conv;
    dri.systemCycles = 1010000;
    dri.cores[0].meas.avgActiveFraction = 0.4;
    dri.cores[0].meas.resizingTagBits = 4;
    dri.cores[1].meas.avgActiveFraction = 0.7;
    dri.cores[1].meas.resizingTagBits = 2;
    dri.l2AvgActiveFraction = 0.5;
    dri.l2ResizingTagBits = 4;
    dri.l2Accesses = 25000; // extra traffic charged to the L2 row
    dri.memAccesses = 2600; // extra traffic charged to the mem row

    const EnergyConstants c;
    const Comparison cmp = compare(c, conv.systemCycles, cmpView(conv),
                                   dri.systemCycles, cmpView(dri));

    // Row identities: one l1i[k] per core, then shared l2 and mem.
    ASSERT_EQ(cmp.run.rows.size(), 4u);
    EXPECT_EQ(cmp.run.rows[0].level, "l1i[0]");
    EXPECT_EQ(cmp.run.rows[1].level, "l1i[1]");
    EXPECT_EQ(cmp.run.rows[2].level, "l2");
    EXPECT_EQ(cmp.run.rows[3].level, "mem");

    // Totals are the row sums by construction — exactly.
    double leak = 0.0, dyn = 0.0;
    for (const Ledger::Row &l : cmp.run.rows) {
        leak += l.leakageNJ();
        dyn += l.dynamicNJ();
    }
    EXPECT_EQ(leak, cmp.run.leakageNJ());
    EXPECT_EQ(dyn, cmp.run.dynamicNJ());

    // The conventional baseline pairs against itself: no extra
    // traffic, no resizing overhead, relative ED of exactly 1.
    EXPECT_DOUBLE_EQ(cmp.baseline.rows[3].dynamicNJ(), 0.0);
    const double conv_ed = cmp.baseline.energyDelay();
    EXPECT_GT(conv_ed, 0.0);
    EXPECT_DOUBLE_EQ(compare(c, conv.systemCycles, cmpView(conv),
                             conv.systemCycles, cmpView(conv))
                         .relativeEnergyDelay(),
                     1.0);

    // Gating the arrays must have cut the DRI leakage below the
    // conventional leakage despite the longer run.
    EXPECT_LT(cmp.run.leakageNJ(), cmp.baseline.leakageNJ() * 1.02);

    // The slowdown is computed on system time.
    EXPECT_NEAR(cmp.slowdownPercent(), 1.0, 1e-9);
    // The view carries each array's powered share.
    const std::vector<LevelInput> view = cmpView(dri);
    EXPECT_DOUBLE_EQ(view[0].active, 0.4);
    EXPECT_DOUBLE_EQ(view[1].active, 0.7);
    EXPECT_DOUBLE_EQ(view[2].active, 0.5);
}

TEST(CmpSearch, WinnerAndGridShapeAreSane)
{
    RunConfig cfg;
    cfg.maxInstrs = 120 * 1000;
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};

    const CmpRunOutput conv = runCmp(cfg, cmp, "compress");

    CmpSpace space;
    space.l1MissBoundFactors = {32.0};
    space.l2SizeBounds = {64 * 1024, 1024 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 50000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 50000;

    const CmpSearchResult sr = searchCmp(
        cfg, cmp, "compress", l1Tmpl, l2Tmpl, space,
        EnergyConstants{}, 4.0, conv);

    // |factors|^2 x |l2 bounds| = 1 x 2 cells, grid order.
    ASSERT_EQ(sr.evaluated.size(), 2u);
    EXPECT_EQ(sr.evaluated[0].l2.sizeBoundBytes, 64u * 1024);
    EXPECT_EQ(sr.evaluated[1].l2.sizeBoundBytes, 1024u * 1024);
    for (const CmpCandidate &cand : sr.evaluated) {
        ASSERT_EQ(cand.l1.size(), 2u);
        EXPECT_GE(cand.l1[0].missBound, space.missBoundFloor);
        // Per-level rows: l1i[0], l1i[1], l2, mem.
        ASSERT_EQ(cand.cmp.run.rows.size(), 4u);
    }
    ASSERT_EQ(sr.best.l1.size(), 2u);
    EXPECT_GT(sr.best.cmp.relativeEnergyDelay(), 0.0);

    // The rendered row carries one miss-bound and one size per core.
    const std::vector<std::string> row =
        cmpRowCells("compress+li", sr.best);
    ASSERT_EQ(row.size(), 8u);
    EXPECT_EQ(row[0], "compress+li");
    EXPECT_NE(row[1].find('/'), std::string::npos);
    EXPECT_NE(row[5].find('/'), std::string::npos);
}

TEST(CmpSearch, WideCmpDegradesToSharedFactorSweep)
{
    // 2^12 per-core factor combinations blow the 1024-cell cap, so
    // the sweep must fall back to one shared factor index (cells =
    // |factors| x |l2 bounds|) instead of exploding or overflowing.
    RunConfig cfg;
    cfg.maxInstrs = 15 * 1000;
    CmpConfig cmp;
    cmp.cores = 12;
    const CmpRunOutput conv = runCmp(cfg, cmp, "compress");

    CmpSpace space;
    space.l1MissBoundFactors = {2.0, 32.0};
    space.l2SizeBounds = {64 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 5000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 5000;

    const CmpSearchResult sr = searchCmp(
        cfg, cmp, "compress", l1Tmpl, l2Tmpl, space,
        EnergyConstants{}, -1.0, conv);

    ASSERT_EQ(sr.evaluated.size(), 2u);
    for (std::size_t i = 0; i < sr.evaluated.size(); ++i) {
        const CmpCandidate &cand = sr.evaluated[i];
        ASSERT_EQ(cand.l1.size(), 12u);
        // Shared index: every core uses the same factor per cell.
        for (const DriParams &p : cand.l1)
            EXPECT_EQ(p.missBound, cand.l1[0].missBound);
        // Per-level rows: 12 l1i[k] + l2 + mem.
        EXPECT_EQ(cand.cmp.run.rows.size(), 14u);
    }
    // The two cells differ (factor 2 vs factor 32).
    EXPECT_NE(sr.evaluated[0].l1[0].missBound,
              sr.evaluated[1].l1[0].missBound);
}

TEST(CmpSearch, RowHashIsTheWinnersRunKey)
{
    // bench_cmp's row identity is the winning cell's runKeyCmp hash,
    // so two machines that differ only below the L2 never share it.
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};
    CmpSpace space;
    space.l1MissBoundFactors = {32.0};
    space.l2SizeBounds = {64 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 5000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 5000;

    RunConfig flat;
    flat.maxInstrs = 15 * 1000;
    RunConfig banked = flat;
    banked.hier.dram.banked = true;
    std::vector<std::string> hashes;
    for (const RunConfig &cfg : {flat, banked}) {
        const CmpSearchResult sr = searchCmp(
            cfg, cmp, "compress", l1Tmpl, l2Tmpl, space,
            EnergyConstants{}, -1.0, runCmp(cfg, cmp, "compress"));
        RunConfig winner = cfg;
        winner.hier.l2Dri = true;
        winner.hier.l2DriParams = sr.best.l2;
        CmpConfig cells = cmp;
        for (unsigned k = 0; k < cmp.cores; ++k)
            cells.coreConfigs[k].l1i = PolicyConfig{.dri = sr.best.l1[k]};
        EXPECT_EQ(sr.best.configHash,
                  runKeyCmp(winner, cells, "compress").hashHex());
        hashes.push_back(sr.best.configHash);
    }
    EXPECT_NE(hashes[0], hashes[1]);
}

/**
 * The image-cache hammer: three cores running three benchmarks no
 * other test in this binary touches, searched with a 4-worker pool
 * and a hand-built baseline so the *cells* are the first users of
 * the shared programImageFor() cache — several workers race through
 * the cold-build path and then hit the shared-lock read path on
 * every subsequent cell. Run under TSan via the `concurrency`
 * label.
 */
TEST(CmpSearchConcurrency, ImageCacheHammeredFromConcurrentCells)
{
    RunConfig cfg;
    cfg.maxInstrs = 30 * 1000;
    cfg.jobs = 4;
    CmpConfig cmp;
    cmp.cores = 3;
    CmpCoreConfig c0, c1, c2;
    c0.bench = "gcc";
    c1.bench = "hydro2d";
    c2.bench = "su2cor";
    cmp.coreConfigs = {c0, c1, c2};

    // Plausible hand-built baseline (the real one would warm the
    // image cache serially and defeat the point of the test).
    CmpRunOutput conv;
    conv.cores.resize(3);
    for (CmpCoreOutput &c : conv.cores) {
        c.meas.instructions = cfg.maxInstrs;
        c.meas.cycles = cfg.maxInstrs;
        c.meas.l1iAccesses = cfg.maxInstrs / 4;
        c.meas.l1iMisses = 200;
        c.l2Accesses = 500;
        c.l2Misses = 100;
    }
    conv.systemCycles = cfg.maxInstrs;
    conv.l2Accesses = 1500;
    conv.l2Misses = 300;
    conv.memAccesses = 300;
    conv.l2SizeBytes = 1024 * 1024;

    CmpSpace space;
    space.l1MissBoundFactors = {2.0, 32.0};
    space.l2SizeBounds = {64 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 10000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 10000;

    const CmpSearchResult sr = searchCmp(
        cfg, cmp, "gcc", l1Tmpl, l2Tmpl, space,
        EnergyConstants{}, -1.0, conv);

    // 2^3 factor combinations x 1 bound.
    ASSERT_EQ(sr.evaluated.size(), 8u);
    for (const CmpCandidate &cand : sr.evaluated)
        EXPECT_EQ(cand.out.cores.size(), 3u);
}

} // namespace
} // namespace drisim
