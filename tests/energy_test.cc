/**
 * @file
 * Energy-ledger tests: the Section 5.2 formulas, the Section 5.2.1
 * ratio checks, agreement between the published constants and the
 * circuit-derived ones, and pins of the four views the harness builds
 * (paper, policy, hierarchy, CMP). The pinned literals were printed
 * at %.17g from the four accounting families the ledger replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/hierarchy_energy.hh"
#include "energy/ledger.hh"
#include "harness/runner.hh"

namespace drisim
{
namespace
{

/** A conventional run's output: the whole 64K L1I active. */
RunOutput
conv(Cycles cycles = 1000000, std::uint64_t accesses = 1000000,
     std::uint64_t misses = 1000)
{
    RunOutput o;
    o.meas.cycles = cycles;
    o.meas.instructions = cycles;
    o.meas.l1iAccesses = accesses;
    o.meas.l1iMisses = misses;
    return o;
}

/** The paper view of @p run against @p base. */
Comparison
paper(const RunOutput &base, const RunOutput &run,
      const EnergyConstants &c = {})
{
    return compare(c, base.meas.cycles, paperView(base),
                   run.meas.cycles, paperView(run));
}

TEST(EnergyModel, ConventionalLeakage)
{
    const Ledger l = paper(conv(), conv()).baseline;
    // 0.91 nJ/cycle * 1M cycles.
    EXPECT_NEAR(l.rows[0].leakageNJ(), 0.91e6, 1.0);
    EXPECT_EQ(l.rows[0].dynamicNJ(), 0.0);
    EXPECT_EQ(l.rows[1].dynamicNJ(), 0.0);
}

TEST(EnergyModel, DriLeakageScalesWithActiveFraction)
{
    RunOutput dri = conv();
    dri.meas.avgActiveFraction = 0.25;
    EXPECT_NEAR(paper(conv(), dri).run.rows[0].leakageNJ(),
                0.25 * 0.91e6, 1.0);
}

TEST(EnergyModel, ExtraL1DynamicFollowsResizingBits)
{
    RunOutput dri = conv();
    dri.meas.resizingTagBits = 5;
    // 5 bits * 0.0022 nJ * 1M accesses.
    EXPECT_NEAR(paper(conv(), dri).run.rows[0].tagNJ,
                5 * 0.0022 * 1e6, 1.0);
}

TEST(EnergyModel, ExtraL2ChargesOnlyExtraMisses)
{
    RunOutput dri = conv();
    dri.meas.l1iMisses = 5000; // 4000 extra over the baseline's 1000
    EXPECT_NEAR(paper(conv(), dri).run.rows[1].trafficNJ, 3.6 * 4000,
                1e-6);

    // Fewer misses than conventional: clamped to zero.
    dri.meas.l1iMisses = 500;
    EXPECT_EQ(paper(conv(), dri).run.rows[1].trafficNJ, 0.0);
}

TEST(EnergyModel, Section521L1DynamicRatio)
{
    // Paper: with 5 resizing bits and a 50% active fraction, the
    // extra L1 dynamic energy is ~2.4% of the L1 leakage energy
    // (accesses ~ cycles).
    RunOutput dri = conv();
    dri.meas.resizingTagBits = 5;
    dri.meas.avgActiveFraction = 0.5;
    const Ledger::Row l1 = paper(conv(), dri).run.rows[0];
    EXPECT_NEAR(l1.tagNJ / l1.leakageNJ(), 0.024, 0.002);
}

TEST(EnergyModel, Section521L2DynamicRatio)
{
    // Paper: at a 1% absolute extra miss rate and 50% active
    // fraction, extra L2 dynamic is ~8% of L1 leakage.
    const RunOutput base = conv(1000000, 1000000, 0);
    RunOutput dri = base;
    dri.meas.avgActiveFraction = 0.5;
    dri.meas.l1iMisses = 10000; // 1% of accesses
    const Ledger l = paper(base, dri).run;
    EXPECT_NEAR(l.rows[1].trafficNJ / l.rows[0].leakageNJ(), 0.079,
                0.005);
}

TEST(EnergyModel, LeakageScalesWithCacheSize)
{
    const auto leakPerCycle = [](std::uint64_t bytes) {
        const LevelInput l{"l1i", LevelInput::Tier::L1, bytes};
        return ledger(EnergyConstants{}, 1, {l}, {l}).rows[0].activeNJ;
    };
    EXPECT_NEAR(leakPerCycle(128 * 1024), 1.82, 1e-9);
    EXPECT_NEAR(leakPerCycle(32 * 1024), 0.455, 1e-9);
}

TEST(EnergyModel, DerivedConstantsMatchPaper)
{
    const EnergyConstants published;
    const auto levels = circuit::defaultHierarchyCircuit();
    const EnergyConstants derived =
        EnergyConstants::derived(levels[0], levels[1]);
    EXPECT_NEAR(derived.l1LeakPerCycleNJ, published.l1LeakPerCycleNJ,
                0.02);
    EXPECT_NEAR(derived.l1BitlinePerAccessNJ,
                published.l1BitlinePerAccessNJ, 0.0003);
    EXPECT_NEAR(derived.l2PerAccessNJ, published.l2PerAccessNJ, 0.2);
}

TEST(Accounting, RelativeEnergyDelayOfIdenticalRunIsActiveFraction)
{
    // Same cycles/misses, full active fraction, no resizing bits:
    // the DRI run degenerates to the conventional cache.
    const Comparison r = paper(conv(), conv());
    EXPECT_NEAR(r.relativeEnergyDelay(), 1.0, 1e-9);
    EXPECT_NEAR(r.slowdownPercent(), 0.0, 1e-9);
}

TEST(Accounting, ComponentsSumToTotal)
{
    RunOutput dri = conv();
    dri.meas.avgActiveFraction = 0.3;
    dri.meas.resizingTagBits = 6;
    dri.meas.l1iMisses = 3000;
    dri.meas.cycles = 1050000;
    const Comparison r = paper(conv(), dri);
    EXPECT_NEAR(r.relativeEdLeakage() + r.relativeEdDynamic(),
                r.relativeEnergyDelay(), 1e-9);
}

TEST(Accounting, SlowdownSignsAreRight)
{
    RunOutput dri = conv();
    dri.meas.cycles = 1040000;
    const Comparison r = paper(conv(), dri);
    EXPECT_NEAR(r.slowdownPercent(), 4.0, 1e-6);
    EXPECT_TRUE(r.meetsSlowdown(4.0 + 1e-6));
    EXPECT_FALSE(r.meetsSlowdown(3.9));
    // A non-positive bound leaves the search unconstrained.
    EXPECT_TRUE(r.meetsSlowdown(0.0));
    EXPECT_TRUE(r.meetsSlowdown(-1.0));
}

TEST(Accounting, HeadlineShapeA62PercentReduction)
{
    // A representative Figure 3 bar: active fraction ~0.35, 6
    // resizing bits, small extra misses, 2% slowdown -> relative
    // energy-delay lands in the 0.3-0.45 band (a 55-70% reduction).
    const RunOutput base = conv();
    RunOutput dri = base;
    dri.meas.avgActiveFraction = 0.35;
    dri.meas.resizingTagBits = 6;
    dri.meas.l1iMisses = base.meas.l1iMisses + 2000;
    dri.meas.cycles = 1020000;
    const Comparison r = paper(base, dri);
    EXPECT_GT(r.relativeEnergyDelay(), 0.30);
    EXPECT_LT(r.relativeEnergyDelay(), 0.45);
}

TEST(Accounting, ZeroLengthBaselineGivesZeroRatios)
{
    // A baseline with no cycles has no energy-delay to normalize by:
    // every ratio reads 0 instead of dividing by zero.
    const Comparison r = paper(conv(0), conv());
    EXPECT_EQ(r.baseline.energyDelay(), 0.0);
    EXPECT_EQ(r.relativeEnergyDelay(), 0.0);
    EXPECT_EQ(r.relativeEdLeakage(), 0.0);
    EXPECT_EQ(r.relativeEdDynamic(), 0.0);
    EXPECT_EQ(r.slowdownPercent(), 0.0);
}

// ---------------------------------------------------------------
// Pins of the four views
// ---------------------------------------------------------------

struct PinnedRow
{
    const char *level;
    double leakageNJ;
    double dynamicNJ;
};

/** One comparison as the replaced accounting family reported it. */
struct Pinned
{
    std::vector<PinnedRow> rows;
    double leakageNJ;
    double dynamicNJ;
    double totalNJ;
    double baselineNJ;
    double relativeEnergyDelay;
    double relativeEdLeakage;
    double relativeEdDynamic;
    double slowdownPercent;
};

/**
 * Exact where the ledger sums the old terms in the old order (the
 * classic, multi-level and CMP-DRI views); within 4 ULP where the
 * replaced family summed them otherwise (the policy views: the
 * single-core family added the L2 traffic inside the dynamic term,
 * the CMP one folded the residuals into one leakage product).
 */
void
expectPinned(const Comparison &c, const Pinned &want, bool exact)
{
    const auto eq = [exact](double got, double pinned) {
        if (exact)
            EXPECT_EQ(got, pinned);
        else
            EXPECT_DOUBLE_EQ(got, pinned);
    };
    ASSERT_EQ(c.run.rows.size(), want.rows.size());
    for (std::size_t i = 0; i < want.rows.size(); ++i) {
        SCOPED_TRACE(want.rows[i].level);
        EXPECT_EQ(c.run.rows[i].level, want.rows[i].level);
        eq(c.run.rows[i].leakageNJ(), want.rows[i].leakageNJ);
        eq(c.run.rows[i].dynamicNJ(), want.rows[i].dynamicNJ);
    }
    eq(c.run.leakageNJ(), want.leakageNJ);
    eq(c.run.dynamicNJ(), want.dynamicNJ);
    eq(c.run.totalNJ(), want.totalNJ);
    eq(c.baseline.totalNJ(), want.baselineNJ);
    eq(c.relativeEnergyDelay(), want.relativeEnergyDelay);
    eq(c.relativeEdLeakage(), want.relativeEdLeakage);
    eq(c.relativeEdDynamic(), want.relativeEdDynamic);
    eq(c.slowdownPercent(), want.slowdownPercent);
}

TEST(LedgerPins, ClassicDriPair)
{
    RunOutput base = conv();
    base.meas.instructions = 900000;
    RunOutput dri = base;
    dri.meas.cycles = 1012345;
    dri.meas.l1iAccesses = 1003000;
    dri.meas.l1iMisses = 4321;
    dri.meas.avgActiveFraction = 0.3711;
    dri.meas.resizingTagBits = 6;
    expectPinned(paper(base, dri),
                 {{{"l1i", 341869.91884499998, 13239.6},
                   {"l2", 0, 11955.6}},
                  341869.91884499998,
                  25195.200000000001,
                  367065.11884499993,
                  910000,
                  0.40834784366718846,
                  0.38031901427817744,
                  0.028028829389010988,
                  1.234500000000005},
                 true);
}

/** The state split of the L1I row and the L2 traffic, as the
 *  policy family's rows() listed them. */
struct PinnedSplit
{
    double active, gated, drowsy, wake, tag, l2;
};

TEST(LedgerPins, PolicyPairs)
{
    RunOutput base = conv(1000000, 800000, 5000);
    struct Case
    {
        const char *label;
        double active, drowsy;
        std::uint64_t wakes;
        unsigned tagBits;
        std::uint64_t misses;
        Cycles cycles;
        std::uint64_t accesses;
        PinnedSplit split;
        Pinned pinned;
    };
    const Case cases[] = {
        {"drowsy", 0.2813, 0.7187, 43210, 0, 6100, 1023456, 801000,
         {261987.33724800003, 0, 103750.43152656, 19.444499999999998,
          0, 3960},
         {{{"l1i", 365737.76877456001, 19.444499999999998},
           {"l2", 0, 3960}},
          365737.76877456001, 3979.4445000000001, 369717.21327456,
          910000, 0.41581241783420664, 0.41133682843839131,
          0.0044755893958153842, 2.3455999999999921}},
        {"decay", 0.4321, 0.0, 0, 0, 7777, 1031000, 800500,
         {405400.54099999997, 15984.28377, 0, 0, 0,
          9997.2000000000007},
         {{{"l1i", 421384.82476999995, 0},
           {"l2", 0, 9997.2000000000007}},
          421384.82476999995, 9997.2000000000007, 431382.02476999996,
          910000, 0.48874161267897798, 0.47741511465699993,
          0.011326498021978023, 3.0999999999999917}},
        {"ways", 0.5, 0.0, 0, 0, 9000, 1015000, 800000,
         {461825, 13854.75, 0, 0, 0, 14400},
         {{{"l1i", 475679.75, 0}, {"l2", 0, 14400}},
          475679.75, 14400, 490079.75, 910000, 0.54662741346153843,
          0.53056587499999996, 0.01606153846153846,
          1.4999999999999902}},
        {"dri-residual", 0.35, 0.0, 0, 5, 8000, 1009000, 800700,
         {321366.5, 17904.705000000002, 0, 0, 8807.7000000000007,
          10800},
         {{{"l1i", 339271.20500000002, 8807.7000000000007},
           {"l2", 0, 10800}},
          339271.20500000002, 19607.700000000001, 358878.90500000003,
          910000, 0.39792177488461539, 0.37618092949999998,
          0.021740845384615383, 0.8999999999999897}},
    };
    for (const Case &k : cases) {
        SCOPED_TRACE(k.label);
        RunOutput run = base;
        run.meas.cycles = k.cycles;
        run.meas.l1iAccesses = k.accesses;
        run.meas.l1iMisses = k.misses;
        run.meas.avgActiveFraction = k.active;
        run.meas.resizingTagBits = k.tagBits;
        run.l1DrowsyFraction = k.drowsy;
        run.wakeTransitions = k.wakes;
        // What run() reports for a PolicyConfig L1I.
        run.l1GatedFraction = std::max(0.0, 1.0 - k.active - k.drowsy);
        const Comparison c = paper(base, run);
        expectPinned(c, k.pinned, false);
        const Ledger::Row &l1 = c.run.rows[0];
        EXPECT_DOUBLE_EQ(l1.activeNJ, k.split.active);
        EXPECT_DOUBLE_EQ(l1.gatedNJ, k.split.gated);
        EXPECT_DOUBLE_EQ(l1.drowsyNJ, k.split.drowsy);
        EXPECT_DOUBLE_EQ(l1.wakeNJ, k.split.wake);
        EXPECT_DOUBLE_EQ(l1.tagNJ, k.split.tag);
        EXPECT_DOUBLE_EQ(c.run.rows[1].trafficNJ, k.split.l2);
    }
}

TEST(LedgerPins, MultiLevelPairWithDriL2)
{
    RunOutput base = conv(1000000, 800000, 5000);
    base.l2SizeBytes = 1024 * 1024;
    base.l2Accesses = 9000;
    base.l2Misses = 700;
    base.memAccesses = 700;
    RunOutput dri = base;
    dri.meas.cycles = 1020000;
    dri.meas.l1iAccesses = 801234;
    dri.meas.l1iMisses = 9000;
    dri.meas.avgActiveFraction = 0.4;
    dri.meas.resizingTagBits = 6;
    dri.l2Accesses = 13000;
    dri.l2AvgActiveFraction = 0.5;
    dri.l2ResizingTagBits = 4;
    dri.memAccesses = 1500;
    expectPinned(compare(EnergyConstants{}, base.meas.cycles,
                         hierarchyView(base), dri.meas.cycles,
                         hierarchyView(dri)),
                 {{{"l1i", 371280.00000000006, 10576.2888},
                   {"l2", 7425600, 14493.6},
                   {"mem", 0, 25600}},
                  7796880,
                  50669.888800000001,
                  7847549.8887999998,
                  15470000,
                  0.51742087178901097,
                  0.51407999999999998,
                  0.003340871789010989,
                  2.0000000000000018},
                 true);
}

/** The conventional two-core CMP both CMP pins pair against. */
CmpRunOutput
convCmp()
{
    CmpRunOutput o;
    o.systemCycles = 1000000;
    o.cores.resize(2);
    o.cores[0].meas.l1iAccesses = 500000;
    o.cores[0].meas.l1iMisses = 3000;
    o.cores[1].meas.l1iAccesses = 400000;
    o.cores[1].meas.l1iMisses = 2500;
    o.l2SizeBytes = 1024 * 1024;
    o.l2Accesses = 20000;
    o.l2Misses = 2000;
    o.memAccesses = 2000;
    return o;
}

Comparison
cmpComparison(const CmpRunOutput &base, const CmpRunOutput &run)
{
    return compare(EnergyConstants{}, base.systemCycles, cmpView(base),
                   run.systemCycles, cmpView(run));
}

TEST(LedgerPins, CmpPairWithTwoDriCores)
{
    const CmpRunOutput base = convCmp();
    CmpRunOutput dri = base;
    dri.systemCycles = 1010000;
    dri.cores[0].meas.l1iAccesses = 500100;
    dri.cores[0].meas.avgActiveFraction = 0.4;
    dri.cores[0].meas.resizingTagBits = 4;
    dri.cores[1].meas.avgActiveFraction = 0.7;
    dri.cores[1].meas.resizingTagBits = 2;
    dri.l2AvgActiveFraction = 0.5;
    dri.l2ResizingTagBits = 4;
    dri.l2Accesses = 25000;
    dri.memAccesses = 2600;
    expectPinned(cmpComparison(base, dri),
                 {{{"l1i[0]", 367640.00000000006, 4400.8800000000001},
                   {"l1i[1]", 643370, 1760},
                   {"l2", 7352800, 18180},
                   {"mem", 0, 19200}},
                  8363810,
                  43540.880000000005,
                  8407350.879999999,
                  16380000,
                  0.51840197733821725,
                  0.51571722222222227,
                  0.0026847551159951163,
                  1.0000000000000009},
                 true);
}

TEST(LedgerPins, CmpPairWithDrowsyDecayCoresAndProbes)
{
    CmpRunOutput base = convCmp();
    CmpRunOutput pol = base;
    base.coherenceInvalidations = 1000;
    base.coherenceDowngrades = 500;
    pol.systemCycles = 1034000;
    pol.coherenceInvalidations = 1234;
    pol.coherenceDowngrades = 567;
    pol.cores[0].meas.avgActiveFraction = 0.3;
    pol.cores[0].l1DrowsyFraction = 0.65;
    pol.cores[0].l1GatedFraction = 0.05;
    pol.cores[0].wakeTransitions = 5000;
    pol.cores[0].meas.l1iMisses = 3100;
    pol.cores[1].meas.avgActiveFraction = 0.45;
    pol.cores[1].l1GatedFraction = 0.55;
    pol.cores[1].meas.l1iMisses = 4100;
    pol.l2Accesses = 22100;
    pol.memAccesses = 2300;
    expectPinned(cmpComparison(base, pol),
                 {{{"l1i[0]", 378493.11500000005, 2.25},
                   {"l1i[1]", 438948.51000000001, 0},
                   {"l2", 15055040, 14043.6},
                   {"mem", 0, 9600}},
                  15872481.625,
                  23645.849999999999,
                  15896127.475,
                  16385400,
                  1.0031244772266774,
                  1.0016323068249784,
                  0.0014921704016990737,
                  3.400000000000003},
                 false);
}

} // namespace
} // namespace drisim
