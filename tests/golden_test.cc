/**
 * @file
 * Golden-value regression tests for the paper-reproduction path and
 * the multi-level DRI scenario.
 *
 * These tests lock in the searchBestEnergyDelay winner, the
 * searchMultiLevel winner, and the rendered table rows for two
 * small benchmarks at a fixed run length and grid. Everything in
 * the pipeline is deterministic — the workload generator is seeded
 * from the spec and per-job seeds derive from job keys — so exact
 * integer counts and formatted strings are stable; floating-point
 * golds allow a 1e-9 slack only for cross-toolchain drift. The
 * multi-level suite additionally asserts byte-identical results at
 * --jobs 1 and --jobs 4 and that the per-level energy rows sum to
 * the reported hierarchy total.
 *
 * If a change legitimately alters these numbers (e.g. a model fix),
 * re-baseline deliberately with tools/rebaseline.sh — which
 * regenerates the marked expectation block below from the same run
 * definitions (tests/golden_config.hh) — and say so in the PR.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "golden_config.hh"

namespace drisim
{
namespace golden
{

// gtest lists each case as "<name>  # GetParam() = <printed param>".
// Without this overload it prints GoldenCase's raw bytes, whose first
// field is a string pointer that moves with address-space
// randomisation, so the listed test name changed from run to run.
void
PrintTo(const GoldenCase &gold, std::ostream *os)
{
    *os << gold.benchmark;
}

void
PrintTo(const CoreCounterGoldenCase &gold, std::ostream *os)
{
    *os << gold.benchmark << "/" << gold.l1iAssoc << "-way";
}

void
PrintTo(const MultiLevelGoldenCase &gold, std::ostream *os)
{
    *os << gold.benchmark;
}

void
PrintTo(const CmpGoldenCase &gold, std::ostream *os)
{
    *os << gold.mix;
}

void
PrintTo(const CoherentCmpGoldenCase &gold, std::ostream *os)
{
    *os << gold.mix;
}

void
PrintTo(const PolicyGoldenCase &gold, std::ostream *os)
{
    *os << gold.benchmark;
}

} // namespace golden

namespace
{

using golden::CmpGoldenCase;
using golden::CoherentCmpGoldenCase;
using golden::CoreCounterGoldenCase;
using golden::GoldenCase;
using golden::MultiLevelGoldenCase;
using golden::PolicyGoldenCase;

class GoldenSearch : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenSearch, WinnerAndRowMatchGolden)
{
    const GoldenCase &gold = GetParam();
    const SearchResult sr = golden::runGoldenSearch(gold.benchmark);

    ASSERT_EQ(sr.evaluated.size(), 6u);
    EXPECT_EQ(sr.best.dri.sizeBoundBytes, gold.sizeBoundBytes);
    EXPECT_EQ(sr.best.dri.missBound, gold.missBound);
    EXPECT_EQ(sr.best.feasible, gold.feasible);

    EXPECT_NEAR(sr.best.cmp.relativeEnergyDelay(),
                gold.relativeEnergyDelay, 1e-9);
    EXPECT_NEAR(sr.best.cmp.slowdownPercent(), gold.slowdownPercent,
                1e-9);
    EXPECT_NEAR(sr.best.out.meas.avgActiveFraction,
                gold.averageSizeFraction, 1e-9);

    EXPECT_EQ(sr.convDetailed.meas.cycles, gold.convCycles);
    EXPECT_EQ(sr.convDetailed.meas.l1iMisses, gold.convMisses);

    EXPECT_EQ(golden::renderGoldenRow(gold.benchmark, sr), gold.row);
}

class MultiLevelGolden
    : public ::testing::TestWithParam<MultiLevelGoldenCase>
{
};

TEST_P(MultiLevelGolden, WinnerRowAndJobsInvarianceMatchGolden)
{
    const MultiLevelGoldenCase &gold = GetParam();
    const MultiLevelSearchResult sr =
        golden::runGoldenMultiSearch(gold.benchmark, 1);

    ASSERT_EQ(sr.evaluated.size(), 6u);
    EXPECT_EQ(sr.best.l1.sizeBoundBytes, gold.l1SizeBound);
    EXPECT_EQ(sr.best.l1.missBound, gold.l1MissBound);
    EXPECT_EQ(sr.best.l2.sizeBoundBytes, gold.l2SizeBound);
    EXPECT_EQ(sr.best.l2.missBound, gold.l2MissBound);
    EXPECT_EQ(sr.best.feasible, gold.feasible);

    EXPECT_NEAR(sr.best.cmp.relativeEnergyDelay(),
                gold.relativeEnergyDelay, 1e-9);
    EXPECT_NEAR(sr.best.cmp.slowdownPercent(), gold.slowdownPercent,
                1e-9);
    EXPECT_NEAR(sr.best.out.meas.avgActiveFraction, gold.l1AvgSize,
                1e-9);
    EXPECT_NEAR(sr.best.out.l2AvgActiveFraction, gold.l2AvgSize,
                1e-9);

    EXPECT_EQ(sr.convDetailed.meas.cycles, gold.convCycles);
    EXPECT_EQ(sr.convDetailed.l2Misses, gold.convL2Misses);

    EXPECT_EQ(golden::renderMultiLevelGoldenRow(gold.benchmark, sr),
              gold.row);

    // Per-level rows must sum to the reported hierarchy totals —
    // exactly, since the totals are defined as the row sums.
    const Ledger &h = sr.best.cmp.run;
    double leak = 0.0, dyn = 0.0, total = 0.0;
    for (const Ledger::Row &l : h.rows) {
        leak += l.leakageNJ();
        dyn += l.dynamicNJ();
        total += l.totalNJ();
    }
    EXPECT_EQ(leak, h.leakageNJ());
    EXPECT_EQ(dyn, h.dynamicNJ());
    EXPECT_EQ(total, h.totalNJ());
    EXPECT_EQ(h.rows.size(), 3u); // l1i, l2, mem

    // The determinism contract: a 4-worker pool must produce a
    // byte-identical SearchResult (and hence identical rendered
    // rows) to the serial walk above.
    const MultiLevelSearchResult sr4 =
        golden::runGoldenMultiSearch(gold.benchmark, 4);
    EXPECT_EQ(golden::serializeMultiLevelResult(sr),
              golden::serializeMultiLevelResult(sr4));
    EXPECT_EQ(golden::renderMultiLevelGoldenRow(gold.benchmark, sr4),
              gold.row);
}

class CmpGolden : public ::testing::TestWithParam<CmpGoldenCase>
{
};

TEST_P(CmpGolden, WinnerRowAndJobsInvarianceMatchGolden)
{
    const CmpGoldenCase &gold = GetParam();
    const CmpSearchResult sr = golden::runGoldenCmpSearch(1);

    // 2 L2 bounds x 2^2 per-core factor combinations.
    ASSERT_EQ(sr.evaluated.size(), 8u);
    ASSERT_EQ(sr.best.l1.size(), 2u);
    EXPECT_EQ(sr.best.l1[0].missBound, gold.l1MissBound0);
    EXPECT_EQ(sr.best.l1[1].missBound, gold.l1MissBound1);
    EXPECT_EQ(sr.best.l2.sizeBoundBytes, gold.l2SizeBound);
    EXPECT_EQ(sr.best.l2.missBound, gold.l2MissBound);
    EXPECT_EQ(sr.best.feasible, gold.feasible);

    EXPECT_NEAR(sr.best.cmp.relativeEnergyDelay(),
                gold.relativeEnergyDelay, 1e-9);
    EXPECT_NEAR(sr.best.cmp.slowdownPercent(), gold.slowdownPercent,
                1e-9);
    EXPECT_NEAR(sr.best.out.cores[0].meas.avgActiveFraction,
                gold.l1AvgSize0, 1e-9);
    EXPECT_NEAR(sr.best.out.cores[1].meas.avgActiveFraction,
                gold.l1AvgSize1, 1e-9);
    EXPECT_NEAR(sr.best.out.l2AvgActiveFraction, gold.l2AvgSize,
                1e-9);

    EXPECT_EQ(sr.convDetailed.systemCycles, gold.convSystemCycles);
    EXPECT_EQ(sr.convDetailed.l2Misses, gold.convL2Misses);
    EXPECT_EQ(sr.convDetailed.l2ContentionEvents,
              gold.convContentionEvents);

    EXPECT_EQ(golden::renderCmpGoldenRow(sr), gold.row);

    // Per-level rows — one l1i[k] per core plus shared l2/mem —
    // must sum to the reported system totals exactly.
    const Ledger &h = sr.best.cmp.run;
    double leak = 0.0, dyn = 0.0, total = 0.0;
    for (const Ledger::Row &l : h.rows) {
        leak += l.leakageNJ();
        dyn += l.dynamicNJ();
        total += l.totalNJ();
    }
    EXPECT_EQ(leak, h.leakageNJ());
    EXPECT_EQ(dyn, h.dynamicNJ());
    EXPECT_EQ(total, h.totalNJ());
    ASSERT_EQ(h.rows.size(), 4u); // l1i[0], l1i[1], l2, mem
    EXPECT_EQ(h.rows[0].level, "l1i[0]");
    EXPECT_EQ(h.rows[1].level, "l1i[1]");
    EXPECT_EQ(h.rows[2].level, "l2");
    EXPECT_EQ(h.rows[3].level, "mem");

    // The determinism contract: a 4-worker pool must produce a
    // byte-identical CmpSearchResult (and hence identical rendered
    // rows) to the serial walk above.
    const CmpSearchResult sr4 = golden::runGoldenCmpSearch(4);
    EXPECT_EQ(golden::serializeCmpResult(sr),
              golden::serializeCmpResult(sr4));
    EXPECT_EQ(golden::renderCmpGoldenRow(sr4), gold.row);
}

class CoherentCmpGolden
    : public ::testing::TestWithParam<CoherentCmpGoldenCase>
{
};

TEST_P(CoherentCmpGolden, AttributionEnergyAndReplayMatchGolden)
{
    const CoherentCmpGoldenCase &gold = GetParam();
    const golden::CoherentCmpGoldenRun run =
        golden::runGoldenCoherentCmp();
    const CmpRunOutput &pol = run.pol;
    ASSERT_EQ(pol.cores.size(), 2u);
    const CmpCoreOutput &c0 = pol.cores[0];
    const CmpCoreOutput &c1 = pol.cores[1];

    // Pinned system view of the leakage-managed coherent run.
    EXPECT_EQ(pol.systemCycles, gold.systemCycles);
    EXPECT_EQ(pol.coherenceInvalidations, gold.invalidations);
    EXPECT_EQ(pol.coherenceDowngrades, gold.downgrades);
    EXPECT_EQ(pol.coherenceWritebacks, gold.writebacks);
    EXPECT_EQ(pol.coherenceMsgCycles, gold.msgCycles);
    EXPECT_EQ(pol.directoryEvictions, gold.directoryEvictions);

    // Per-core attribution: pinned, nonzero on both cores, and a
    // partition of the system totals.
    EXPECT_EQ(c0.coherenceInvalidationsReceived, gold.invalRecv0);
    EXPECT_EQ(c1.coherenceInvalidationsReceived, gold.invalRecv1);
    EXPECT_GT(gold.invalRecv0, 0u);
    EXPECT_GT(gold.invalRecv1, 0u);
    EXPECT_EQ(c0.coherenceInvalidationsReceived +
                  c1.coherenceInvalidationsReceived,
              pol.coherenceInvalidations);
    EXPECT_EQ(c0.coherenceInvalidationsCaused +
                  c1.coherenceInvalidationsCaused,
              pol.coherenceInvalidations);
    EXPECT_EQ(c0.coherenceMsgCycles + c1.coherenceMsgCycles,
              pol.coherenceMsgCycles);

    // Policy-visible effects: the drowsy core 0 reports
    // invalidation-induced wakes and refetches; the decay core 1
    // refetches but has no wakeable state.
    EXPECT_EQ(c0.coherenceWakes, gold.wakes0);
    EXPECT_EQ(c0.coherenceRefetches, gold.refetches0);
    EXPECT_EQ(c1.coherenceRefetches, gold.refetches1);
    EXPECT_GT(gold.wakes0, 0u);
    EXPECT_GT(gold.refetches0, 0u);
    EXPECT_GT(gold.refetches1, 0u);
    EXPECT_EQ(c1.coherenceWakes, 0u);

    // Energy plumbing: every probe (invalidation or downgrade) is
    // one L2-tier access charged on the shared l2 row — silencing
    // the probes must remove exactly that much dynamic nJ.
    const EnergyConstants constants;
    const std::vector<LevelInput> conv_v = cmpView(run.conv);
    const std::vector<LevelInput> pol_v = cmpView(pol);
    ASSERT_EQ(pol_v.size(), 4u); // l1i[0], l1i[1], l2, mem
    EXPECT_EQ(pol_v[2].probes,
              pol.coherenceInvalidations + pol.coherenceDowngrades);
    std::vector<LevelInput> quiet_v = pol_v;
    quiet_v[2].probes = 0;
    const Ledger loud =
        ledger(constants, pol.systemCycles, pol_v, conv_v);
    const Ledger quiet =
        ledger(constants, pol.systemCycles, quiet_v, conv_v);
    ASSERT_EQ(loud.rows.size(), 4u);
    EXPECT_EQ(loud.rows[2].level, "l2");
    EXPECT_NEAR(loud.rows[2].dynamicNJ() - quiet.rows[2].dynamicNJ(),
                constants.l2PerAccessNJ *
                    static_cast<double>(pol_v[2].probes),
                1e-9);

    // Winner comparison and the rendered bench_cmp --coherent row.
    const Comparison cc = compare(constants, run.conv.systemCycles,
                                  conv_v, pol.systemCycles, pol_v);
    EXPECT_NEAR(cc.relativeEnergyDelay(), gold.relativeEnergyDelay,
                1e-9);
    EXPECT_EQ(golden::renderCoherentCmpGoldenRow(run), gold.row);

    // The determinism contract: coherent runs racing on four
    // threads must each be byte-identical to the serial run (the
    // TSan leg executes this test via the concurrency label).
    const std::string serial = golden::serializeCoherentCmp(run);
    std::vector<std::string> replays(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < replays.size(); ++t)
        threads.emplace_back([&replays, t] {
            replays[t] = golden::serializeCoherentCmp(
                golden::runGoldenCoherentCmp());
        });
    for (std::thread &th : threads)
        th.join();
    for (const std::string &s : replays)
        EXPECT_EQ(s, serial);
}

class PolicyGolden
    : public ::testing::TestWithParam<PolicyGoldenCase>
{
};

TEST_P(PolicyGolden, PerPolicyRowsAndJobsInvarianceMatchGolden)
{
    const PolicyGoldenCase &gold = GetParam();
    const PolicySearchResult sr =
        golden::runGoldenPolicySearch(gold.benchmark, 1);

    // One cell per policy kind in the golden space.
    ASSERT_EQ(sr.evaluated.size(), 4u);
    ASSERT_EQ(sr.bestPerKind.size(), 4u);

    EXPECT_NEAR(sr.bestPerKind[0].cmp.relativeEnergyDelay(),
                gold.driEd, 1e-9);
    EXPECT_NEAR(sr.bestPerKind[1].cmp.relativeEnergyDelay(),
                gold.decayEd, 1e-9);
    EXPECT_NEAR(sr.bestPerKind[2].cmp.relativeEnergyDelay(),
                gold.drowsyEd, 1e-9);
    EXPECT_NEAR(sr.bestPerKind[3].cmp.relativeEnergyDelay(),
                gold.waysEd, 1e-9);

    EXPECT_EQ(sr.convDetailed.meas.cycles, gold.convCycles);
    EXPECT_EQ(sr.convDetailed.meas.l1iMisses, gold.convMisses);

    EXPECT_EQ(golden::renderPolicyGoldenRow(gold.benchmark, sr, 0),
              gold.driRow);
    EXPECT_EQ(golden::renderPolicyGoldenRow(gold.benchmark, sr, 1),
              gold.decayRow);
    EXPECT_EQ(golden::renderPolicyGoldenRow(gold.benchmark, sr, 2),
              gold.drowsyRow);
    EXPECT_EQ(golden::renderPolicyGoldenRow(gold.benchmark, sr, 3),
              gold.waysRow);

    // The head-to-head is meaningful: four techniques, four
    // distinct energy-delay values.
    const double eds[4] = {gold.driEd, gold.decayEd,
                           gold.drowsyEd, gold.waysEd};
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j)
            EXPECT_NE(eds[i], eds[j]);

    // The determinism contract: a 4-worker pool must produce a
    // byte-identical PolicySearchResult to the serial walk.
    const PolicySearchResult sr4 =
        golden::runGoldenPolicySearch(gold.benchmark, 4);
    EXPECT_EQ(golden::serializePolicyResult(sr),
              golden::serializePolicyResult(sr4));
}

class CoreCounterGolden
    : public ::testing::TestWithParam<CoreCounterGoldenCase>
{
};

TEST_P(CoreCounterGolden, DetailedCoreCountersMatchGolden)
{
    const CoreCounterGoldenCase &gold = GetParam();
    const CoreCounterGoldenCase got =
        golden::runGoldenCoreCounters(gold.benchmark, gold.l1iAssoc);

    EXPECT_EQ(got.cycles, gold.cycles);
    EXPECT_EQ(got.committed, gold.committed);
    EXPECT_EQ(got.mispredicts, gold.mispredicts);
    EXPECT_EQ(got.loadForwards, gold.loadForwards);
    EXPECT_EQ(got.robFullStalls, gold.robFullStalls);
    EXPECT_EQ(got.icacheStallCycles, gold.icacheStallCycles);
    EXPECT_EQ(got.branchStallCycles, gold.branchStallCycles);
}

// GOLDEN-BASELINE-BEGIN (tools/rebaseline.sh regenerates this block)
INSTANTIATE_TEST_SUITE_P(
    PaperPath, GoldenSearch,
    ::testing::Values(
        GoldenCase{"compress", 4096, 2312, true,
                   0.304218293145288, 0, 0.301705092747997,
                   274076, 578,
                   "compress,4K,2312,0.304,0.302,0.00%"},
        GoldenCase{"li", 4096, 2236, true,
                   0.389214444022277, 0, 0.385553343060236,
                   192593, 559,
                   "li,4K,2236,0.389,0.386,0.00%"}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.benchmark);
    });

INSTANTIATE_TEST_SUITE_P(
    MultiLevelPath, MultiLevelGolden,
    ::testing::Values(
        MultiLevelGoldenCase{"compress", 4096, 2312, 1048576, 4902, true,
                             0.959071664302664, 0,
                             0.301705092747997, 1,
                             274076, 4902,
                             "compress,4K,2312,1M,4902,0.959,0.302,1.000,0.00%"},
        MultiLevelGoldenCase{"li", 4096, 2236, 65536, 1820, true,
                             0.394640799074606, 1.12205531872913,
                             0.381968727214845, 0.381968727214845,
                             192593, 1820,
                             "li,4K,2236,64K,1820,0.395,0.382,0.382,1.12%"}),
    [](const ::testing::TestParamInfo<MultiLevelGoldenCase> &info) {
        return std::string(info.param.benchmark);
    });

INSTANTIATE_TEST_SUITE_P(
    CmpPath, CmpGolden,
    ::testing::Values(
        CmpGoldenCase{"compress+li", 192, 2981, 1048576, 3220, true,
                      0.933663763499536, 0.00347335287094186,
                      0.463711506818389, 0.332395991260144, 1,
                      230325, 4831, 126,
                      "compress+li,192/2981,1M,3220,0.934,0.464/0.332,1.000,0.00%"}),
    [](const ::testing::TestParamInfo<CmpGoldenCase> &) {
        return std::string("compress_li");
    });

INSTANTIATE_TEST_SUITE_P(
    CoherentCmpPath, CoherentCmpGolden,
    ::testing::Values(
        CoherentCmpGoldenCase{"shared_image+shared_image", 206322,
                              44124, 113, 18860, 133755, 43914,
                              22190, 21934,
                              95, 2315, 2317,
                              0.981542905589987,
                              "shared_image+shared_image,206322,44124,113,18860,133755,43914,95,4632,0.982"}),
    [](const ::testing::TestParamInfo<CoherentCmpGoldenCase> &) {
        return std::string("shared_image_x2");
    });

INSTANTIATE_TEST_SUITE_P(
    PolicyPath, PolicyGolden,
    ::testing::Values(
        PolicyGoldenCase{"compress",
                         0.340439575230682, 0.467471394248217,
                         0.344640583316577, 0.2725,
                         274076, 578,
                         "compress,dri,sb=4K/mb=2312,0.340,0.302,0.000,0,1.53%",
                         "compress,decay,interval=50000/limit=3,0.467,0.451,0.000,92,0.00%",
                         "compress,drowsy,interval=50000/wake=1,0.345,0.223,0.777,1363,0.22%",
                         "compress,ways,active=1/4,0.272,0.250,0.000,0,0.00%"},
        PolicyGoldenCase{"li",
                         0.422037355938535, 0.572133137007289,
                         0.390865524325395, 0.2725,
                         192593, 559,
                         "li,dri,sb=4K/mb=2236,0.422,0.383,0.000,0,1.45%",
                         "li,decay,interval=50000/limit=3,0.572,0.559,0.000,69,0.00%",
                         "li,drowsy,interval=50000/wake=1,0.391,0.277,0.723,1202,0.28%",
                         "li,ways,active=1/4,0.273,0.250,0.000,0,0.00%"}),
    [](const ::testing::TestParamInfo<PolicyGoldenCase> &info) {
        return std::string(info.param.benchmark);
    });

INSTANTIATE_TEST_SUITE_P(
    CorePath, CoreCounterGolden,
    ::testing::Values(
        CoreCounterGoldenCase{"applu", 1, 117550, 200000,
                              2202, 33, 4220, 51032, 31024},
        CoreCounterGoldenCase{"compress", 1, 161200, 200000,
                              1973, 51, 17734, 39864, 62759},
        CoreCounterGoldenCase{"li", 1, 134691, 200000,
                              1914, 28, 14561, 38516, 42877},
        CoreCounterGoldenCase{"mgrid", 1, 150229, 200000,
                              1980, 35, 18850, 45764, 37950},
        CoreCounterGoldenCase{"swim", 1, 155644, 200000,
                              2074, 15, 15792, 48140, 48296},
        CoreCounterGoldenCase{"apsi", 1, 232468, 200000,
                              2510, 1, 30116, 41756, 92407},
        CoreCounterGoldenCase{"fpppp", 1, 256447, 200000,
                              1586, 4, 27293, 132068, 45228},
        CoreCounterGoldenCase{"go", 1, 227831, 200000,
                              3561, 3, 13567, 87108, 92534},
        CoreCounterGoldenCase{"m88ksim", 1, 173468, 200000,
                              2569, 8, 16087, 49928, 74193},
        CoreCounterGoldenCase{"perl", 1, 225406, 200000,
                              2967, 1, 18841, 69168, 98438},
        CoreCounterGoldenCase{"gcc", 1, 154802, 200000,
                              2905, 55, 6322, 72228, 47760},
        CoreCounterGoldenCase{"hydro2d", 1, 171145, 200000,
                              2488, 35, 5310, 100624, 33350},
        CoreCounterGoldenCase{"ijpeg", 1, 143910, 200000,
                              2423, 41, 7578, 68428, 38887},
        CoreCounterGoldenCase{"su2cor", 1, 151038, 200000,
                              2551, 53, 9600, 71060, 41423},
        CoreCounterGoldenCase{"tomcatv", 1, 158356, 200000,
                              2630, 18, 8729, 78932, 40864},
        CoreCounterGoldenCase{"shared_image", 1, 134522, 200000,
                              1565, 8, 24848, 16680, 53509},
        CoreCounterGoldenCase{"producer", 1, 99670, 200000,
                              1864, 8, 15692, 12588, 43172},
        CoreCounterGoldenCase{"consumer", 1, 96214, 200000,
                              2182, 2, 7019, 12736, 44465},
        CoreCounterGoldenCase{"applu", 4, 117550, 200000,
                              2202, 33, 4220, 51032, 31024},
        CoreCounterGoldenCase{"compress", 4, 161200, 200000,
                              1973, 51, 17734, 39864, 62759},
        CoreCounterGoldenCase{"li", 4, 134691, 200000,
                              1914, 28, 14561, 38516, 42877},
        CoreCounterGoldenCase{"mgrid", 4, 150229, 200000,
                              1980, 35, 18850, 45764, 37950},
        CoreCounterGoldenCase{"swim", 4, 155416, 200000,
                              2074, 15, 15742, 47768, 48419},
        CoreCounterGoldenCase{"apsi", 4, 232468, 200000,
                              2510, 1, 30116, 41756, 92407},
        CoreCounterGoldenCase{"fpppp", 4, 256447, 200000,
                              1586, 4, 27293, 132068, 45228},
        CoreCounterGoldenCase{"go", 4, 227496, 200000,
                              3561, 3, 13567, 86772, 92558},
        CoreCounterGoldenCase{"m88ksim", 4, 173468, 200000,
                              2569, 8, 16087, 49928, 74193},
        CoreCounterGoldenCase{"perl", 4, 225406, 200000,
                              2967, 1, 18841, 69168, 98438},
        CoreCounterGoldenCase{"gcc", 4, 154271, 200000,
                              2905, 55, 6323, 71700, 47793},
        CoreCounterGoldenCase{"hydro2d", 4, 171145, 200000,
                              2488, 35, 5310, 100624, 33350},
        CoreCounterGoldenCase{"ijpeg", 4, 143910, 200000,
                              2423, 41, 7578, 68428, 38887},
        CoreCounterGoldenCase{"su2cor", 4, 147458, 200000,
                              2551, 54, 9634, 67460, 41677},
        CoreCounterGoldenCase{"tomcatv", 4, 156246, 200000,
                              2630, 19, 8748, 76784, 41031},
        CoreCounterGoldenCase{"shared_image", 4, 134522, 200000,
                              1565, 8, 24848, 16680, 53509},
        CoreCounterGoldenCase{"producer", 4, 99670, 200000,
                              1864, 8, 15692, 12588, 43172},
        CoreCounterGoldenCase{"consumer", 4, 96214, 200000,
                              2182, 2, 7019, 12736, 44465}),
    [](const ::testing::TestParamInfo<CoreCounterGoldenCase> &info) {
        return std::string(info.param.benchmark) + "_" +
               std::to_string(info.param.l1iAssoc) + "way";
    });
// GOLDEN-BASELINE-END

} // namespace
} // namespace drisim
