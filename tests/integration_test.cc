/**
 * @file
 * End-to-end behavioural tests reproducing the paper's qualitative
 * claims on the full stack (workload -> OoO core -> hierarchy ->
 * DRI -> energy accounting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/policies.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "same_run.hh"

namespace drisim
{
namespace
{

/** The paper view of @p run against @p conv. */
Comparison
paperComparison(const RunOutput &conv, const RunOutput &run)
{
    return compare(EnergyConstants{}, conv.meas.cycles, paperView(conv),
                   run.meas.cycles, paperView(run));
}

RunConfig
config(InstCount instrs = 2 * 1000 * 1000)
{
    RunConfig c;
    c.maxInstrs = instrs;
    return c;
}

DriParams
driFor(const RunOutput &conv, const RunConfig &cfg,
       std::uint64_t sizeBound, double missFactor)
{
    DriParams p;
    p.sizeBoundBytes = sizeBound;
    p.senseInterval = 100000;
    const double intervals = static_cast<double>(cfg.maxInstrs) /
                             static_cast<double>(p.senseInterval);
    p.missBound = std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(
                missFactor *
                static_cast<double>(conv.meas.l1iMisses) /
                intervals));
    return p;
}

/** One case per suite benchmark, so ctest -j spreads the suite. */
class ConventionalMissRate : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ConventionalMissRate, IsLowOnEachBenchmark)
{
    // Paper Section 5.3: conventional i-cache miss rates < 1% for
    // all benchmarks. Our short runs over-weight cold misses, so
    // run a longer horizon here and allow a modest margin.
    const auto conv =
        run(findBenchmark(GetParam()), config(4 * 1000 * 1000));
    EXPECT_LT(conv.meas.missRate(), 0.012);
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const auto &b : specSuite())
        names.push_back(b.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ConventionalMissRate, ::testing::ValuesIn(suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Integration, Class1ShrinksToTheBoundWithTinySlowdown)
{
    // Paper: applu/compress/li/mgrid/swim "primarily stay at the
    // minimum size allowed by the size-bound". Size-bounds are the
    // benchmark's best-case values (>= the tight-loop footprint).
    const std::pair<const char *, std::uint64_t> cases[] = {
        {"applu", 2048}, {"li", 4096}, {"mgrid", 2048}};
    for (const auto &[name, size_bound] : cases) {
        const auto &b = findBenchmark(name);
        const RunConfig cfg = config();
        const auto conv = run(b, cfg);
        const auto dri =
            run(b, cfg, {driFor(conv, cfg, size_bound, 8.0)});
        const auto cmp = paperComparison(conv, dri);
        EXPECT_LT(dri.meas.avgActiveFraction, 0.35) << name;
        EXPECT_LT(cmp.slowdownPercent(), 5.0) << name;
        EXPECT_LT(cmp.relativeEnergyDelay(), 0.5) << name;
    }
}

TEST(Integration, FppppCannotDownsizeWithoutPain)
{
    // Paper: "fpppp requires the full-sized i-cache, so reducing
    // the size dramatically increases the miss rate."
    const auto &b = findBenchmark("fpppp");
    const RunConfig cfg = config();
    const auto conv = run(b, cfg);

    // Forced downsizing (high miss-bound): large slowdown.
    const auto forced =
        run(b, cfg, {driFor(conv, cfg, 1024, 200.0)});
    const auto cmp_forced = paperComparison(conv, forced);
    EXPECT_GT(cmp_forced.slowdownPercent(), 5.0);

    // With the size-bound at 64K (the paper's fpppp setting),
    // behaviour is identical to conventional.
    const auto fixed =
        run(b, cfg, {driFor(conv, cfg, 64 * 1024, 2.0)});
    const auto cmp_fixed = paperComparison(conv, fixed);
    EXPECT_NEAR(fixed.meas.avgActiveFraction, 1.0, 1e-9);
    EXPECT_NEAR(cmp_fixed.slowdownPercent(), 0.0, 0.1);
}

TEST(Integration, PhasedBenchmarkTracksItsPhases)
{
    // hydro2d: big init phase then tiny loops; the DRI cache must
    // end small but have spent time large (fraction between the
    // extremes, well below 1).
    const auto &b = findBenchmark("hydro2d");
    const RunConfig cfg = config(3 * 1000 * 1000);
    const auto conv = run(b, cfg);
    const auto dri = run(b, cfg, {driFor(conv, cfg, 1024, 8.0)});
    EXPECT_LT(dri.meas.avgActiveFraction, 0.8);
    EXPECT_GT(dri.resizes, 4u);
}

TEST(Integration, HigherAssociativityEncouragesDownsizing)
{
    // Paper Section 5.5 / Figure 6: 4-way DRI absorbs conflict
    // misses and reaches smaller sizes on conflict-prone programs.
    // Size-bound above the loop footprint so conflicts (not
    // capacity) dominate the residual misses.
    const auto &b = findBenchmark("swim");
    RunConfig cfg = config();
    const auto conv_dm = run(b, cfg);

    DriParams dm = driFor(conv_dm, cfg, 4096, 8.0);
    const auto dri_dm = run(b, cfg, {dm});

    RunConfig cfg4 = cfg;
    cfg4.hier.l1i.assoc = 4;
    // Warm comparison baseline for the 4-way geometry.
    const auto conv_4w = run(b, cfg4);
    EXPECT_LE(conv_4w.meas.missRate(), conv_dm.meas.missRate());
    DriParams fourway = dm;
    fourway.assoc = 4;
    const auto dri_4w = run(b, cfg4, {fourway});

    EXPECT_LE(dri_4w.meas.avgActiveFraction,
              dri_dm.meas.avgActiveFraction + 0.02);
    EXPECT_LT(dri_4w.meas.missRate(),
              dri_dm.meas.missRate() + 0.0005);
}

TEST(Integration, LargerCacheGivesLargerRelativeReduction)
{
    // Paper Section 5.5: the 128K cache downsizes to the same
    // absolute magnitude, halving the *fraction*.
    const auto &b = findBenchmark("compress");
    RunConfig cfg64 = config();
    const auto conv64 = run(b, cfg64);
    DriParams p64 = driFor(conv64, cfg64, 1024, 8.0);
    const auto dri64 = run(b, cfg64, {p64});

    RunConfig cfg128 = cfg64;
    cfg128.hier.l1i.sizeBytes = 128 * 1024;
    const auto conv128 = run(b, cfg128);
    EXPECT_LE(conv128.meas.missRate(), conv64.meas.missRate() + 1e-4);
    DriParams p128 = p64;
    p128.sizeBytes = 128 * 1024;
    const auto dri128 = run(b, cfg128, {p128});

    EXPECT_LT(dri128.meas.avgActiveFraction,
              dri64.meas.avgActiveFraction);
}

TEST(Integration, MissRateStaysNearMissBound)
{
    // Paper: "tight control over the miss rate ... close to a
    // preset value". The effective DRI miss rate must stay within
    // the same order as the bound, not explode past it.
    const auto &b = findBenchmark("ijpeg");
    const RunConfig cfg = config();
    const auto conv = run(b, cfg);
    DriParams p = driFor(conv, cfg, 1024, 8.0);
    const auto dri = run(b, cfg, {p});

    const double intervals =
        static_cast<double>(cfg.maxInstrs) /
        static_cast<double>(p.senseInterval);
    const double bound_rate =
        static_cast<double>(p.missBound) * intervals /
        static_cast<double>(dri.meas.l1iAccesses);
    // Effective rate within ~4x of the configured bound's rate.
    EXPECT_LT(dri.meas.missRate(), 4.0 * bound_rate + 0.002);
}

TEST(Integration, ExtraDynamicEnergyIsSmall)
{
    // Paper Section 5.3: "the energy-delay products' dynamic
    // component is small for all the benchmarks".
    for (const char *name : {"applu", "ijpeg"}) {
        const auto &b = findBenchmark(name);
        const RunConfig cfg = config();
        const auto conv = run(b, cfg);
        const auto dri =
            run(b, cfg, {driFor(conv, cfg, 1024, 8.0)});
        const auto cmp = paperComparison(conv, dri);
        EXPECT_LT(cmp.relativeEdDynamic(),
                  0.35 * cmp.relativeEnergyDelay())
            << name;
    }
}

TEST(Integration, PairedRunsSeeIdenticalInstructionStreams)
{
    const auto &b = findBenchmark("m88ksim");
    const RunConfig cfg = config(500 * 1000);
    const auto conv = run(b, cfg);
    DriParams p;
    const auto dri = run(b, cfg, {p});
    EXPECT_EQ(conv.meas.instructions, dri.meas.instructions);
    // Same fetch stream: access counts match when no resizing
    // splits fetch groups differently... accesses are per block
    // transition, independent of the cache, so they must be equal.
    EXPECT_EQ(conv.meas.l1iAccesses, dri.meas.l1iAccesses);
}

// --------------------------------------------------------------
// Served cells: a cell served from a sibling's run is that run
// with its own tag bits, so it must equal its own standalone run
// --------------------------------------------------------------

/** Cells of one search that named leaders: how many were served
 *  (servedRuns() grew by that much) and how many ran. */
struct Siblings
{
    std::uint64_t served = 0;
    std::uint64_t count = 0;

    Siblings &operator+=(const Siblings &o)
    {
        served += o.served;
        count += o.count;
        return *this;
    }
};

/** @p cell, as a search scored it, is @p alone, its standalone run
 *  scored alike: every counter, the config hash and the comparison,
 *  bit for bit. */
template <typename Candidate>
void
expectServedEqualsRun(const Candidate &cell, const Candidate &alone)
{
    SCOPED_TRACE(alone.configHash);
    expectSameRun(cell.out, alone.out);
    EXPECT_EQ(cell.configHash, alone.configHash);
    EXPECT_EQ(cell.cmp.relativeEnergyDelay(),
              alone.cmp.relativeEnergyDelay());
    EXPECT_EQ(cell.cmp.relativeEdLeakage(), alone.cmp.relativeEdLeakage());
    EXPECT_EQ(cell.cmp.relativeEdDynamic(), alone.cmp.relativeEdDynamic());
    EXPECT_EQ(cell.cmp.slowdownPercent(), alone.cmp.slowdownPercent());
    EXPECT_EQ(cell.feasible, alone.feasible);
}

/** The sibling tallies of the three searches that serve cells. */
struct ServedSearches
{
    Siblings grid;
    Siblings reruns;
    Siblings policies;
};

/**
 * Run, at sense interval @p interval on @p b, each search that serves
 * cells: the paper's fast grid, the winner's detailed re-runs (figure
 * 4's 0.5x and 2x miss-bounds, figure 5's halved and doubled
 * size-bounds, the unconstrained winner) and the policy study's Dri
 * cells. Every cell must equal its standalone run.
 */
ServedSearches
expectServedCellsEqualTheirRuns(const BenchmarkInfo &b, const RunConfig &cfg,
                                InstCount interval)
{
    ServedSearches tally;
    DriParams tmpl;
    tmpl.senseInterval = interval;
    const EnergyConstants constants;
    const RunOutput conv = run(b, cfg);

    std::uint64_t before = servedRuns();
    const SearchResult sr = searchBestEnergyDelay(
        b, cfg, tmpl, SearchSpace{}, constants, 4.0, conv);
    tally.grid = {servedRuns() - before, sr.evaluated.size() - 1};
    const FastCalibration cal = calibrateFast(b, cfg, conv);
    const Scorer<SearchCandidate> fast{
        constants, run(b, cfg, {ConventionalL1i{}, &cal}), paperView, 4.0};
    std::vector<SearchCandidate> alone;
    for (const SearchCandidate &cell : sr.evaluated) {
        alone.push_back(
            fast({{}, cell.dri}, b, cfg, RunSpec{cell.dri, &cal}));
        expectServedEqualsRun(cell, alone.back());
    }
    // The grid leads one way, from a smaller miss-bound to a larger
    // one. Serving must hold either way: each cell offered the lead of
    // every other cell of its size-bound.
    const std::size_t factors = SearchSpace{}.missBoundFactors.size();
    for (std::size_t i = 0; i < alone.size(); ++i) {
        const std::size_t row = i - i % factors;
        for (std::size_t j = row; j < row + factors; ++j)
            if (j != i)
                expectServedEqualsRun(
                    fast({{}, alone[i].dri}, b, cfg,
                         RunSpec{alone[i].dri, &cal,
                                 {sr.evaluated[j].lead}}),
                    alone[i]);
    }

    const DriParams &bp = sr.best.dri;
    std::vector<DriParams> variants;
    for (const double f : {0.5, 2.0}) {
        DriParams p = bp;
        p.missBound = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   f * static_cast<double>(bp.missBound)));
        variants.push_back(p);
        p = bp;
        p.sizeBoundBytes =
            static_cast<std::uint64_t>(f * bp.sizeBoundBytes);
        if (bp.sizeBoundFits(p.sizeBoundBytes))
            variants.push_back(p);
    }
    before = servedRuns();
    const std::vector<SearchCandidate> batch = evaluateDetailedBatch(
        b, cfg, variants, constants, conv, nullptr, &sr.best);
    const SearchCandidate unconstrained =
        unconstrainedWinner(sr, b, cfg, constants);
    const bool rerun = unconstrained.dri.missBound != bp.missBound ||
                       unconstrained.dri.sizeBoundBytes !=
                           bp.sizeBoundBytes;
    tally.reruns = {servedRuns() - before,
                    variants.size() + (rerun ? 1u : 0u)};
    for (std::size_t i = 0; i < variants.size(); ++i)
        expectServedEqualsRun(
            batch[i], evaluateDetailed(b, cfg, variants[i], constants, conv));
    expectServedEqualsRun(
        unconstrained,
        evaluateDetailed(b, cfg, unconstrained.dri, constants, conv));

    PolicyConfig ptmpl;
    ptmpl.dri.senseInterval = interval;
    PolicySpace pspace;
    pspace.kinds = {PolicyKind::Dri};
    before = servedRuns();
    const PolicySearchResult ps = searchPolicies(
        b, cfg, ptmpl, pspace, constants, 4.0, conv);
    tally.policies = {servedRuns() - before, ps.evaluated.size() - 1};
    const Scorer<PolicyCandidate> detailed{constants, conv, paperView, 4.0};
    for (const PolicyCandidate &cell : ps.evaluated)
        expectServedEqualsRun(cell, detailed({{}, cell.config}, b, cfg,
                                             RunSpec{cell.config}));
    return tally;
}

class ServedCells : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ServedCells, EqualTheirStandaloneRuns)
{
    // 100 K instructions at a 10 K sense interval: ten boundaries,
    // where cells decide and part, and at a 50 K one, where the policy
    // study's and most re-runs' two decisions still agree.
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    cfg.jobs = 4;
    const BenchmarkInfo &b = findBenchmark(GetParam());
    ServedSearches total;
    for (const InstCount interval : {10 * 1000, 50 * 1000}) {
        SCOPED_TRACE(interval);
        const ServedSearches s =
            expectServedCellsEqualTheirRuns(b, cfg, interval);
        total.grid += s.grid;
        total.reruns += s.reruns;
        total.policies += s.policies;
    }
    // Each search served some cells and ran some siblings.
    for (const Siblings &s : {total.grid, total.reruns, total.policies}) {
        EXPECT_GT(s.served, 0u);
        EXPECT_LT(s.served, s.count);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ServedCells, ::testing::ValuesIn(suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace drisim
