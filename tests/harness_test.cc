/**
 * @file
 * Harness tests: runner determinism, fast-model calibration,
 * best-case search, table printing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "harness/executor.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "obs/trace.hh"
#include "same_run.hh"
#include "sim/result_cache.hh"
#include "workload/fetch_replay.hh"

namespace drisim
{
namespace
{

RunConfig
quickConfig()
{
    RunConfig c;
    c.maxInstrs = 400 * 1000;
    return c;
}

TEST(Runner, ConventionalRunsAreDeterministic)
{
    const auto &b = findBenchmark("compress");
    const RunConfig cfg = quickConfig();
    const auto r1 = run(b, cfg);
    const auto r2 = run(b, cfg);
    EXPECT_EQ(r1.meas.cycles, r2.meas.cycles);
    EXPECT_EQ(r1.meas.l1iMisses, r2.meas.l1iMisses);
    EXPECT_EQ(r1.meas.l1iAccesses, r2.meas.l1iAccesses);
}

TEST(Runner, ConventionalMeasurementSanity)
{
    const auto &b = findBenchmark("li");
    const auto r = run(b, quickConfig());
    EXPECT_EQ(r.meas.instructions, 400000u);
    EXPECT_GT(r.meas.cycles, 400000u / 8);
    EXPECT_GT(r.meas.l1iAccesses, 0u);
    EXPECT_DOUBLE_EQ(r.meas.avgActiveFraction, 1.0);
    EXPECT_EQ(r.meas.resizingTagBits, 0u);
    EXPECT_GT(r.ipc, 0.5);
    EXPECT_LT(r.ipc, 8.0);
}

TEST(Runner, DriRunPopulatesResizingState)
{
    const auto &b = findBenchmark("compress");
    DriParams dp;
    dp.missBound = 1000;
    dp.sizeBoundBytes = 1024;
    dp.senseInterval = 50000;
    const auto r = run(b, quickConfig(), {dp});
    EXPECT_EQ(r.meas.resizingTagBits, 6u);
    EXPECT_LE(r.meas.avgActiveFraction, 1.0);
    EXPECT_GT(r.meas.avgActiveFraction, 0.0);
    // compress's tiny loops let it shrink.
    EXPECT_GT(r.resizes, 0u);
}

TEST(Runner, FastCalibrationReproducesDetailedCycles)
{
    const auto &b = findBenchmark("mgrid");
    const RunConfig cfg = quickConfig();
    const auto conv = run(b, cfg);
    const auto cal = calibrateFast(b, cfg, conv);
    const auto fast = run(b, cfg, {ConventionalL1i{}, &cal});
    const double err =
        std::abs(static_cast<double>(fast.meas.cycles) -
                 static_cast<double>(conv.meas.cycles)) /
        static_cast<double>(conv.meas.cycles);
    EXPECT_LT(err, 0.02);
    // Cache behaviour is exact, not approximated.
    EXPECT_EQ(fast.meas.l1iMisses, conv.meas.l1iMisses);
}

TEST(Runner, FastRunKeysIgnoreTheRecording)
{
    // The recording is execution-only: with or without it, a fast
    // run has one result-cache entry, snapshot key and config_hash.
    const auto &b = findBenchmark("li");
    const RunConfig cfg = quickConfig();
    FastCalibration bare;
    bare.baseCpi = 0.9;
    FastCalibration recorded = bare;
    recorded.recording = std::make_shared<RecordingSlot>(
        std::make_shared<const FetchRecording>(programImageFor(b),
                                               cfg.maxInstrs));

    const auto expectSameKey = [](const sim::ConfigKey &a,
                                  const sim::ConfigKey &k) {
        EXPECT_EQ(a.hashHex(), k.hashHex());
        EXPECT_EQ(a.canonical(), k.canonical());
    };
    expectSameKey(runKey(b, cfg, {ConventionalL1i{}, &bare}),
                  runKey(b, cfg, {ConventionalL1i{}, &recorded}));
    const DriParams dp;
    expectSameKey(runKey(b, cfg, {dp, &bare}),
                  runKey(b, cfg, {dp, &recorded}));
    for (const PolicyKind kind :
         {PolicyKind::Dri, PolicyKind::Decay, PolicyKind::Drowsy,
          PolicyKind::StaticWays}) {
        PolicyConfig pol;
        pol.kind = kind;
        expectSameKey(runKey(b, cfg, {pol, &bare}),
                      runKey(b, cfg, {pol, &recorded}));
    }
}

TEST(Runner, ServedCalibrationRecordsOnceForItsFastRuns)
{
    // A simulated calibration carries its recording; the result
    // cache stores only the two calibration numbers. A served
    // calibration's slot starts empty: the first of its fast runs
    // records the stream and the others, running concurrently,
    // replay that one recording, with the results the simulated
    // calibration gives.
    const auto &b = findBenchmark("compress");
    const char *tmp = std::getenv("TMPDIR");
    const std::string path = std::string(tmp ? tmp : "/tmp") +
                             "/harness_cal_cache." +
                             std::to_string(::getpid()) + ".json";
    std::remove(path.c_str());
    RunConfig cfg = quickConfig();
    const RunOutput conv = run(b, cfg);
    cfg.resultCache = std::make_shared<sim::ResultCache>(path);

    const FastCalibration simulated = calibrateFast(b, cfg, conv);
    ASSERT_TRUE(simulated.recording);
    const auto made = simulated.recording->peek();
    ASSERT_TRUE(made);
    EXPECT_TRUE(made->covers(programImageFor(b), cfg.maxInstrs));
    sim::ResultCache::Fields payload;
    ASSERT_TRUE(
        cfg.resultCache->lookup(runKeyCalibrate(b, cfg), payload));
    EXPECT_EQ(payload.size(), 2u);
    EXPECT_EQ(payload.count("base_cpi"), 1u);
    EXPECT_EQ(payload.count("miss_overlap"), 1u);

    const FastCalibration served = calibrateFast(b, cfg, conv);
    ASSERT_TRUE(served.recording);
    EXPECT_FALSE(served.recording->peek());
    EXPECT_EQ(served.baseCpi, simulated.baseCpi);
    EXPECT_EQ(served.missOverlap, simulated.missOverlap);

    RunConfig uncached = cfg;
    uncached.resultCache.reset();
    std::vector<DriParams> grid(4);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        grid[i].senseInterval = 50 * 1000;
        grid[i].sizeBoundBytes = 2048u << i;
    }
    obs::resetTrace();
    const obs::TraceWriter *tw = obs::initTrace(path + ".trace");
    std::vector<RunOutput> outs(grid.size());
    Executor(4).forEachIndex(
        "served", grid.size(), [&](std::size_t i, const JobContext &) {
            outs[i] = run(b, uncached, {grid[i], &served});
        });
    std::size_t recordings = 0;
    for (const obs::TraceSpan &span : tw->spans())
        recordings += span.name == b.name + "/record";
    obs::resetTrace();
    EXPECT_EQ(recordings, 1u);
    const auto replayed = served.recording->peek();
    ASSERT_TRUE(replayed);
    EXPECT_TRUE(replayed->covers(programImageFor(b), cfg.maxInstrs));

    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE(i);
        const RunOutput a = run(b, uncached, {grid[i], &simulated});
        EXPECT_EQ(a.meas.cycles, outs[i].meas.cycles);
        EXPECT_EQ(a.meas.l1iMisses, outs[i].meas.l1iMisses);
        EXPECT_EQ(a.meas.avgActiveFraction,
                  outs[i].meas.avgActiveFraction);
        EXPECT_EQ(a.resizes, outs[i].resizes);
    }

    cfg.resultCache.reset();
    std::remove(path.c_str());
}

TEST(Runner, OnlyASiblingOfAWholeRunIsServed)
{
    // The run crosses no boundary, so its empty history serves any
    // parameter set: which runs are siblings alone decides.
    const auto &b = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 20 * 1000;
    cfg.hier.l2Dri = true;
    DriParams leader;
    leader.senseInterval = 50 * 1000;
    std::shared_ptr<const RunLead> lead;
    const RunOutput led = run(b, cfg, {leader}, lead);
    ASSERT_TRUE(lead);
    EXPECT_TRUE(lead->history.empty());

    // Serves @p spec from the lead, checking a served run against its
    // standalone run.
    const auto served = [&](const RunConfig &c, RunSpec spec) {
        spec.leaders = {nullptr, lead};
        const std::uint64_t before = servedRuns();
        std::shared_ptr<const RunLead> handed;
        const RunOutput out = run(b, c, spec, handed);
        if (servedRuns() == before)
            return false;
        EXPECT_EQ(handed, lead);
        spec.leaders.clear();
        expectSameRun(out, run(b, c, spec));
        return true;
    };

    DriParams sibling = leader;
    sibling.missBound = 7;
    sibling.sizeBoundBytes = 8 * 1024;
    EXPECT_TRUE(served(cfg, {sibling}));
    EXPECT_NE(sibling.resizingTagBits(), led.meas.resizingTagBits);

    // Every other knob must match: the L1I's divisibility, the DRI
    // L2's bounds, the policy form of the L1I and the core model.
    DriParams divisibility = sibling;
    divisibility.divisibility = 4;
    EXPECT_FALSE(served(cfg, {divisibility}));
    RunConfig l2 = cfg;
    l2.hier.l2DriParams.missBound += 1;
    EXPECT_FALSE(served(l2, {sibling}));
    l2 = cfg;
    l2.hier.l2DriParams.sizeBoundBytes *= 2;
    EXPECT_FALSE(served(l2, {sibling}));
    EXPECT_FALSE(served(cfg, {PolicyConfig{.dri = sibling}}));
    const FastCalibration cal;
    EXPECT_FALSE(served(cfg, {sibling, &cal}));

    // Only a whole run leads or is served: not one with a checkpoint
    // directory configured, and not a result-cache hit.
    RunConfig ckpt = cfg;
    ckpt.checkpointDir = ::testing::TempDir() + "served_ckpt";
    EXPECT_FALSE(served(ckpt, {sibling}));
    std::shared_ptr<const RunLead> none;
    run(b, ckpt, {leader}, none);
    EXPECT_FALSE(none);
    std::filesystem::remove_all(ckpt.checkpointDir);

    const std::string path =
        ::testing::TempDir() + "served_cache." +
        std::to_string(::getpid()) + ".json";
    std::remove(path.c_str());
    RunConfig cached = cfg;
    cached.resultCache = std::make_shared<sim::ResultCache>(path);
    run(b, cached, {leader}, none);
    EXPECT_TRUE(none);
    run(b, cached, {leader}, none);
    EXPECT_FALSE(none);

    // A served run on a result-cache miss stores its entry as a run
    // would, and leaves a served event instead of a run span.
    obs::resetTrace();
    const obs::TraceWriter *tw = obs::initTrace(path + ".trace");
    const std::uint64_t stores = cached.resultCache->counters().stores;
    EXPECT_TRUE(served(cached, {sibling}));
    EXPECT_EQ(cached.resultCache->counters().stores, stores + 1);
    std::vector<std::string> events;
    for (const obs::TraceSpan &span : tw->spans())
        if (span.cat == "cache" || span.cat == "run")
            events.push_back(span.cat + "/" + span.name);
    obs::resetTrace();
    // The lookup's miss, then the served run; the hit is the
    // standalone check's lookup.
    EXPECT_EQ(events, (std::vector<std::string>{"cache/hit", "cache/miss",
                                                "cache/served"}));
    cached.resultCache.reset();
    std::remove(path.c_str());
}

TEST(Runner, ServedSiblingsEqualTheirRunsAcrossMissBursts)
{
    // A quiet 1 KB loop and a burst through 256 KB of code alternate
    // one sense interval each: every cell downsizes in a quiet
    // interval and upsizes in a burst, whatever its miss-bound, so
    // cells that differ only in it are served from each other. A
    // controller that acted on the miss-bound inside an interval
    // would answer a burst at a different instruction in each cell.
    BenchmarkInfo b;
    b.name = "served_bursts";
    b.benchClass = 3;
    b.spec.name = b.name;
    b.spec.seed = 7;
    PhaseSpec quiet;
    quiet.name = "quiet";
    quiet.codeBytes = 1024;
    quiet.dynInstrs = 10 * 1000;
    PhaseSpec burst = quiet;
    burst.name = "burst";
    burst.codeBytes = 256 * 1024;
    burst.meanInnerTrips = 1;
    burst.callIrregularity = 1.0;
    b.spec.phases = {quiet, burst};
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    std::vector<DriParams> cells(4);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cells[i].senseInterval = 10 * 1000;
        cells[i].missBound = 50 + 40 * i;
    }
    std::vector<std::shared_ptr<const RunLead>> leads(cells.size());
    std::vector<RunOutput> alone;
    for (std::size_t i = 0; i < cells.size(); ++i)
        alone.push_back(run(b, cfg, {cells[i]}, leads[i]));
    const std::uint64_t before = servedRuns();
    for (std::size_t i = 0; i < cells.size(); ++i)
        for (std::size_t j = 0; j < cells.size(); ++j)
            if (j != i) {
                SCOPED_TRACE(std::to_string(i) + " from " +
                             std::to_string(j));
                RunSpec spec{cells[i]};
                spec.leaders = {leads[j]};
                expectSameRun(run(b, cfg, spec), alone[i]);
            }
    EXPECT_EQ(servedRuns() - before, cells.size() * (cells.size() - 1));
}

TEST(Runner, DefaultRunInstrsHonoursScaleEnv)
{
    unsetenv("DRISIM_SCALE");
    EXPECT_EQ(defaultRunInstrs(), 10u * 1000 * 1000);
    setenv("DRISIM_SCALE", "0.5", 1);
    EXPECT_EQ(defaultRunInstrs(), 5u * 1000 * 1000);
    setenv("DRISIM_SCALE", "", 1);
    EXPECT_EQ(defaultRunInstrs(), 10u * 1000 * 1000);

    // A bad scale fails loudly, naming the variable, instead of
    // silently running at scale 1.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad :
         {"bogus", "abc", "0", "-1", "nan", "1e999", "0.5x", " 1"}) {
        setenv("DRISIM_SCALE", bad, 1);
        EXPECT_EXIT(defaultRunInstrs(), ::testing::ExitedWithCode(1),
                    "DRISIM_SCALE")
            << "DRISIM_SCALE='" << bad << "'";
    }
    unsetenv("DRISIM_SCALE");
}

TEST(Sweep, FindsFeasibleConfigForClass1)
{
    const auto &b = findBenchmark("applu");
    const RunConfig cfg = quickConfig();
    const auto conv = run(b, cfg);

    SearchSpace space;
    space.sizeBounds = {1024, 4096, 65536};
    space.missBoundFactors = {4.0, 32.0};

    DriParams tmpl;
    tmpl.senseInterval = 50000;
    const auto sr = searchBestEnergyDelay(
        b, cfg, tmpl, space, EnergyConstants{}, 4.0, conv);

    EXPECT_EQ(sr.evaluated.size(), 6u);
    EXPECT_TRUE(sr.best.feasible);
    EXPECT_LE(sr.best.cmp.slowdownPercent(), 4.0 + 0.5);
    // applu must find substantial savings.
    EXPECT_LT(sr.best.cmp.relativeEnergyDelay(), 0.6);
}

/** Index of the first lowest-ED cell of @p sr (the test's own scan). */
std::size_t
lowestEdCell(const SearchResult &sr)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < sr.evaluated.size(); ++i)
        if (sr.evaluated[i].cmp.relativeEnergyDelay() <
            sr.evaluated[best].cmp.relativeEnergyDelay())
            best = i;
    return best;
}

/** @p a and @p b are the same evaluated configuration, bit for bit. */
void
expectSameCandidateBits(const SearchCandidate &a,
                        const SearchCandidate &b)
{
    EXPECT_EQ(a.dri.sizeBoundBytes, b.dri.sizeBoundBytes);
    EXPECT_EQ(a.dri.missBound, b.dri.missBound);
    EXPECT_EQ(a.configHash, b.configHash);
    EXPECT_EQ(a.cmp.relativeEnergyDelay(), b.cmp.relativeEnergyDelay());
    EXPECT_EQ(a.cmp.slowdownPercent(), b.cmp.slowdownPercent());
    expectSameRun(a.out, b.out);
}

TEST(Sweep, UnconstrainedNeverWorseThanConstrained)
{
    const auto &b = findBenchmark("ijpeg");
    const RunConfig cfg = quickConfig();
    const auto conv = run(b, cfg);

    SearchSpace space;
    space.sizeBounds = {1024, 8192, 65536};
    space.missBoundFactors = {4.0, 64.0};
    DriParams tmpl;
    tmpl.senseInterval = 50000;
    const EnergyConstants constants;

    const SearchResult sr = searchBestEnergyDelay(
        b, cfg, tmpl, space, constants, 4.0, conv);
    ASSERT_EQ(sr.evaluated.size(), 6u);
    // Each candidate's identity is the key of the run it carries: the
    // fast-model run in the grid, the detailed run for the winner.
    const FastCalibration cal = calibrateFast(b, cfg, conv);
    for (const SearchCandidate &cand : sr.evaluated)
        EXPECT_EQ(cand.configHash,
                  runKey(b, cfg, {cand.dri, &cal}).hashHex());
    EXPECT_EQ(sr.best.configHash,
              runKey(b, cfg, {sr.best.dri}).hashHex());

    // On the fast-model candidates (shared baseline), the
    // unconstrained winner is at least as good as every feasible one.
    const std::size_t u = lowestEdCell(sr);
    for (const SearchCandidate &cand : sr.evaluated) {
        if (cand.feasible) {
            EXPECT_LE(sr.evaluated[u].cmp.relativeEnergyDelay(),
                      cand.cmp.relativeEnergyDelay());
        }
    }

    // Its detailed run is evaluateDetailed of that cell, bit for bit.
    const SearchCandidate winner =
        unconstrainedWinner(sr, b, cfg, constants);
    EXPECT_TRUE(winner.feasible);
    expectSameCandidateBits(
        winner,
        evaluateDetailed(b, cfg, sr.evaluated[u].dri, constants, conv));
}

TEST(Sweep, UnconstrainedWinnerCanDifferFromTheConstrainedOne)
{
    // fpppp under the bench defaults (Table 1 machine, 100 K sense
    // interval, divisibility 2, the default grid, <= 4% slowdown) at
    // 200 K instructions: its lowest-ED cell breaks the constraint,
    // so the unconstrained winner is a run of its own.
    const auto &b = findBenchmark("fpppp");
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    DriParams tmpl;
    tmpl.senseInterval = 100 * 1000;
    tmpl.divisibility = 2;
    const EnergyConstants constants;
    const RunOutput conv = run(b, cfg);

    const SearchResult sr = searchBestEnergyDelay(
        b, cfg, tmpl, SearchSpace{}, constants, 4.0, conv);
    ASSERT_EQ(sr.evaluated.size(), 28u);
    const std::size_t u = lowestEdCell(sr);
    const DriParams &cell = sr.evaluated[u].dri;
    EXPECT_FALSE(sr.evaluated[u].feasible);
    EXPECT_TRUE(cell.sizeBoundBytes != sr.best.dri.sizeBoundBytes ||
                cell.missBound != sr.best.dri.missBound);

    const SearchCandidate winner =
        unconstrainedWinner(sr, b, cfg, constants);
    EXPECT_TRUE(winner.feasible);
    expectSameCandidateBits(
        winner, evaluateDetailed(b, cfg, cell, constants, conv));
}

TEST(Sweep, UnconstrainedWinnerOfAnEmptyGridIsTheBest)
{
    // No size-bound fits (16 B is below one block), so the grid is
    // empty and both winners are the least-harm fallback.
    const auto &b = findBenchmark("compress");
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    SearchSpace space;
    space.sizeBounds = {16};
    DriParams tmpl;
    tmpl.senseInterval = 50000;
    const EnergyConstants constants;

    const SearchResult sr = searchBestEnergyDelay(
        b, cfg, tmpl, space, constants, 4.0, run(b, cfg));
    ASSERT_TRUE(sr.evaluated.empty());
    const SearchCandidate winner =
        unconstrainedWinner(sr, b, cfg, constants);
    EXPECT_TRUE(winner.feasible);
    expectSameCandidateBits(winner, sr.best);
}

TEST(SearchRules, MissesPerIntervalScalesByTheIntervalCount)
{
    // 1 M instructions in 100 K intervals: ten intervals.
    EXPECT_EQ(missesPerInterval(500, 1e6, 100 * 1000), 50.0);
    EXPECT_EQ(missesPerInterval(7, 250e3, 100 * 1000), 2.8);
    // A run with no instructions spans no interval.
    EXPECT_EQ(missesPerInterval(500, 0.0, 100 * 1000), 0.0);
}

TEST(SearchRules, CellRuleTruncatesAndKeepsTheFloor)
{
    DriParams base;
    base.senseInterval = 50000;
    base.throttleBits = 5;

    // 2 x 10.9 = 21.8 truncates to 21.
    const DriParams cell = cellParams(base, 4096, 16, 2.0, 10.9);
    EXPECT_EQ(cell.sizeBoundBytes, 4096u);
    EXPECT_EQ(cell.missBound, 21u);
    // Every knob the rule does not set comes from the base.
    EXPECT_EQ(cell.senseInterval, 50000u);
    EXPECT_EQ(cell.throttleBits, 5u);
    EXPECT_EQ(cell.sizeBytes, base.sizeBytes);

    // Below the floor (2 x 7.9 = 15.8) the floor wins; exactly on it
    // (2 x 8) the bound is the floor too.
    EXPECT_EQ(cellParams(base, 4096, 16, 2.0, 7.9).missBound, 16u);
    EXPECT_EQ(cellParams(base, 4096, 16, 2.0, 8.0).missBound, 16u);
    EXPECT_EQ(cellParams(base, 4096, 16, 2.0, 0.0).missBound, 16u);
    EXPECT_EQ(cellParams(base, 4096, 16, 32.0, 8.0).missBound, 256u);

    // The least-harm fallback: full size, factor 2.
    const DriParams harm = leastHarm(base, 16, 10.9);
    EXPECT_EQ(harm.sizeBoundBytes, base.sizeBytes);
    EXPECT_EQ(harm.missBound, 21u);
    EXPECT_EQ(leastHarm(base, 16, 1.0).missBound, 16u);
}

TEST(SearchRules, ScanTakesTheFirstOfEqualKeys)
{
    const std::vector<double> keys{3.0, 1.0, 2.0, 1.0, 1.0};
    const auto key = [&](std::size_t i) { return keys[i]; };
    const auto all = [](std::size_t) { return true; };

    EXPECT_EQ(lowestKey(keys.size(), key, all), std::size_t{1});
    // With index 1 filtered out, the next of the equal keys wins.
    EXPECT_EQ(lowestKey(keys.size(), key,
                        [](std::size_t i) { return i != 1; }),
              std::size_t{3});
    // A single accepted element wins whatever its key.
    EXPECT_EQ(lowestKey(keys.size(), key,
                        [](std::size_t i) { return i == 0; }),
              std::size_t{0});
    // Nothing to scan, or nothing accepted: no winner.
    EXPECT_FALSE(lowestKey(0, key, all).has_value());
    EXPECT_FALSE(lowestKey(keys.size(), key, [](std::size_t) {
                     return false;
                 }).has_value());
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, SetRowFillsSlotsInOrderIndependentOfWriteOrder)
{
    Table t({"a", "b"});
    t.reserveRows(3);
    EXPECT_EQ(t.rows(), 3u);
    // Filled out of order — rendered in slot order.
    t.setRow(2, {"3", "z"});
    t.setRow(0, {"1", "x"});
    t.setRow(1, {"2", "y"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,x\n2,y\n3,z\n");
}

TEST(Table, ReserveRowsAppendsToExistingRows)
{
    Table t({"h"});
    t.addRow({"first"});
    t.reserveRows(1);
    t.setRow(1, {"second"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "h\nfirst\nsecond\n");
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.5, 1), "50.0%");
    EXPECT_EQ(asciiBar(0.5, 10), "#####     ");
    EXPECT_EQ(asciiBar(2.0, 4), "####");
    EXPECT_EQ(asciiBar(-1.0, 4), "    ");
}

} // namespace
} // namespace drisim
