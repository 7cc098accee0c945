/**
 * @file
 * Executor tests: JobGraph scheduling, deterministic per-job
 * seeding, exception propagation/cancellation, graphs run from
 * inside job bodies (same or another Executor), and the determinism
 * regression suite — the same search grid run at jobs=1, jobs=4 and
 * jobs=hardware_concurrency() must produce byte-identical results.
 * Also the ThreadSanitizer smoke for concurrent harness runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "harness/executor.hh"
#include "harness/multilevel.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "obs/trace.hh"

namespace drisim
{
namespace
{

// --------------------------------------------------------------
// Seeding and worker-count resolution
// --------------------------------------------------------------

TEST(JobSeed, DeterministicAndKeySensitive)
{
    EXPECT_EQ(jobSeed("compress/sb=4096/mbf=32"),
              jobSeed("compress/sb=4096/mbf=32"));
    EXPECT_NE(jobSeed("compress/sb=4096/mbf=32"),
              jobSeed("compress/sb=4096/mbf=2"));
    EXPECT_NE(jobSeed("a"), jobSeed("b"));
    EXPECT_NE(jobSeed(""), jobSeed("a"));
}

TEST(JobSeed, GridNeighboursLandFarApart)
{
    // The SplitMix finalizer must avalanche near-identical keys.
    std::set<std::uint64_t> seeds;
    for (int sb : {1024, 2048, 4096})
        for (int f : {2, 8, 32})
            seeds.insert(jobSeed("li/sb=" + std::to_string(sb) +
                                 "/mbf=" + std::to_string(f)));
    EXPECT_EQ(seeds.size(), 9u);
}

TEST(JobCount, ParseRejectsGarbageAndWraparound)
{
    unsigned v = 77;
    EXPECT_TRUE(parseJobsValue("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseJobsValue("16", v));
    EXPECT_EQ(v, 16u);
    EXPECT_TRUE(parseJobsValue("4096", v));

    v = 77;
    EXPECT_FALSE(parseJobsValue("", v));
    EXPECT_FALSE(parseJobsValue("-1", v)); // no 4-billion-thread pool
    EXPECT_FALSE(parseJobsValue("+4", v));
    EXPECT_FALSE(parseJobsValue("4x", v));
    EXPECT_FALSE(parseJobsValue("4097", v));
    EXPECT_FALSE(parseJobsValue("99999999", v));
    EXPECT_EQ(v, 77u); // failures leave the output untouched
}

TEST(JobCount, ResolutionHonoursEnvAndRequest)
{
    unsetenv("DRISIM_JOBS");
    EXPECT_EQ(resolveJobCount(0), 1u); // serial unless opted in
    EXPECT_EQ(resolveJobCount(3), 3u);

    setenv("DRISIM_JOBS", "5", 1);
    EXPECT_EQ(resolveJobCount(0), 5u);
    EXPECT_EQ(resolveJobCount(2), 2u); // explicit beats env

    setenv("DRISIM_JOBS", "0", 1);
    EXPECT_EQ(resolveJobCount(0), hardwareJobCount()); // 0 = auto

    setenv("DRISIM_JOBS", "", 1);
    EXPECT_EQ(resolveJobCount(0), 1u); // empty = unset

    // A malformed value fails loudly, naming the variable, instead
    // of silently running serially.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"bogus", "-1", "4097", "4x", " 4"}) {
        setenv("DRISIM_JOBS", bad, 1);
        EXPECT_EXIT(resolveJobCount(0), ::testing::ExitedWithCode(1),
                    "DRISIM_JOBS")
            << "DRISIM_JOBS='" << bad << "'";
    }
    unsetenv("DRISIM_JOBS");
}

// --------------------------------------------------------------
// Graph scheduling
// --------------------------------------------------------------

TEST(Executor, ForEachIndexRunsEveryIndexExactlyOnce)
{
    for (const unsigned jobs : {1u, 4u}) {
        std::vector<int> hits(100, 0);
        std::atomic<int> total{0};
        Executor exec(jobs);
        exec.forEachIndex("cover", hits.size(),
                          [&](std::size_t i, const JobContext &) {
                              ++hits[i]; // distinct slots: no lock
                              total.fetch_add(1);
                          });
        EXPECT_EQ(total.load(), 100);
        for (const int h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(Executor, DependenciesOrderEffects)
{
    for (const unsigned jobs : {1u, 4u}) {
        std::vector<int> order;
        JobGraph g;
        const JobId a = g.add("a", [&](const JobContext &) {
            order.push_back(0);
        });
        const JobId b = g.add(
            "b", [&](const JobContext &) { order.push_back(1); },
            {a});
        g.add(
            "c", [&](const JobContext &) { order.push_back(2); },
            {b});
        Executor exec(jobs);
        exec.run(g);
        // A chain serializes whatever the worker count: the vector
        // is safe to mutate without a lock and must come out sorted.
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
        EXPECT_EQ(g.state(a), JobState::Done);
        EXPECT_EQ(g.state(b), JobState::Done);
    }
}

TEST(Executor, DiamondDependencyJoins)
{
    // a -> {b, c} -> d: d must observe both branches.
    int left = 0;
    int right = 0;
    int sum = 0;
    JobGraph g;
    const JobId a =
        g.add("a", [&](const JobContext &) { left = 3; });
    const JobId b = g.add(
        "b", [&](const JobContext &) { right = 4; }, {a});
    const JobId c = g.add(
        "c", [&](const JobContext &) { left *= 2; }, {a});
    g.add(
        "d", [&](const JobContext &) { sum = left + right; },
        {b, c});
    Executor exec(4);
    exec.run(g);
    EXPECT_EQ(sum, 10);
}

TEST(Executor, ContextCarriesKeySeedAndWorker)
{
    std::uint64_t seen = 0;
    unsigned worker = 99;
    JobGraph g;
    g.add("seed-check", [&](const JobContext &ctx) {
        seen = ctx.seed;
        worker = ctx.worker;
    });
    Executor exec(1);
    exec.run(g);
    EXPECT_EQ(seen, jobSeed("seed-check"));
    EXPECT_EQ(worker, 0u); // serial: the calling thread ran it
}

TEST(Executor, GraphCanBeRerun)
{
    int runs = 0;
    JobGraph g;
    const JobId a =
        g.add("a", [&](const JobContext &) { ++runs; });
    g.add(
        "b", [&](const JobContext &) { ++runs; }, {a});
    Executor exec(2);
    exec.run(g);
    exec.run(g);
    EXPECT_EQ(runs, 4);
}

TEST(Executor, ManyIndependentJobsAcrossWorkers)
{
    std::atomic<int> total{0};
    JobGraph g;
    for (int i = 0; i < 200; ++i)
        g.add("job/" + std::to_string(i),
              [&](const JobContext &) { total.fetch_add(1); });
    Executor exec(4);
    EXPECT_EQ(exec.workers(), 4u);
    exec.run(g);
    EXPECT_EQ(total.load(), 200);
    for (JobId id = 0; id < g.size(); ++id)
        EXPECT_EQ(g.state(id), JobState::Done);
}

// --------------------------------------------------------------
// Exceptions and cancellation
// --------------------------------------------------------------

TEST(Executor, ExceptionPropagatesAndCancelsDependents)
{
    for (const unsigned jobs : {1u, 4u}) {
        std::atomic<int> ran{0};
        JobGraph g;
        const JobId boom = g.add("boom", [](const JobContext &) {
            throw std::runtime_error("boom");
        });
        std::vector<JobId> children;
        for (int i = 0; i < 6; ++i)
            children.push_back(g.add(
                "child/" + std::to_string(i),
                [&](const JobContext &) { ran.fetch_add(1); },
                {boom}));
        Executor exec(jobs);
        EXPECT_THROW(exec.run(g), std::runtime_error);
        EXPECT_EQ(g.state(boom), JobState::Failed);
        EXPECT_EQ(ran.load(), 0);
        for (const JobId c : children)
            EXPECT_EQ(g.state(c), JobState::Skipped);
    }
}

TEST(Executor, MidChainFailureSkipsOnlyDownstream)
{
    JobGraph g;
    const JobId a = g.add("a", [](const JobContext &) {});
    const JobId b = g.add(
        "b",
        [](const JobContext &) {
            throw std::logic_error("mid-chain");
        },
        {a});
    const JobId c = g.add(
        "c", [](const JobContext &) {}, {b});
    const JobId d = g.add(
        "d", [](const JobContext &) {}, {c});
    Executor exec(1);
    EXPECT_THROW(exec.run(g), std::logic_error);
    EXPECT_EQ(g.state(a), JobState::Done);
    EXPECT_EQ(g.state(b), JobState::Failed);
    EXPECT_EQ(g.state(c), JobState::Skipped);
    EXPECT_EQ(g.state(d), JobState::Skipped);
}

TEST(Executor, ParallelFailureStillDrainsTheGraph)
{
    // One of many parallel jobs throws; the run must terminate,
    // rethrow, and leave every job in a terminal state.
    JobGraph g;
    for (int i = 0; i < 32; ++i) {
        if (i == 7)
            g.add("thrower", [](const JobContext &) {
                throw std::runtime_error("x");
            });
        else
            g.add("ok/" + std::to_string(i),
                  [](const JobContext &) {});
    }
    Executor exec(4);
    EXPECT_THROW(exec.run(g), std::runtime_error);
    int failed = 0;
    for (JobId id = 0; id < g.size(); ++id) {
        const JobState s = g.state(id);
        EXPECT_TRUE(s == JobState::Done || s == JobState::Failed ||
                    s == JobState::Skipped);
        failed += s == JobState::Failed ? 1 : 0;
    }
    EXPECT_EQ(failed, 1);
}

// --------------------------------------------------------------
// Re-entrancy: graphs run from inside job bodies
// --------------------------------------------------------------

/** A slot value that depends on the job's key (through its seed). */
std::uint64_t
cellValue(std::size_t i, std::size_t j, const JobContext &ctx)
{
    return ctx.seed ^ (i * 1000 + j);
}

TEST(Executor, NestedRunsFillTheSameSlotsAsFlat)
{
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 5;
    auto key = [](std::size_t i, std::size_t j) {
        return "cell/" + std::to_string(i) + "/" + std::to_string(j);
    };

    // Flat reference: every cell a job of one graph.
    std::vector<std::uint64_t> flat(kOuter * kInner, 0);
    {
        JobGraph g;
        for (std::size_t i = 0; i < kOuter; ++i)
            for (std::size_t j = 0; j < kInner; ++j)
                g.add(key(i, j), [&, i, j](const JobContext &ctx) {
                    flat[i * kInner + j] = cellValue(i, j, ctx);
                });
        Executor exec(1);
        exec.run(g);
    }

    for (const unsigned jobs : {1u, 4u}) {
        // Each outer job runs its row as a nested graph on the same
        // executor: a chain j0 -> {j1..} so dependencies are
        // exercised inside the nested run too.
        std::vector<std::uint64_t> nested(kOuter * kInner, 0);
        Executor exec(jobs);
        exec.forEachIndex(
            "row", kOuter, [&](std::size_t i, const JobContext &) {
                JobGraph inner;
                const JobId first = inner.add(
                    key(i, 0), [&, i](const JobContext &ctx) {
                        nested[i * kInner] = cellValue(i, 0, ctx);
                    });
                for (std::size_t j = 1; j < kInner; ++j)
                    inner.add(
                        key(i, j),
                        [&, i, j](const JobContext &ctx) {
                            nested[i * kInner + j] =
                                cellValue(i, j, ctx);
                        },
                        {first});
                exec.run(inner);
                for (JobId id = 0; id < inner.size(); ++id)
                    EXPECT_EQ(inner.state(id), JobState::Done);
            });
        EXPECT_EQ(nested, flat) << "jobs=" << jobs;
    }
}

TEST(Executor, NestedFailureFailsItsOuterJobAndIsRethrownOnce)
{
    for (const unsigned jobs : {1u, 4u}) {
        Executor exec(jobs);
        std::atomic<int> ranDownstream{0};
        JobGraph outer;
        const JobId parent =
            outer.add("parent", [&](const JobContext &) {
                JobGraph inner;
                const JobId boom =
                    inner.add("inner/boom", [](const JobContext &) {
                        throw std::runtime_error("inner boom");
                    });
                inner.add(
                    "inner/after", [](const JobContext &) {}, {boom});
                exec.run(inner);
            });
        std::vector<JobId> downstream;
        for (int k = 0; k < 4; ++k)
            downstream.push_back(outer.add(
                "downstream/" + std::to_string(k),
                [&](const JobContext &) { ranDownstream.fetch_add(1); },
                {parent}));

        int caught = 0;
        try {
            exec.run(outer);
        } catch (const std::runtime_error &e) {
            ++caught;
            EXPECT_STREQ(e.what(), "inner boom");
        }
        EXPECT_EQ(caught, 1) << "jobs=" << jobs;
        EXPECT_EQ(outer.state(parent), JobState::Failed);
        EXPECT_EQ(ranDownstream.load(), 0);
        for (const JobId d : downstream)
            EXPECT_EQ(outer.state(d), JobState::Skipped);

        // The executor is reusable after the failure.
        int after = 0;
        JobGraph again;
        again.add("again", [&](const JobContext &) { ++after; });
        exec.run(again);
        EXPECT_EQ(after, 1);
    }
}

TEST(Executor, JobsCanRunADifferentExecutor)
{
    // The calling thread's slot belongs to its pool: a worker of the
    // outer pool running another pool's graph must serve that pool
    // under that pool's slot numbers, never index its deques with an
    // outer slot. The inner pools are narrower than the outer one.
    Executor outer(4);
    Executor shared(2); // one pool helped by several outer workers
    std::vector<std::size_t> sums(8, 0);
    std::vector<std::size_t> sharedSums(8, 0);
    std::atomic<int> badWorker{0};
    outer.forEachIndex("outer", 8, [&](std::size_t i,
                                       const JobContext &) {
        Executor own(i % 2 == 0 ? 1 : 3);
        std::vector<std::size_t> parts(16, 0);
        own.forEachIndex("own", parts.size(),
                         [&](std::size_t j, const JobContext &ctx) {
                             parts[j] = j + i;
                             if (ctx.worker >= own.workers())
                                 badWorker.fetch_add(1);
                         });
        sums[i] = std::accumulate(parts.begin(), parts.end(),
                                  std::size_t{0});

        std::vector<std::size_t> sharedParts(16, 0);
        shared.forEachIndex(
            "shared/" + std::to_string(i), sharedParts.size(),
            [&](std::size_t j, const JobContext &ctx) {
                sharedParts[j] = j * i;
                if (ctx.worker >= shared.workers())
                    badWorker.fetch_add(1);
            });
        sharedSums[i] =
            std::accumulate(sharedParts.begin(), sharedParts.end(),
                            std::size_t{0});
    });
    EXPECT_EQ(badWorker.load(), 0);
    for (std::size_t i = 0; i < sums.size(); ++i) {
        EXPECT_EQ(sums[i], 120 + 16 * i);
        EXPECT_EQ(sharedSums[i], 120 * i);
    }
}

// --------------------------------------------------------------
// Determinism regression suite (the point of the executor)
// --------------------------------------------------------------

RunConfig
searchConfig(unsigned jobs)
{
    RunConfig c;
    c.maxInstrs = 200 * 1000;
    c.jobs = jobs;
    return c;
}

/** The search at @p jobs workers, or on @p exec when given (the
 *  bench path: one pool the caller owns). */
SearchResult
searchAt(unsigned jobs, Executor *exec = nullptr)
{
    const auto &b = findBenchmark("compress");
    const RunConfig cfg = searchConfig(jobs);
    const RunOutput conv = run(b, cfg);
    SearchSpace space;
    space.sizeBounds = {1024, 4096, 65536};
    space.missBoundFactors = {4.0, 32.0};
    DriParams tmpl;
    tmpl.senseInterval = 50000;
    return searchBestEnergyDelay(b, cfg, tmpl, space,
                                 EnergyConstants{}, 4.0, conv, exec);
}

void
expectSameParams(const DriParams &a, const DriParams &b)
{
    EXPECT_EQ(a.sizeBoundBytes, b.sizeBoundBytes);
    EXPECT_EQ(a.missBound, b.missBound);
    EXPECT_EQ(a.senseInterval, b.senseInterval);
    EXPECT_EQ(a.divisibility, b.divisibility);
}

void
expectSameCandidate(const SearchCandidate &a, const SearchCandidate &b)
{
    // Bit-identical, not approximately equal: the parallel schedule
    // must not perturb a single floating-point operation.
    EXPECT_EQ(a.cmp.relativeEnergyDelay(), b.cmp.relativeEnergyDelay());
    EXPECT_EQ(a.cmp.slowdownPercent(), b.cmp.slowdownPercent());
    EXPECT_EQ(a.out.meas.avgActiveFraction,
              b.out.meas.avgActiveFraction);
    EXPECT_EQ(a.out.meas.cycles, b.out.meas.cycles);
    EXPECT_EQ(a.out.meas.l1iMisses, b.out.meas.l1iMisses);
    EXPECT_EQ(a.cmp.baseline.cycles, b.cmp.baseline.cycles);
}

void
expectSameSearch(const SearchResult &serial,
                 const SearchResult &parallel)
{
    expectSameParams(serial.best.dri, parallel.best.dri);
    EXPECT_EQ(serial.best.feasible, parallel.best.feasible);
    expectSameCandidate(serial.best, parallel.best);

    // The evaluated vector must be identically *ordered*, not just
    // equal as a set.
    ASSERT_EQ(serial.evaluated.size(), parallel.evaluated.size());
    for (std::size_t i = 0; i < serial.evaluated.size(); ++i) {
        expectSameParams(serial.evaluated[i].dri,
                         parallel.evaluated[i].dri);
        EXPECT_EQ(serial.evaluated[i].feasible,
                  parallel.evaluated[i].feasible);
        expectSameCandidate(serial.evaluated[i],
                            parallel.evaluated[i]);
    }
}

TEST(Determinism, SearchIsIdenticalAtAnyWorkerCount)
{
    const SearchResult serial = searchAt(1);
    ASSERT_EQ(serial.evaluated.size(), 6u);

    for (const unsigned jobs : {4u, hardwareJobCount()})
        expectSameSearch(serial, searchAt(jobs));

    // The bench path: the search runs inside a sweep unit's job, on
    // the pool the caller owns, beside another unit doing the same.
    for (const unsigned workers : {1u, 4u}) {
        Executor exec(workers);
        SearchResult units[2];
        exec.forEachIndex("unit", 2,
                          [&](std::size_t k, const JobContext &) {
                              units[k] = searchAt(1, &exec);
                          });
        for (const SearchResult &unit : units)
            expectSameSearch(serial, unit);
    }
}

TEST(Determinism, EmptyGridFallbackStillOrdersCalibration)
{
    // Every candidate size-bound is filtered out (16 < one block),
    // so the grid is empty and the fallback miss-bound comes from
    // the calibration stage. The select/winner jobs must still be
    // sequenced after calibrate — at any worker count, and with the
    // same result.
    const auto &b = findBenchmark("compress");
    SearchSpace space;
    space.sizeBounds = {16};
    space.missBoundFactors = {2.0};
    DriParams tmpl;
    tmpl.senseInterval = 50000;

    SearchResult results[2];
    const unsigned counts[2] = {1, 4};
    for (int k = 0; k < 2; ++k) {
        const RunConfig cfg = searchConfig(counts[k]);
        const RunOutput conv = run(b, cfg);
        results[k] = searchBestEnergyDelay(
            b, cfg, tmpl, space, EnergyConstants{}, 4.0,
            conv);
        EXPECT_TRUE(results[k].evaluated.empty());
        // Fallback pins to full size with a 2x-conventional-MPI
        // miss-bound, which needs the calibration output: well
        // above the 16-miss floor for this run length.
        EXPECT_EQ(results[k].best.dri.sizeBoundBytes,
                  tmpl.sizeBytes);
        EXPECT_GT(results[k].best.dri.missBound, 16u);
    }
    expectSameParams(results[0].best.dri, results[1].best.dri);
    expectSameCandidate(results[0].best, results[1].best);
}

TEST(Determinism, DetailedBatchMatchesSingleEvaluations)
{
    const auto &b = findBenchmark("li");
    const RunConfig cfg = searchConfig(4);
    const RunOutput conv = run(b, cfg);
    const EnergyConstants constants;

    std::vector<DriParams> variants;
    for (const std::uint64_t sb : {1024u, 4096u, 65536u}) {
        DriParams p;
        p.sizeBoundBytes = sb;
        p.missBound = 200;
        p.senseInterval = 50000;
        variants.push_back(p);
    }
    const std::vector<SearchCandidate> batch =
        evaluateDetailedBatch(b, cfg, variants, constants, conv);
    ASSERT_EQ(batch.size(), variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const SearchCandidate one = evaluateDetailed(
            b, cfg, variants[i], constants, conv);
        expectSameCandidate(one, batch[i]);
    }
}

// --------------------------------------------------------------
// Search job graphs: the job keys of every search (keys seed jobs
// and name trace spans, so they are part of the output)
// --------------------------------------------------------------

constexpr InstCount kGraphInstrs = 100 * 1000;

RunConfig
graphConfig(unsigned jobs)
{
    RunConfig c;
    c.maxInstrs = kGraphInstrs;
    c.jobs = jobs;
    return c;
}

/** The sorted names of the job spans @p search leaves in a trace. */
template <typename Search>
std::vector<std::string>
jobSpanNames(const Search &search)
{
    obs::resetTrace();
    const obs::TraceWriter *tw = obs::initTrace(
        ::testing::TempDir() + "search_graphs.trace.json");
    search();
    std::vector<std::string> names;
    for (const obs::TraceSpan &span : tw->spans())
        if (span.cat == "job")
            names.push_back(span.name);
    obs::resetTrace();
    std::sort(names.begin(), names.end());
    return names;
}

/** The compress+li mix the CMP graph and fallback tests search. */
CmpConfig
twoCoreMix()
{
    CmpConfig cmp;
    cmp.cores = 2;
    CmpCoreConfig c0, c1;
    c0.bench = "compress";
    c1.bench = "li";
    cmp.coreConfigs = {c0, c1};
    return cmp;
}

DriParams
l1Template(InstCount senseInterval = 50000)
{
    DriParams p;
    p.senseInterval = senseInterval;
    return p;
}

DriParams
l2Template(InstCount senseInterval = 50000)
{
    DriParams p = HierarchyParams::defaultL2DriParams();
    p.senseInterval = senseInterval;
    return p;
}

TEST(SearchGraphs, JobKeysArePinned)
{
    const BenchmarkInfo &compress = findBenchmark("compress");
    const BenchmarkInfo &li = findBenchmark("li");
    const EnergyConstants constants;
    const RunOutput conv = run(compress, graphConfig(1));

    RunConfig policyCfg = graphConfig(1);
    policyCfg.hier.l1i.assoc = 4;
    const RunOutput policyConv = run(li, policyCfg);
    const CmpRunOutput cmpConv =
        runCmp(graphConfig(1), twoCoreMix(), "compress");

    SearchSpace space;
    space.sizeBounds = {1024, 4096};
    space.missBoundFactors = {2.0, 32.0};
    PolicySpace policySpace;
    policySpace.driSizeBounds = {4096};
    policySpace.decayIntervals = {50000};
    policySpace.drowsyIntervals = {50000};
    policySpace.waysActive = {1};
    PolicyConfig policyTmpl;
    policyTmpl.dri.senseInterval = 50000;
    MultiLevelSpace mlSpace;
    mlSpace.l1SizeBounds = {4096};
    mlSpace.l2SizeBounds = {64 * 1024, 1024 * 1024};
    CmpSpace cmpSpace;
    cmpSpace.l1MissBoundFactors = {2.0, 32.0};
    cmpSpace.l2SizeBounds = {64 * 1024};
    std::vector<DriParams> variants(2, l1Template());
    variants[0].sizeBoundBytes = 1024;
    variants[1].sizeBoundBytes = 4096;

    const std::vector<std::string> paper{
        "compress/calibrate",
        "compress/sb=1024/mbf=2#9baab81ca08828b7",
        "compress/sb=1024/mbf=32#9baab81ca08828b7",
        "compress/sb=4096/mbf=2#9baab81ca08828b7",
        "compress/sb=4096/mbf=32#9baab81ca08828b7",
        "compress/winner-detailed"};
    const std::vector<std::string> policies{
        "li/policy-select",
        "li/policy=decay/interval=50000/limit=3#1f50e722d5362b1e",
        "li/policy=dri/sb=4K/mb=7824#75d8e1e8265d714d",
        "li/policy=drowsy/interval=50000/wake=1#2e9ee6fa26bd9b67",
        "li/policy=ways/active=1/4#177a88dcfca639da"};
    const std::vector<std::string> multiLevel{
        "compress/ml-sb1=4096/sb2=1048576#6fb3e047f95cd5a7",
        "compress/ml-sb1=4096/sb2=65536#a39042f2b4f1fd73",
        "compress/ml-select"};
    const std::vector<std::string> cmp{
        "compress+li/cmp-l2b=65536/f=0-0",
        "compress+li/cmp-l2b=65536/f=0-1",
        "compress+li/cmp-l2b=65536/f=1-0",
        "compress+li/cmp-l2b=65536/f=1-1",
        "compress+li/cmp-select"};
    const std::vector<std::string> batch{"compress/detailed/0",
                                         "compress/detailed/1"};

    // Each search on a pool of its own (config.jobs workers) and,
    // at 4 workers, on a pool the caller owns (the bench path).
    for (const unsigned jobs : {1u, 4u, 0u}) {
        SCOPED_TRACE(jobs);
        std::optional<Executor> owned;
        if (jobs == 0)
            owned.emplace(4);
        Executor *exec = owned ? &*owned : nullptr;
        const RunConfig cfg = graphConfig(jobs == 0 ? 1 : jobs);
        RunConfig pcfg = policyCfg;
        pcfg.jobs = cfg.jobs;
        EXPECT_EQ(jobSpanNames([&] {
                      searchBestEnergyDelay(compress, cfg, l1Template(),
                                            space, constants, 4.0,
                                            conv, exec);
                  }),
                  paper);
        EXPECT_EQ(jobSpanNames([&] {
                      searchPolicies(li, pcfg, policyTmpl, policySpace,
                                     constants, 4.0, policyConv, exec);
                  }),
                  policies);
        EXPECT_EQ(jobSpanNames([&] {
                      searchMultiLevel(compress, cfg, l1Template(),
                                       l2Template(), mlSpace, constants,
                                       4.0, conv, exec);
                  }),
                  multiLevel);
        EXPECT_EQ(jobSpanNames([&] {
                      searchCmp(cfg, twoCoreMix(), "compress",
                                l1Template(), l2Template(), cmpSpace,
                                constants, 4.0, cmpConv, exec);
                  }),
                  cmp);
        EXPECT_EQ(jobSpanNames([&] {
                      evaluateDetailedBatch(compress, cfg, variants,
                                            constants, conv, exec);
                  }),
                  batch);
    }
}

/**
 * The cells of @p cells that a search served: those sharing their
 * lead with an earlier cell, or with @p leader, the run the search
 * named as every cell's leader. Each simulated run has a lead of its
 * own, and a served one hands its leader's on.
 */
template <typename Candidate>
std::vector<std::size_t>
servedCells(const std::vector<Candidate> &cells,
            const std::shared_ptr<const RunLead> &leader = nullptr)
{
    std::vector<std::size_t> served;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        bool shared = leader && cells[i].lead == leader;
        for (std::size_t j = 0; j < i; ++j)
            shared = shared ||
                     (cells[i].lead && cells[j].lead == cells[i].lead);
        if (shared)
            served.push_back(i);
    }
    return served;
}

/** @p keys[i] for each index of @p cells. */
std::vector<std::string>
keysOf(const std::vector<std::size_t> &cells,
       const std::vector<std::string> &keys)
{
    std::vector<std::string> out;
    for (const std::size_t i : cells)
        out.push_back(keys.at(i));
    return out;
}

TEST(SearchGraphs, ServedCellsArePinned)
{
    // The small grids of JobKeysArePinned (two boundaries per run),
    // with a 1 KB Dri cell added to the policy study and the paper
    // winner's 0.5x and 2x miss-bound re-runs: the job keys of the
    // cells each search serves from a sibling's run, so that a change
    // that stops serving fails here. Cell keys in grid order.
    const BenchmarkInfo &compress = findBenchmark("compress");
    const BenchmarkInfo &li = findBenchmark("li");
    const EnergyConstants constants;
    const RunOutput conv = run(compress, graphConfig(1));
    RunConfig policyCfg = graphConfig(1);
    policyCfg.hier.l1i.assoc = 4;
    const RunOutput policyConv = run(li, policyCfg);

    SearchSpace space;
    space.sizeBounds = {1024, 4096};
    space.missBoundFactors = {2.0, 32.0};
    PolicySpace policySpace;
    policySpace.driSizeBounds = {1024, 4096};
    policySpace.decayIntervals = {50000};
    policySpace.drowsyIntervals = {50000};
    policySpace.waysActive = {1};
    PolicyConfig policyTmpl;
    policyTmpl.dri.senseInterval = 50000;

    const std::vector<std::string> paperCells{
        "compress/sb=1024/mbf=2#9baab81ca08828b7",
        "compress/sb=1024/mbf=32#9baab81ca08828b7",
        "compress/sb=4096/mbf=2#9baab81ca08828b7",
        "compress/sb=4096/mbf=32#9baab81ca08828b7"};
    const std::vector<std::string> policyCells{
        "li/policy=dri/sb=1K/mb=7824#10da75b3d2d6bd81",
        "li/policy=dri/sb=4K/mb=7824#75d8e1e8265d714d",
        "li/policy=decay/interval=50000/limit=3#1f50e722d5362b1e",
        "li/policy=drowsy/interval=50000/wake=1#2e9ee6fa26bd9b67",
        "li/policy=ways/active=1/4#177a88dcfca639da"};
    const std::vector<std::string> batchCells{"compress/detailed/0",
                                              "compress/detailed/1"};

    for (const unsigned jobs : {1u, 4u, 0u}) {
        SCOPED_TRACE(jobs);
        std::optional<Executor> owned;
        if (jobs == 0)
            owned.emplace(4);
        Executor *exec = owned ? &*owned : nullptr;
        const RunConfig cfg = graphConfig(jobs == 0 ? 1 : jobs);
        RunConfig pcfg = policyCfg;
        pcfg.jobs = cfg.jobs;

        const std::uint64_t before = servedRuns();
        SearchResult sr;
        const std::vector<std::string> paperJobs = jobSpanNames([&] {
            sr = searchBestEnergyDelay(compress, cfg, l1Template(), space,
                                       constants, 4.0, conv, exec);
        });
        PolicySearchResult ps;
        const std::vector<std::string> policyJobs = jobSpanNames([&] {
            ps = searchPolicies(li, pcfg, policyTmpl, policySpace,
                                constants, 4.0, policyConv, exec);
        });
        std::vector<DriParams> variants(2, sr.best.dri);
        variants[0].missBound /= 2;
        variants[1].missBound *= 2;
        const std::vector<SearchCandidate> batch = evaluateDetailedBatch(
            compress, cfg, variants, constants, conv, exec, &sr.best);

        for (const std::string &key : paperCells)
            EXPECT_TRUE(std::count(paperJobs.begin(), paperJobs.end(), key))
                << key;
        for (const std::string &key : policyCells)
            EXPECT_TRUE(
                std::count(policyJobs.begin(), policyJobs.end(), key))
                << key;
        const std::vector<std::size_t> paper = servedCells(sr.evaluated);
        const std::vector<std::size_t> policies = servedCells(ps.evaluated);
        const std::vector<std::size_t> reruns =
            servedCells(batch, sr.best.lead);
        EXPECT_EQ(servedRuns() - before,
                  paper.size() + policies.size() + reruns.size());
        EXPECT_EQ(keysOf(paper, paperCells),
                  (std::vector<std::string>{
                      "compress/sb=1024/mbf=32#9baab81ca08828b7",
                      "compress/sb=4096/mbf=2#9baab81ca08828b7",
                      "compress/sb=4096/mbf=32#9baab81ca08828b7"}));
        EXPECT_EQ(keysOf(policies, policyCells),
                  (std::vector<std::string>{
                      "li/policy=dri/sb=4K/mb=7824#75d8e1e8265d714d"}));
        EXPECT_EQ(keysOf(reruns, batchCells),
                  (std::vector<std::string>{"compress/detailed/1"}));
    }
}

// --------------------------------------------------------------
// Search fallbacks: a constraint no cell meets (the goldens and
// the other search tests always find a feasible cell)
// --------------------------------------------------------------

/** A slowdown bound every cell of the fallback grids misses. */
constexpr double kUnmeetable = 1e-9;
/** Sense interval of the fallback grids: short enough that every
 *  cell resizes within the run. */
constexpr InstCount kShortInterval = 5000;

template <typename Candidate>
void
expectNoneFeasible(const std::vector<Candidate> &evaluated)
{
    ASSERT_FALSE(evaluated.empty());
    for (const Candidate &cand : evaluated)
        ASSERT_FALSE(cand.feasible)
            << "slowdown " << cand.cmp.slowdownPercent() << "%";
}

TEST(SearchFallback, PaperSearchRunsLeastHarmOnTheDetailedCore)
{
    const BenchmarkInfo &b = findBenchmark("compress");
    const RunConfig cfg = graphConfig(1);
    const RunOutput conv = run(b, cfg);
    const DriParams tmpl = l1Template(kShortInterval);
    SearchSpace space;
    space.sizeBounds = {1024, 4096};
    space.missBoundFactors = {2.0};
    const SearchResult sr = searchBestEnergyDelay(
        b, cfg, tmpl, space, EnergyConstants{}, kUnmeetable, conv);
    expectNoneFeasible(sr.evaluated);

    // Least harm at the fast model's conventional miss rate, run on
    // the detailed core.
    const FastCalibration cal = calibrateFast(b, cfg, conv);
    const RunOutput convFast = run(b, cfg, {ConventionalL1i{}, &cal});
    const DriParams fallback = leastHarm(
        tmpl, space.missBoundFloor,
        missesPerInterval(convFast.meas.l1iMisses,
                          static_cast<double>(cfg.maxInstrs),
                          tmpl.senseInterval));
    EXPECT_EQ(sr.best.dri.sizeBoundBytes, fallback.sizeBoundBytes);
    EXPECT_EQ(sr.best.dri.missBound, fallback.missBound);
    EXPECT_EQ(sr.best.out.meas.cycles,
              run(b, cfg, {fallback}).meas.cycles);
    EXPECT_EQ(sr.best.configHash,
              runKey(b, cfg, {fallback}).hashHex());
    EXPECT_EQ(sr.best.feasible,
              sr.best.cmp.meetsSlowdown(kUnmeetable));
}

TEST(SearchFallback, PolicySearchKeepsLeastSlowdownAndMarksEmptyKinds)
{
    const BenchmarkInfo &b = findBenchmark("li");
    RunConfig cfg = graphConfig(1);
    cfg.hier.l1i.assoc = 4;
    const RunOutput conv = run(b, cfg);
    PolicyConfig tmpl;
    tmpl.dri.senseInterval = kShortInterval;
    PolicySpace space;
    space.driSizeBounds = {1024, 4096};
    space.decayIntervals = {5000, 10000};
    space.drowsyIntervals = {5000, 10000};
    space.waysActive = {0, 99}; // outside [1, assoc]: no cells
    const PolicySearchResult sr = searchPolicies(
        b, cfg, tmpl, space, EnergyConstants{}, kUnmeetable, conv);
    expectNoneFeasible(sr.evaluated);
    ASSERT_EQ(sr.bestPerKind.size(), space.kinds.size());

    for (std::size_t k = 0; k < space.kinds.size(); ++k) {
        SCOPED_TRACE(policyKindName(space.kinds[k]));
        const PolicyCandidate &best = sr.bestPerKind[k];
        EXPECT_EQ(best.config.kind, space.kinds[k]);
        EXPECT_FALSE(best.feasible);
        // The first of the kind's least-slowdown cells.
        const PolicyCandidate *least = nullptr;
        for (const PolicyCandidate &cand : sr.evaluated)
            if (cand.config.kind == space.kinds[k] &&
                (!least || cand.cmp.slowdownPercent() <
                               least->cmp.slowdownPercent()))
                least = &cand;
        if (space.kinds[k] == PolicyKind::StaticWays) {
            // The empty marker: no cell, no run, no identity.
            EXPECT_EQ(least, nullptr);
            EXPECT_EQ(best.out.meas.cycles, 0u);
            EXPECT_TRUE(best.configHash.empty());
            continue;
        }
        ASSERT_NE(least, nullptr);
        EXPECT_EQ(best.config.paramSummary(),
                  least->config.paramSummary());
        EXPECT_EQ(best.out.meas.cycles,
                  run(b, cfg, {least->config}).meas.cycles);
        EXPECT_EQ(best.configHash,
                  runKey(b, cfg, {least->config}).hashHex());
    }
}

TEST(SearchFallback, MultiLevelSearchRunsLeastHarmAtBothLevels)
{
    const BenchmarkInfo &b = findBenchmark("compress");
    const RunConfig cfg = graphConfig(1);
    const RunOutput conv = run(b, cfg);
    const DriParams l1Tmpl = l1Template(kShortInterval);
    const DriParams l2Tmpl = l2Template(kShortInterval);
    MultiLevelSpace space;
    space.l1SizeBounds = {1024};
    space.l2SizeBounds = {64 * 1024};
    const MultiLevelSearchResult sr =
        searchMultiLevel(b, cfg, l1Tmpl, l2Tmpl, space,
                         EnergyConstants{}, kUnmeetable, conv);
    expectNoneFeasible(sr.evaluated);

    const double instrs = static_cast<double>(cfg.maxInstrs);
    const DriParams l1 = leastHarm(
        driParamsForLevel(cfg.hier.l1i, l1Tmpl), space.missBoundFloor,
        missesPerInterval(conv.meas.l1iMisses, instrs,
                          l1Tmpl.senseInterval));
    RunConfig fallback = cfg;
    fallback.hier.l2Dri = true;
    fallback.hier.l2DriParams = leastHarm(
        driParamsForLevel(cfg.hier.l2, l2Tmpl), space.missBoundFloor,
        missesPerInterval(conv.l2Misses, instrs, l2Tmpl.senseInterval));
    EXPECT_EQ(sr.best.l1.missBound, l1.missBound);
    EXPECT_EQ(sr.best.l2.missBound,
              fallback.hier.l2DriParams.missBound);
    EXPECT_EQ(sr.best.out.meas.cycles,
              run(b, fallback, {l1}).meas.cycles);
    EXPECT_EQ(sr.best.configHash,
              runKey(b, fallback, {l1}).hashHex());
}

TEST(SearchFallback, CmpSearchRunsLeastHarmOnEveryCoreAndTheL2)
{
    const RunConfig cfg = graphConfig(1);
    const CmpConfig mix = twoCoreMix();
    const CmpRunOutput conv = runCmp(cfg, mix, "compress");
    const DriParams l1Tmpl = l1Template(kShortInterval);
    const DriParams l2Tmpl = l2Template(kShortInterval);
    CmpSpace space;
    space.l1MissBoundFactors = {32.0};
    space.l2SizeBounds = {64 * 1024};
    const CmpSearchResult sr =
        searchCmp(cfg, mix, "compress", l1Tmpl, l2Tmpl, space,
                  EnergyConstants{}, kUnmeetable, conv);
    expectNoneFeasible(sr.evaluated);

    // Each core's least harm at its own conventional miss rate; the
    // L2's over every core's instructions.
    const DriParams l1Base = driParamsForLevel(cfg.hier.l1i, l1Tmpl);
    const DriParams l2Base = driParamsForLevel(cfg.hier.l2, l2Tmpl);
    CmpConfig cells = mix;
    double totalInstrs = 0.0;
    for (unsigned k = 0; k < mix.cores; ++k) {
        cells.coreConfigs[k].l1i = PolicyConfig{
            .dri = leastHarm(
                l1Base, space.missBoundFloor,
                missesPerInterval(conv.cores[k].meas.l1iMisses,
                                  static_cast<double>(cfg.maxInstrs),
                                  l1Base.senseInterval))};
        totalInstrs +=
            static_cast<double>(conv.cores[k].meas.instructions);
    }
    RunConfig fallback = cfg;
    fallback.hier.l2Dri = true;
    fallback.hier.l2DriParams =
        leastHarm(l2Base, space.missBoundFloor,
                  missesPerInterval(conv.l2Misses, totalInstrs,
                                    l2Base.senseInterval));
    ASSERT_EQ(sr.best.l1.size(), 2u);
    for (unsigned k = 0; k < mix.cores; ++k)
        EXPECT_EQ(sr.best.l1[k].missBound,
                  cells.coreConfigs[k].l1i->dri.missBound);
    EXPECT_EQ(sr.best.l2.missBound,
              fallback.hier.l2DriParams.missBound);
    EXPECT_EQ(sr.best.out.systemCycles,
              runCmp(fallback, cells, "compress").systemCycles);
    EXPECT_EQ(sr.best.configHash,
              runKeyCmp(fallback, cells, "compress").hashHex());
}

// --------------------------------------------------------------
// ThreadSanitizer smoke: concurrent harness runs (exercises the
// shared program-image cache and every per-run object under real
// parallelism; run with DRISIM_SANITIZE=thread in CI)
// --------------------------------------------------------------

TEST(Executor, ConcurrentRunnersShareImagesSafely)
{
    const RunConfig cfg = searchConfig(0);
    const char *names[] = {"compress", "li", "mgrid", "applu"};

    // Serial reference.
    std::vector<std::uint64_t> refCycles;
    for (const char *n : names) {
        const auto out = run(findBenchmark(n), cfg);
        refCycles.push_back(out.meas.cycles);
    }

    // Two parallel lanes per benchmark, all workers hammering the
    // image cache at once.
    std::vector<std::uint64_t> cycles(8, 0);
    Executor exec(4);
    exec.forEachIndex(
        "tsan-smoke", 8, [&](std::size_t i, const JobContext &) {
            const auto &bench = findBenchmark(names[i % 4]);
            cycles[i] = run(bench, cfg).meas.cycles;
        });
    for (std::size_t i = 0; i < cycles.size(); ++i)
        EXPECT_EQ(cycles[i], refCycles[i % 4]) << names[i % 4];
}

} // namespace
} // namespace drisim
