/**
 * @file
 * The bench binaries' command line: the rows each binary takes
 * (config/options.hh), the spellings perfbench/run.py,
 * .github/workflows/ci.yml and tools/farm_runner pass,
 * --dram-banked's MSHR defaults, and the flags a binary rejects.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace drisim::bench
{
namespace
{

bool
parse(unsigned binary, std::initializer_list<const char *> args,
      BenchContext &ctx, std::string &err)
{
    std::vector<const char *> argv{"bench"};
    argv.insert(argv.end(), args.begin(), args.end());
    ctx = defaultContext();
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data(),
                          binary, ctx, err);
}

std::set<std::string>
rowNames(unsigned binary)
{
    std::set<std::string> names;
    for (const Knob *row : knobRows(binary))
        names.insert(row->name);
    return names;
}

TEST(BenchArgs, EachBinaryTakesTheFlagsItAlwaysTook)
{
    std::set<std::string> table{
        "jobs",   "list",    "json",    "sample",
        "checkpoint_dir",    "result_cache",
        "trace",  "metrics", "metrics.interval",
        "dram.banked"};
    EXPECT_EQ(rowNames(kTableBench), table);
    std::set<std::string> sweep = table;
    sweep.insert({"shard", "part"});
    EXPECT_EQ(rowNames(kSweepBench), sweep);
    std::set<std::string> withShort = sweep;
    withShort.insert("short");
    EXPECT_EQ(rowNames(kShortBench), withShort);
    std::set<std::string> cmp = sweep;
    cmp.insert({"cores", "coherent"});
    EXPECT_EQ(rowNames(kCmpBench), cmp);
}

TEST(BenchArgs, DefaultsAreTheStudiesDefaults)
{
    BenchContext ctx;
    std::string err;
    ASSERT_TRUE(parse(kCmpBench, {}, ctx, err)) << err;
    EXPECT_EQ(ctx.opts.cores, 2u);
    EXPECT_EQ(ctx.opts.dri.senseInterval, 100000u);
    EXPECT_EQ(ctx.opts.dri.divisibility, 2u);
    EXPECT_EQ(ctx.opts.run.jobs, 0u);
    EXPECT_FALSE(ctx.opts.run.hier.dram.banked);
    EXPECT_EQ(ctx.opts.run.hier.l1i.mshrs, 0u);
    EXPECT_EQ(ctx.opts.dri.mshrs, 0u);
    EXPECT_FALSE(ctx.opts.coherent);
    EXPECT_FALSE(ctx.opts.list);
    EXPECT_FALSE(ctx.opts.run.shard.active());
}

TEST(BenchArgs, PerfbenchSpellings)
{
    BenchContext ctx;
    std::string err;
    ASSERT_TRUE(parse(kShortBench,
                      {"--jobs", "4", "--json", "r.json", "--shard",
                       "3/64"},
                      ctx, err))
        << err;
    EXPECT_EQ(ctx.opts.run.jobs, 4u);
    EXPECT_EQ(ctx.opts.jsonPath, "r.json");
    EXPECT_EQ(ctx.opts.run.shard.spec(), "3/64");

    ASSERT_TRUE(parse(kCmpBench,
                      {"--cores", "4", "--coherent", "--dram-banked",
                       "--jobs", "4"},
                      ctx, err))
        << err;
    EXPECT_EQ(ctx.opts.cores, 4u);
    EXPECT_TRUE(ctx.opts.coherent);
    EXPECT_TRUE(ctx.opts.run.hier.dram.banked);
    EXPECT_EQ(ctx.opts.run.jobs, 4u);
}

TEST(BenchArgs, FarmRunnerSpellings)
{
    BenchContext ctx;
    std::string err;
    ASSERT_TRUE(parse(kShortBench,
                      {"--jobs", "1", "--result-cache", "c.json",
                       "--shard=2/3", "--part=s2.part.json",
                       "--trace=s2.trace.json"},
                      ctx, err))
        << err;
    EXPECT_EQ(ctx.opts.run.jobs, 1u);
    ASSERT_NE(ctx.opts.run.resultCache, nullptr);
    EXPECT_EQ(ctx.opts.run.resultCache->path(), "c.json");
    EXPECT_EQ(ctx.opts.run.shard.spec(), "2/3");
    EXPECT_EQ(ctx.opts.partPath, "s2.part.json");
    EXPECT_EQ(ctx.opts.tracePath, "s2.trace.json");
}

TEST(BenchArgs, CiSpellings)
{
    BenchContext ctx;
    std::string err;
    ASSERT_TRUE(parse(kShortBench,
                      {"--short", "--jobs", "4", "--part", "f.json"},
                      ctx, err))
        << err;
    EXPECT_TRUE(ctx.opts.shortRun);
    EXPECT_EQ(ctx.opts.partPath, "f.json");

    ASSERT_TRUE(parse(kShortBench,
                      {"--jobs", "4", "--checkpoint-dir", "ckpt",
                       "--result-cache", "results.json"},
                      ctx, err))
        << err;
    EXPECT_EQ(ctx.opts.run.checkpointDir, "ckpt");
    EXPECT_EQ(ctx.opts.run.resultCache->path(), "results.json");

    ASSERT_TRUE(parse(kShortBench,
                      {"--short", "--jobs", "4", "--trace", "t.json",
                       "--metrics", "m.csv", "--metrics-interval",
                       "5000", "--sample"},
                      ctx, err))
        << err;
    EXPECT_EQ(ctx.opts.tracePath, "t.json");
    EXPECT_EQ(ctx.opts.metricsPath, "m.csv");
    EXPECT_EQ(ctx.opts.metricsInterval, 5000u);
    EXPECT_TRUE(ctx.opts.run.sampling.enabled);

    ASSERT_TRUE(parse(kCmpBench,
                      {"--cores", "2", "--coherent", "--jobs", "4"},
                      ctx, err))
        << err;
    EXPECT_EQ(ctx.opts.cores, 2u);
    EXPECT_TRUE(ctx.opts.coherent);

    ASSERT_TRUE(parse(kCmpBench, {"--list"}, ctx, err)) << err;
    EXPECT_TRUE(ctx.opts.list);
}

TEST(BenchArgs, JobsAndCoresReadInEverySpelling)
{
    for (const std::vector<const char *> &args :
         std::vector<std::vector<const char *>>{{"--jobs", "4"},
                                                {"--jobs=4"},
                                                {"-j", "4"},
                                                {"jobs=4"}}) {
        BenchContext ctx = defaultContext();
        std::vector<const char *> argv{"bench"};
        argv.insert(argv.end(), args.begin(), args.end());
        std::string err;
        ASSERT_TRUE(parseBenchArgs(static_cast<int>(argv.size()),
                                   argv.data(), kTableBench, ctx, err))
            << err;
        EXPECT_EQ(ctx.opts.run.jobs, 4u) << args[0];
    }
    BenchContext ctx;
    std::string err;
    for (const char *spelling : {"cores=3", "--cores=3"}) {
        ASSERT_TRUE(parse(kCmpBench, {spelling}, ctx, err)) << err;
        EXPECT_EQ(ctx.opts.cores, 3u);
    }
}

TEST(BenchArgs, DramBankedBringsMshrFiles)
{
    BenchContext ctx;
    std::string err;
    for (const char *spelling :
         {"--dram-banked", "--dram-banked=1", "dram.banked=1"}) {
        ASSERT_TRUE(parse(kSweepBench, {spelling}, ctx, err)) << err;
        EXPECT_TRUE(ctx.opts.run.hier.dram.banked);
        EXPECT_EQ(ctx.opts.run.hier.l1i.mshrs, 4u);
        EXPECT_EQ(ctx.opts.run.hier.l1d.mshrs, 4u);
        EXPECT_EQ(ctx.opts.run.hier.l2.mshrs, 8u);
        EXPECT_EQ(ctx.opts.dri.mshrs, 4u);
    }
    ASSERT_TRUE(parse(kSweepBench, {"dram.banked=0"}, ctx, err));
    EXPECT_EQ(ctx.opts.run.hier.l1i.mshrs, 0u);
    // No bench binary takes an MSHR row, so nothing overrides them.
    EXPECT_FALSE(parse(kCmpBench, {"--dram-banked", "l1.mshrs=2"},
                       ctx, err));
}

TEST(BenchArgs, RejectsFlagsABinaryNeverTook)
{
    BenchContext ctx;
    std::string err;
    for (const unsigned b : {kTableBench, kSweepBench, kShortBench}) {
        EXPECT_FALSE(parse(b, {"--cores", "2"}, ctx, err));
        EXPECT_FALSE(parse(b, {"cores=2"}, ctx, err));
        EXPECT_FALSE(parse(b, {"--coherent"}, ctx, err));
    }
    for (const unsigned b : {kTableBench, kSweepBench, kCmpBench})
        EXPECT_FALSE(parse(b, {"--short"}, ctx, err));
    EXPECT_FALSE(parse(kTableBench, {"--shard", "1/2"}, ctx, err));
    EXPECT_FALSE(parse(kTableBench, {"--part", "p.json"}, ctx, err));
    EXPECT_NE(err.find("unknown option '--part'"), std::string::npos)
        << err;
    // Simulator knobs only quickstart takes, and bare tokens.
    EXPECT_FALSE(parse(kShortBench, {"--l1i-size", "32K"}, ctx, err));
    EXPECT_FALSE(parse(kShortBench, {"instrs=1000"}, ctx, err));
    EXPECT_FALSE(parse(kShortBench, {"compress"}, ctx, err));
    EXPECT_NE(err.find("unexpected argument 'compress'"),
              std::string::npos)
        << err;
    EXPECT_FALSE(parse(kShortBench, {"--jobs"}, ctx, err));
    EXPECT_FALSE(parse(kShortBench, {"--jobs", "-1"}, ctx, err));
    EXPECT_FALSE(parse(kCmpBench, {"--cores", "0"}, ctx, err));
    EXPECT_FALSE(parse(kCmpBench, {"--cores", "65"}, ctx, err));
    EXPECT_FALSE(parse(kSweepBench, {"--shard", "0/3"}, ctx, err));
}

TEST(BenchArgs, RejectsAnEmptyValueInEverySpelling)
{
    BenchContext ctx;
    std::string err;
    for (const char *name : {"result_cache", "json", "trace", "metrics",
                             "checkpoint_dir", "part"}) {
        std::string flag = std::string("--") + name;
        for (char &c : flag)
            if (c == '_')
                c = '-';
        const std::string eq = flag + "=";
        const std::string key = std::string(name) + "=";
        EXPECT_FALSE(parse(kShortBench, {eq.c_str()}, ctx, err)) << eq;
        EXPECT_NE(err.find(name), std::string::npos) << err;
        EXPECT_FALSE(parse(kShortBench, {flag.c_str(), ""}, ctx, err))
            << flag;
        EXPECT_FALSE(parse(kShortBench, {key.c_str()}, ctx, err))
            << key;
    }
}

TEST(BenchArgs, MetricsIntervalHasOneBound)
{
    BenchContext ctx;
    std::string err;
    for (const char *ok : {"--metrics-interval=1099511627776",
                           "metrics.interval=1099511627776"})
        EXPECT_TRUE(parse(kShortBench, {ok}, ctx, err)) << err;
    for (const char *bad : {"--metrics-interval=1099511627777",
                            "metrics.interval=1099511627777",
                            "--metrics-interval=0"})
        EXPECT_FALSE(parse(kShortBench, {bad}, ctx, err)) << bad;
}

} // namespace
} // namespace drisim::bench
