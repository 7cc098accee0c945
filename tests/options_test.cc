/**
 * @file
 * Option-parser tests over the knob table (config/options.hh): the
 * key guard (every row reaches exactly the run identity it
 * declares, so the result cache and checkpoint store can never
 * serve stale artifacts across a knob), spelling equivalence in
 * every binary's row set, and the values each row rejects.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "config/options.hh"
#include "harness/runner.hh"
#include "util/logging.hh"
#include "workload/spec_suite.hh"

namespace drisim
{
namespace
{

/** Every shared row: the union of every binary's set. */
std::vector<const Knob *>
allRows()
{
    return knobRows(kBinaryEnd - 1);
}

bool
parseWith(const std::vector<const Knob *> &rows,
          const std::vector<std::string> &args, Options &out,
          std::string &err)
{
    std::vector<const char *> argv{"prog"};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return parseArgs(static_cast<int>(argv.size()), argv.data(), rows,
                     out, err);
}

bool
parse(std::initializer_list<const char *> args, Options &out,
      std::string &err)
{
    return parseWith(allRows(), {args.begin(), args.end()}, out, err);
}

TEST(Options, Defaults)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({}, o, err));
    EXPECT_EQ(o.benchmark, "compress");
    EXPECT_EQ(o.dri.sizeBytes, 64u * 1024);
}

TEST(Options, ParsesRunAndBenchmark)
{
    Options o;
    std::string err;
    ASSERT_TRUE(
        parse({"instrs=500000", "benchmark=gcc"}, o, err));
    EXPECT_EQ(o.run.maxInstrs, 500000u);
    EXPECT_EQ(o.benchmark, "gcc");
}

TEST(Options, ParsesGeometryWithSuffixes)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"l1i.size=128K", "l1i.assoc=4",
                       "l1i.block=64"},
                      o, err));
    EXPECT_EQ(o.run.hier.l1i.sizeBytes, 128u * 1024);
    EXPECT_EQ(o.dri.sizeBytes, 128u * 1024);
    EXPECT_EQ(o.dri.assoc, 4u);
    EXPECT_EQ(o.dri.blockBytes, 64u);
    EXPECT_EQ(o.run.core.fetchBlockBytes, 64u);
}

TEST(Options, ParsesDriKnobs)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"dri.size_bound=2K", "dri.miss_bound=123",
                       "dri.interval=50000", "dri.divisibility=4",
                       "dri.throttle_hold=7", "dri.adaptive=0"},
                      o, err));
    EXPECT_EQ(o.dri.sizeBoundBytes, 2048u);
    EXPECT_EQ(o.dri.missBound, 123u);
    EXPECT_EQ(o.dri.senseInterval, 50000u);
    EXPECT_EQ(o.dri.divisibility, 4u);
    EXPECT_EQ(o.dri.throttleHoldIntervals, 7u);
    EXPECT_FALSE(o.dri.adaptive);
}

TEST(Options, CollectsUnknownKeys)
{
    // Unknown keys are errors in every binary, named on the first
    // line of the message.
    Options o;
    std::string err;
    EXPECT_FALSE(parse({"nonsense=1", "instrs=10"}, o, err));
    EXPECT_EQ(err.rfind("unknown option 'nonsense=1'", 0), 0u) << err;
    EXPECT_FALSE(parse({"--nonsense", "1"}, o, err));
    EXPECT_FALSE(parse({"--nonsense=1"}, o, err));
}

TEST(Options, RejectsMalformedTokens)
{
    Options o;
    std::string err;
    // A bare token is a positional only where the binary takes one.
    EXPECT_FALSE(parseWith(knobRows(kTableBench), {"no_equals"}, o,
                           err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parse({"=value"}, o, err));
    EXPECT_FALSE(parse({"-x"}, o, err));
}

TEST(Options, RejectsBadValues)
{
    Options o;
    std::string err;
    EXPECT_FALSE(parse({"instrs=abc"}, o, err));
    EXPECT_FALSE(parse({"instrs=0"}, o, err));
    EXPECT_FALSE(parse({"l1i.size=banana"}, o, err));
    EXPECT_FALSE(parse({"dri.divisibility=1"}, o, err));
    EXPECT_FALSE(parse({"dri.adaptive=maybe"}, o, err));
}

TEST(Options, ParsesFastSimKeys)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"sample=1", "sample.window=5000",
                       "sample.period=40000",
                       "checkpoint_dir=/tmp/ck",
                       "result_cache=/tmp/rc.json"},
                      o, err));
    EXPECT_TRUE(o.run.sampling.enabled);
    EXPECT_EQ(o.run.sampling.detailedWindow, 5000u);
    EXPECT_EQ(o.run.sampling.period, 40000u);
    EXPECT_EQ(o.run.checkpointDir, "/tmp/ck");
    ASSERT_NE(o.run.resultCache, nullptr);
    EXPECT_EQ(o.run.resultCache->path(), "/tmp/rc.json");
}

TEST(Options, FastSimDefaultsOff)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"instrs=10"}, o, err));
    EXPECT_FALSE(o.run.sampling.enabled);
    EXPECT_TRUE(o.run.checkpointDir.empty());
    EXPECT_EQ(o.run.resultCache, nullptr);
}

TEST(Options, RejectsBadFastSimValues)
{
    Options o;
    std::string err;
    EXPECT_FALSE(parse({"sample=maybe"}, o, err));
    EXPECT_FALSE(parse({"sample.window=0"}, o, err));
    EXPECT_FALSE(parse({"sample.period=-1"}, o, err));
    EXPECT_FALSE(parse({"checkpoint_dir="}, o, err));
    EXPECT_FALSE(parse({"result_cache="}, o, err));
}

TEST(Options, RejectsASampleWindowThatFillsItsPeriod)
{
    // The sampler needs 0 < window < period; with sampling on, a
    // window at or above the period is a bad command line naming
    // sample.window, not an abort mid-run.
    for (const char *window : {"sample.window=2000", "sample.window=1000"}) {
        Options o;
        std::string err;
        EXPECT_FALSE(
            parse({"sample=1", window, "sample.period=1000"}, o, err))
            << window;
        EXPECT_EQ(err.rfind("bad value for 'sample.window'", 0), 0u) << err;
    }
    // Off, the pair is never read; below the period it samples.
    Options o;
    std::string err;
    EXPECT_TRUE(parse({"sample.window=2000", "sample.period=1000"}, o, err))
        << err;
    EXPECT_TRUE(parse({"sample=1", "sample.window=999",
                       "sample.period=1000"},
                      o, err))
        << err;
}

TEST(Options, ParsesObservabilityKeys)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"trace=/tmp/t.json", "metrics=/tmp/m.csv",
                       "metrics.interval=50000"},
                      o, err));
    EXPECT_EQ(o.tracePath, "/tmp/t.json");
    EXPECT_EQ(o.metricsPath, "/tmp/m.csv");
    EXPECT_EQ(o.metricsInterval, 50000u);
    // Defaults: both sinks off, interval 0 (= library default).
    Options d;
    ASSERT_TRUE(parse({}, d, err));
    EXPECT_TRUE(d.tracePath.empty());
    EXPECT_TRUE(d.metricsPath.empty());
    EXPECT_EQ(d.metricsInterval, 0u);
    EXPECT_FALSE(parse({"trace="}, o, err));
    EXPECT_FALSE(parse({"metrics="}, o, err));
    EXPECT_FALSE(parse({"metrics.interval=0"}, o, err));
    EXPECT_FALSE(parse({"metrics.interval=-1"}, o, err));
}

TEST(Options, ParsesL2GeometryAndDriKnobs)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"l2.size=512K", "l2.assoc=8", "l2.block=128",
                       "l2.dri=1", "l2.size_bound=32K",
                       "l2.miss_bound=40", "l2.interval=200000"},
                      o, err));
    EXPECT_EQ(o.run.hier.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(o.run.hier.l2.assoc, 8u);
    EXPECT_EQ(o.run.hier.l2.blockBytes, 128u);
    EXPECT_TRUE(o.run.hier.l2Dri);
    EXPECT_EQ(o.run.hier.l2DriParams.sizeBoundBytes, 32u * 1024);
    EXPECT_EQ(o.run.hier.l2DriParams.missBound, 40u);
    EXPECT_EQ(o.run.hier.l2DriParams.senseInterval, 200000u);
}

TEST(Options, L2DriDefaultsOff)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({}, o, err));
    EXPECT_FALSE(o.run.hier.l2Dri);
    ASSERT_TRUE(parse({"l2.dri=0"}, o, err));
    EXPECT_FALSE(o.run.hier.l2Dri);
}

TEST(Options, RejectsBadL2Values)
{
    Options o;
    std::string err;
    EXPECT_FALSE(parse({"l2.size=banana"}, o, err));
    EXPECT_FALSE(parse({"l2.dri=maybe"}, o, err));
    EXPECT_FALSE(parse({"l2.interval=0"}, o, err));
    EXPECT_FALSE(parse({"l2.size_bound=0"}, o, err));
}

TEST(Options, UsageMentionsEveryKey)
{
    const std::string u = knobUsage("prog", allRows());
    for (const char *key :
         {"instrs", "benchmark", "l1i.size", "l1i.assoc",
          "l1i.block", "dri.size_bound", "dri.miss_bound",
          "dri.interval", "dri.divisibility", "dri.throttle_hold",
          "dri.adaptive", "l2.size", "l2.assoc", "l2.block",
          "l2.dri", "l2.size_bound", "l2.miss_bound",
          "l2.interval", "cores", "coreK.bench", "coreK.dri",
          "sample", "sample.window", "sample.period",
          "checkpoint_dir", "result_cache", "trace", "metrics",
          "metrics.interval", "l1.mshrs", "l2.mshrs",
          "dram.banked", "dram.banks", "dram.row_hit",
          "dram.row_miss", "dram.queue"})
        EXPECT_NE(u.find(key), std::string::npos) << key;
}

TEST(Options, ParsesMemorySystemKeys)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"l1.mshrs=4", "l2.mshrs=8", "dram.banked=1",
                       "dram.banks=16", "dram.row_hit=30",
                       "dram.row_miss=90", "dram.queue=4"},
                      o, err));
    // l1.mshrs reaches both private L1s and the DRI template.
    EXPECT_EQ(o.run.hier.l1i.mshrs, 4u);
    EXPECT_EQ(o.run.hier.l1d.mshrs, 4u);
    EXPECT_EQ(o.dri.mshrs, 4u);
    EXPECT_EQ(o.run.hier.l2.mshrs, 8u);
    EXPECT_TRUE(o.run.hier.dram.banked);
    EXPECT_EQ(o.run.hier.dram.banks, 16u);
    EXPECT_EQ(o.run.hier.dram.rowHitLatency, 30u);
    EXPECT_EQ(o.run.hier.dram.rowMissLatency, 90u);
    EXPECT_EQ(o.run.hier.dram.queueDepth, 4u);
}

TEST(Options, MemorySystemDefaultsToBlockingFlat)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({}, o, err));
    EXPECT_EQ(o.run.hier.l1i.mshrs, 0u);
    EXPECT_EQ(o.run.hier.l1d.mshrs, 0u);
    EXPECT_EQ(o.run.hier.l2.mshrs, 0u);
    EXPECT_EQ(o.dri.mshrs, 0u);
    EXPECT_FALSE(o.run.hier.dram.banked);
}

TEST(Options, RejectsBadMemorySystemValues)
{
    Options o;
    std::string err;
    EXPECT_FALSE(parse({"l1.mshrs=-1"}, o, err));
    EXPECT_FALSE(parse({"l1.mshrs=257"}, o, err));
    EXPECT_FALSE(parse({"l2.mshrs=banana"}, o, err));
    EXPECT_FALSE(parse({"dram.banked=maybe"}, o, err));
    EXPECT_FALSE(parse({"dram.banks=0"}, o, err));
    EXPECT_FALSE(parse({"dram.banks=65"}, o, err));
    EXPECT_FALSE(parse({"dram.row_hit=0"}, o, err));
    EXPECT_FALSE(parse({"dram.row_miss=-1"}, o, err));
    EXPECT_FALSE(parse({"dram.queue=0"}, o, err));
    EXPECT_FALSE(parse({"dram.queue=1025"}, o, err));
    // MSHRs may be disabled explicitly.
    EXPECT_TRUE(parse({"l1.mshrs=0", "l2.mshrs=0"}, o, err));
}

/** Combined canonical form of every single-core run-key flavour:
 *  a knob is "semantic" iff changing it changes this string. */
std::string
canonicalOf(const Options &o)
{
    const BenchmarkInfo &b = findBenchmark(o.benchmark);
    return runKey(b, o.run).canonical() + "|" +
           runKey(b, o.run, {o.dri}).canonical() + "|" +
           runKey(b, o.run, {o.policyConfig()}).canonical();
}

/** The canonical key of the CMP run the options describe. */
std::string
canonicalCmpOf(const Options &o)
{
    return runKeyCmp(o.run, o.cmpConfig(true), o.benchmark)
        .canonical();
}

/** Everything a parse can set: both keys plus the execution-only
 *  fields. Two spellings of a knob must agree on all of it. */
std::string
fingerprintOf(const Options &o)
{
    std::ostringstream f;
    f << canonicalOf(o) << "|" << canonicalCmpOf(o) << "|"
      << o.run.jobs << "|" << o.run.shard.spec() << "|"
      << o.run.checkpointDir << "|"
      << (o.run.resultCache ? o.run.resultCache->path() : "-") << "|"
      << o.tracePath << "|" << o.metricsPath << "|"
      << o.metricsInterval << "|" << o.list << "|" << o.jsonPath
      << "|" << o.shortRun << "|" << o.partPath << "|" << o.coherent
      << "|" << o.cores;
    return f.str();
}

/**
 * One probe per row: @p base is the context that makes a
 * conditional key column appear (sample.window enters the key only
 * once sampling is on), and @p variant a non-default value of the
 * row itself, in key spelling.
 */
struct Probe
{
    std::vector<std::string> base;
    std::string variant;
};

const std::map<std::string, Probe> &
probes()
{
    static const std::map<std::string, Probe> p{
        {"benchmark", {{}, "benchmark=gcc"}},
        {"instrs", {{}, "instrs=1234"}},
        {"jobs", {{}, "jobs=4"}},
        {"cores", {{}, "cores=2"}},
        {"list", {{}, "list=1"}},
        {"json", {{}, "json=/tmp/r.json"}},
        {"short", {{}, "short=1"}},
        {"shard", {{}, "shard=2/3"}},
        {"part", {{}, "part=/tmp/p.json"}},
        {"coherent", {{}, "coherent=1"}},
        {"sample", {{}, "sample=1"}},
        {"sample.window", {{"sample=1"}, "sample.window=5000"}},
        {"sample.period", {{"sample=1"}, "sample.period=400000"}},
        {"checkpoint_dir", {{}, "checkpoint_dir=/tmp/ck"}},
        {"result_cache", {{}, "result_cache=/tmp/rc.json"}},
        {"trace", {{}, "trace=/tmp/t.json"}},
        {"metrics", {{}, "metrics=/tmp/m.csv"}},
        {"metrics.interval", {{}, "metrics.interval=5000"}},
        {"l1i.size", {{}, "l1i.size=128K"}},
        {"l1i.assoc", {{}, "l1i.assoc=4"}},
        {"l1i.block", {{}, "l1i.block=64"}},
        {"dri.size_bound", {{}, "dri.size_bound=2K"}},
        {"dri.miss_bound", {{}, "dri.miss_bound=123"}},
        {"dri.interval", {{}, "dri.interval=50000"}},
        {"dri.divisibility", {{}, "dri.divisibility=4"}},
        {"dri.throttle_hold", {{}, "dri.throttle_hold=7"}},
        {"dri.adaptive", {{}, "dri.adaptive=0"}},
        {"policy", {{}, "policy=decay"}},
        {"policy.decay.interval", {{}, "policy.decay.interval=40000"}},
        {"policy.decay.limit", {{}, "policy.decay.limit=2"}},
        {"policy.drowsy.interval", {{}, "policy.drowsy.interval=50000"}},
        {"policy.drowsy.wake", {{}, "policy.drowsy.wake=2"}},
        {"policy.ways.active", {{}, "policy.ways.active=3"}},
        {"l2.size", {{}, "l2.size=512K"}},
        {"l2.assoc", {{}, "l2.assoc=8"}},
        {"l2.block", {{}, "l2.block=128"}},
        {"l2.dri", {{}, "l2.dri=1"}},
        {"l2.size_bound", {{"l2.dri=1"}, "l2.size_bound=32K"}},
        {"l2.miss_bound", {{"l2.dri=1"}, "l2.miss_bound=40"}},
        {"l2.interval", {{"l2.dri=1"}, "l2.interval=200000"}},
        {"l1.mshrs", {{}, "l1.mshrs=4"}},
        {"l2.mshrs", {{}, "l2.mshrs=8"}},
        {"dram.banked", {{}, "dram.banked=1"}},
        {"dram.banks", {{"dram.banked=1"}, "dram.banks=16"}},
        {"dram.row_hit", {{"dram.banked=1"}, "dram.row_hit=30"}},
        {"dram.row_miss", {{"dram.banked=1"}, "dram.row_miss=90"}},
        {"dram.queue", {{"dram.banked=1"}, "dram.queue=4"}},
        {"coherence", {{"cores=2"}, "coherence=1"}},
        {"coherence.entries",
         {{"cores=2", "coherence=1"}, "coherence.entries=64"}},
        {"coherence.msg_latency",
         {{"cores=2", "coherence=1"}, "coherence.msg_latency=9"}},
        {"coreK.bench", {{"cores=2"}, "core1.bench=li"}},
        {"coreK.dri", {{"cores=2"}, "core1.dri=0"}},
        {"coreK.dri.size_bound",
         {{"cores=2"}, "core1.dri.size_bound=2K"}},
        {"coreK.dri.miss_bound",
         {{"cores=2"}, "core1.dri.miss_bound=77"}},
        {"coreK.dri.interval", {{"cores=2"}, "core1.dri.interval=5000"}},
        {"coreK.policy", {{"cores=2"}, "core1.policy=decay"}},
        {"coreK.policy.decay.interval",
         {{"cores=2", "policy=decay"},
          "core1.policy.decay.interval=40000"}},
        {"coreK.policy.decay.limit",
         {{"cores=2", "policy=decay"}, "core1.policy.decay.limit=2"}},
        {"coreK.policy.drowsy.interval",
         {{"cores=2", "policy=drowsy"},
          "core1.policy.drowsy.interval=50000"}},
        {"coreK.policy.drowsy.wake",
         {{"cores=2", "policy=drowsy"}, "core1.policy.drowsy.wake=2"}},
        {"coreK.policy.ways.active",
         {{"cores=2", "policy=ways", "l1i.assoc=4"},
          "core1.policy.ways.active=3"}},
    };
    return p;
}

/**
 * The key guard: a knob that changes simulation results but is
 * missing from its run key would make the result cache and
 * checkpoint store silently serve stale artifacts across it. Every
 * row declares the key it reaches, and each declaration is checked:
 * a RunKey row must change runKey(), a CmpKey row runKeyCmp(), and
 * an execution-only row neither. A row without a probe here fails
 * this test by name.
 */
TEST(Options, EveryUsageKeyIsSemanticOrExplicitlyExecutionOnly)
{
    ASSERT_GT(allRows().size(), 55u);
    for (const Knob *row : allRows()) {
        SCOPED_TRACE(row->name);
        const auto it = probes().find(row->name);
        ASSERT_NE(it, probes().end())
            << "row '" << row->name
            << "' has no probe: a knob outside its key serves stale "
               "cached results";
        Options base, variant;
        std::string err;
        ASSERT_TRUE(parseWith(allRows(), it->second.base, base, err))
            << err;
        std::vector<std::string> args = it->second.base;
        args.push_back(it->second.variant);
        ASSERT_TRUE(parseWith(allRows(), args, variant, err)) << err;
        const bool runKeyMoved =
            canonicalOf(base) != canonicalOf(variant);
        const bool cmpKeyMoved =
            canonicalCmpOf(base) != canonicalCmpOf(variant);
        switch (row->reach) {
          case Reach::RunKey:
            EXPECT_TRUE(runKeyMoved)
                << "parses but never reaches runKey()";
            break;
          case Reach::CmpKey:
            EXPECT_TRUE(cmpKeyMoved)
                << "parses but never reaches runKeyCmp()";
            break;
          case Reach::None:
            EXPECT_FALSE(runKeyMoved || cmpKeyMoved)
                << "declared execution-only but moves a run key";
            EXPECT_NE(fingerprintOf(base), fingerprintOf(variant))
                << "parses but sets nothing";
            break;
        }
    }
}

/** The flag spelling of a row name. */
std::string
flagOf(std::string name)
{
    for (char &c : name)
        if (c == '.' || c == '_')
            c = '-';
    return "--" + name;
}

TEST(Options, EverySpellingOfEveryRowMeansTheSame)
{
    for (unsigned binary = 1; binary < kBinaryEnd; binary <<= 1) {
        const std::vector<const Knob *> rows = knobRows(binary);
        ASSERT_FALSE(rows.empty());
        std::set<std::string> flags;
        for (const Knob *row : rows) {
            SCOPED_TRACE(std::string(row->name) + " in binary " +
                         std::to_string(binary));
            EXPECT_TRUE(flags.insert(flagOf(row->name)).second)
                << "two rows share a flag spelling";
            const Probe &probe = probes().at(row->name);
            const std::size_t eq = probe.variant.find('=');
            const std::string name = probe.variant.substr(0, eq);
            // A boolean alone sets it; its probe may clear it.
            const std::vector<std::string> values =
                row->value ? std::vector<std::string>{probe.variant
                                                          .substr(eq + 1)}
                           : std::vector<std::string>{"1", "0"};
            for (const std::string &v : values) {
                std::vector<std::vector<std::string>> spellings{
                    {name + "=" + v},
                    {flagOf(name) + "=" + v},
                };
                if (row->value)
                    spellings.push_back({flagOf(name), v});
                else if (v == "1")
                    spellings.push_back({flagOf(name)});
                std::string first;
                for (const std::vector<std::string> &spelling :
                     spellings) {
                    std::vector<std::string> args = probe.base;
                    args.insert(args.end(), spelling.begin(),
                                spelling.end());
                    Options o;
                    std::string err;
                    ASSERT_TRUE(parseWith(rows, args, o, err))
                        << spelling[0] << ": " << err;
                    const std::string f = fingerprintOf(o);
                    if (first.empty())
                        first = f;
                    EXPECT_EQ(f, first) << spelling[0];
                }
            }
        }
    }
    // The union too: one table, one spelling per knob.
    std::set<std::string> flags;
    for (const Knob *row : allRows())
        EXPECT_TRUE(flags.insert(flagOf(row->name)).second) << row->name;
}

TEST(Options, BareTokensFillBenchmarkThenInstrs)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"jobs=2", "gcc", "l2.dri=1", "5000"}, o, err))
        << err;
    EXPECT_EQ(o.benchmark, "gcc");
    EXPECT_EQ(o.run.maxInstrs, 5000u);
    // Positional instruction counts are strict, in every binary
    // that takes them.
    for (const unsigned binary :
         {kQuickstart, kParamTuner, kPhaseExplorer}) {
        for (const char *bad : {"abc", "3e5", "0", "12x"}) {
            Options p;
            EXPECT_FALSE(
                parseWith(knobRows(binary), {"compress", bad}, p, err))
                << bad;
            EXPECT_EQ(err.rfind("bad value for 'instrs'", 0), 0u)
                << err;
        }
        Options p;
        EXPECT_FALSE(parseWith(knobRows(binary), {"compress", "-1"}, p,
                               err));
        EXPECT_FALSE(parseWith(knobRows(binary),
                               {"compress", "100", "extra"}, p, err));
        EXPECT_EQ(err.rfind("unexpected argument 'extra'", 0), 0u)
            << err;
    }
}

TEST(Options, RejectsAnEmptyValueInEverySpelling)
{
    Options o;
    std::string err;
    for (const Knob *row : allRows()) {
        if (!row->value)
            continue;
        const std::string &variant = probes().at(row->name).variant;
        const std::string name = variant.substr(0, variant.find('='));
        for (const std::vector<std::string> &spelling :
             std::vector<std::vector<std::string>>{
                 {name + "="}, {flagOf(name) + "="},
                 {flagOf(name), ""}}) {
            EXPECT_FALSE(parseWith(allRows(), spelling, o, err))
                << spelling[0];
            EXPECT_NE(err.find(name), std::string::npos) << err;
        }
    }
}

TEST(Options, RejectsCacheGeometryTheCachesCannotBuild)
{
    std::string err;
    for (const char *bad : {"l1i.size=48K", "l1i.assoc=3",
                            "l1i.block=1G", "l1i.block=48"}) {
        Options o;
        EXPECT_FALSE(parse({bad}, o, err)) << bad;
        EXPECT_EQ(err.rfind("bad l1i geometry: l1i.size=", 0), 0u)
            << err;
    }
    Options o;
    EXPECT_FALSE(parse({"l2.size=3M"}, o, err));
    EXPECT_EQ(err.rfind("bad l2 geometry: l2.size=3M l2.assoc=4 "
                        "l2.block=64",
                        0),
              0u)
        << err;
    // Every power-of-two shape with at least one set still builds.
    Options big;
    EXPECT_TRUE(parse({"l1i.size=128K", "l1i.assoc=8", "l1i.block=64",
                       "l2.size=256K", "l2.assoc=16"},
                      big, err))
        << err;
    Options oneSet;
    EXPECT_TRUE(parse({"l1i.size=32", "l1i.block=32"}, oneSet, err))
        << err;
}

TEST(Options, ParsesShardSpec)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"shard=2/3"}, o, err));
    EXPECT_TRUE(o.run.shard.active());
    EXPECT_EQ(o.run.shard.shard, 1u); // 0-based internally
    EXPECT_EQ(o.run.shard.ofShards, 3u);
    EXPECT_EQ(o.run.shard.spec(), "2/3");
    // 1/1 parses but does not partition.
    ASSERT_TRUE(parse({"shard=1/1"}, o, err));
    EXPECT_FALSE(o.run.shard.active());
}

TEST(Options, RejectsBadShardSpecs)
{
    Options o;
    std::string err;
    // Strict parsing: the shard index is 1-based and bounded by the
    // shard count; signs, junk and missing halves are all rejected.
    EXPECT_FALSE(parse({"shard=0/3"}, o, err));
    EXPECT_FALSE(parse({"shard=4/3"}, o, err));
    EXPECT_FALSE(parse({"shard=-1/3"}, o, err));
    EXPECT_FALSE(parse({"shard=2/-3"}, o, err));
    EXPECT_FALSE(parse({"shard=2"}, o, err));
    EXPECT_FALSE(parse({"shard=2/"}, o, err));
    EXPECT_FALSE(parse({"shard=/3"}, o, err));
    EXPECT_FALSE(parse({"shard=a/b"}, o, err));
    EXPECT_FALSE(parse({"shard=2/4097"}, o, err)); // > kMaxShards
    EXPECT_FALSE(err.empty());
}

TEST(Options, ParsesCoresAndPerCoreKeys)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"cores=2", "benchmark=compress",
                       "core1.bench=li", "core1.dri.miss_bound=77",
                       "core1.dri.size_bound=2K",
                       "core1.dri.interval=50000"},
                      o, err));
    EXPECT_EQ(o.cores, 2u);

    const std::vector<CmpCoreConfig> cfgs = o.cmpCores(true);
    ASSERT_EQ(cfgs.size(), 2u);
    EXPECT_EQ(cfgs[0].bench, "compress");
    EXPECT_TRUE(cfgs[0].l1i);
    EXPECT_EQ(cfgs[1].bench, "li");
    ASSERT_TRUE(cfgs[1].l1i);
    EXPECT_EQ(cfgs[1].l1i->dri.missBound, 77u);
    EXPECT_EQ(cfgs[1].l1i->dri.sizeBoundBytes, 2048u);
    EXPECT_EQ(cfgs[1].l1i->dri.senseInterval, 50000u);

    // A conventional baseline resolution is conventional on every
    // core — tuning a core's DRI knobs must never pollute the
    // baseline leg it is compared against.
    const std::vector<CmpCoreConfig> conv = o.cmpCores(false);
    EXPECT_FALSE(conv[0].l1i);
    EXPECT_FALSE(conv[1].l1i);
}

TEST(Options, GlobalDriKeysReachUnconfiguredCoresRegardlessOfOrder)
{
    Options o;
    std::string err;
    // core1.bench creates override records; a *later* global dri.*
    // key must still reach both cores (only explicit coreK.dri.*
    // knobs freeze a core's template).
    ASSERT_TRUE(parse({"cores=2", "core1.bench=li",
                       "dri.miss_bound=999"},
                      o, err));
    const std::vector<CmpCoreConfig> cfgs = o.cmpCores(true);
    ASSERT_EQ(cfgs.size(), 2u);
    ASSERT_TRUE(cfgs[0].l1i && cfgs[1].l1i);
    EXPECT_EQ(cfgs[0].l1i->dri.missBound, 999u);
    EXPECT_EQ(cfgs[1].l1i->dri.missBound, 999u);
}

TEST(Options, PerCoreKnobsSeedFromGlobalTemplate)
{
    Options o;
    std::string err;
    // Global dri.* keys first, then the per-core override: the
    // override inherits the template and changes only its own key.
    ASSERT_TRUE(parse({"cores=2", "dri.miss_bound=123",
                       "core0.dri.size_bound=4K"},
                      o, err));
    const std::vector<CmpCoreConfig> cfgs = o.cmpCores(true);
    ASSERT_EQ(cfgs.size(), 2u);
    ASSERT_TRUE(cfgs[0].l1i && cfgs[1].l1i);
    EXPECT_EQ(cfgs[0].l1i->dri.missBound, 123u);
    EXPECT_EQ(cfgs[0].l1i->dri.sizeBoundBytes, 4096u);
    // Core 1 has no override record: it takes the global template.
    EXPECT_EQ(cfgs[1].l1i->dri.missBound, 123u);
}

TEST(Options, CoreDriFlagDisablesPerCore)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"cores=2", "core0.dri=0"}, o, err));
    const std::vector<CmpCoreConfig> cfgs = o.cmpCores(true);
    EXPECT_FALSE(cfgs[0].l1i); // explicit opt-out wins
    EXPECT_TRUE(cfgs[1].l1i);

    CmpConfig cmp = o.cmpConfig(true);
    EXPECT_EQ(cmp.cores, 2u);
    ASSERT_EQ(cmp.coreConfigs.size(), 2u);
    EXPECT_FALSE(cmp.coreConfigs[0].l1i);
}

namespace caplog
{
std::vector<std::string> warnings; // hook target (single-threaded)

void
hook(LogLevel level, const std::string &msg)
{
    if (level == LogLevel::Warn)
        warnings.push_back(msg);
}

/** The warnings parsing @p args prints. */
std::vector<std::string>
warningsOf(std::initializer_list<const char *> args)
{
    Options o;
    std::string err;
    warnings.clear();
    setLogHook(&hook);
    EXPECT_TRUE(parse(args, o, err)) << err;
    setLogHook(nullptr);
    return warnings;
}
} // namespace caplog

TEST(Options, WarnsOncePerCoreRecordNoCoreReads)
{
    // A one-core run reads only the global options, so a core0.*
    // record is orphaned there like a record past the last core: the
    // run goes on, with one warning per record.
    for (const char *key : {"core0.bench=li", "core0.policy=decay"}) {
        const std::vector<std::string> w = caplog::warningsOf({key});
        ASSERT_EQ(w.size(), 1u) << key;
        EXPECT_EQ(w[0].rfind("core0.* options ignored", 0), 0u) << w[0];
    }
    EXPECT_EQ(caplog::warningsOf({"cores=1", "core0.bench=li",
                                  "core2.policy=decay"})
                  .size(),
              2u);
    // With two cores, core 0 and core 1 are built; core 2 is not.
    const std::vector<std::string> w = caplog::warningsOf(
        {"cores=2", "core0.bench=li", "core1.policy=decay",
         "core2.bench=gcc"});
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0].rfind("core2.* options ignored", 0), 0u) << w[0];
}

TEST(Options, RejectsBadCoresValues)
{
    Options o;
    std::string err;
    // cores=0 and the "-1" wraparound are rejected by the shared
    // strict parser (util/parse.hh) — everywhere, not just here.
    EXPECT_FALSE(parse({"cores=0"}, o, err));
    EXPECT_FALSE(parse({"cores=-1"}, o, err));
    EXPECT_FALSE(parse({"cores=65"}, o, err)); // kMaxCmpCores = 64
    EXPECT_FALSE(parse({"jobs=-1"}, o, err));
    EXPECT_FALSE(parse({"dri.interval=-1"}, o, err));
    EXPECT_FALSE(parse({"l2.interval=-1"}, o, err));
    EXPECT_FALSE(parse({"core0.dri.interval=-1"}, o, err));
    EXPECT_FALSE(parse({"core0.dri.interval=0"}, o, err));
    EXPECT_FALSE(parse({"instrs=-1"}, o, err));
}

TEST(Options, ParsesPolicyKeys)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"policy=drowsy", "policy.drowsy.interval=50000",
                       "policy.drowsy.wake=2",
                       "policy.decay.interval=25000",
                       "policy.decay.limit=2",
                       "policy.ways.active=3", "dri.size_bound=2K"},
                      o, err));
    EXPECT_EQ(o.policy.kind, PolicyKind::Drowsy);
    EXPECT_EQ(o.policy.drowsy.drowsyInterval, 50000u);
    EXPECT_EQ(o.policy.drowsy.wakeLatency, 2u);
    EXPECT_EQ(o.policy.decay.decayInterval, 25000u);
    EXPECT_EQ(o.policy.decay.counterLimit, 2u);
    EXPECT_EQ(o.policy.ways.activeWays, 3u);
    // policyConfig() syncs the final dri.* template into the
    // embedded geometry/knobs.
    EXPECT_EQ(o.policyConfig().dri.sizeBoundBytes, 2048u);
    EXPECT_EQ(o.policyConfig().kind, PolicyKind::Drowsy);
}

TEST(Options, RejectsBadPolicyValues)
{
    Options o;
    std::string err;
    EXPECT_FALSE(parse({"policy=banana"}, o, err));
    // Every new interval/wake/ways key rides the strict bounded
    // parser (util/parse.hh): "-1" cannot wrap, 0 is rejected where
    // it is meaningless, and way 0 can never be gated away.
    EXPECT_FALSE(parse({"policy.decay.interval=-1"}, o, err));
    EXPECT_FALSE(parse({"policy.decay.interval=0"}, o, err));
    EXPECT_FALSE(parse({"policy.decay.limit=-1"}, o, err));
    EXPECT_FALSE(parse({"policy.drowsy.interval=-1"}, o, err));
    EXPECT_FALSE(parse({"policy.drowsy.interval=0"}, o, err));
    EXPECT_FALSE(parse({"policy.drowsy.wake=-1"}, o, err));
    EXPECT_FALSE(parse({"policy.ways.active=-1"}, o, err));
    EXPECT_FALSE(parse({"policy.ways.active=0"}, o, err));
    EXPECT_FALSE(parse({"core0.policy=banana"}, o, err));
    EXPECT_FALSE(parse({"core0.policy.drowsy.wake=-1"}, o, err));
    EXPECT_FALSE(parse({"core0.policy.ways.active=0"}, o, err));
    // A wake latency of 0 (idealized instant wake) stays legal.
    EXPECT_TRUE(parse({"policy.drowsy.wake=0"}, o, err));
}

TEST(Options, PerCorePolicyOverrides)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"cores=2", "policy=decay",
                       "policy.decay.interval=40000",
                       "core1.policy=drowsy",
                       "core1.policy.drowsy.wake=3"},
                      o, err));
    const std::vector<CmpCoreConfig> cfgs = o.cmpCores(true);
    ASSERT_EQ(cfgs.size(), 2u);
    // Core 0 follows the global template; core 1 overrides, seeded
    // from the global policy as parsed so far.
    ASSERT_TRUE(cfgs[0].l1i && cfgs[1].l1i);
    EXPECT_EQ(cfgs[0].l1i->kind, PolicyKind::Decay);
    EXPECT_EQ(cfgs[0].l1i->decay.decayInterval, 40000u);
    EXPECT_EQ(cfgs[1].l1i->kind, PolicyKind::Drowsy);
    EXPECT_EQ(cfgs[1].l1i->drowsy.wakeLatency, 3u);
    EXPECT_EQ(cfgs[1].l1i->decay.decayInterval, 40000u);
    // A conventional baseline ignores every per-core policy knob.
    const std::vector<CmpCoreConfig> conv = o.cmpCores(false);
    EXPECT_FALSE(conv[1].l1i);
}

TEST(Options, UnknownPolicySubkeysCollected)
{
    Options o;
    std::string err;
    EXPECT_FALSE(parse({"policy.banana=1"}, o, err));
    EXPECT_EQ(err.rfind("unknown option 'policy.banana=1'", 0), 0u);
    EXPECT_FALSE(parse({"core0.policy.banana=1"}, o, err));
    EXPECT_EQ(err.rfind("unknown option 'core0.policy.banana=1'", 0),
              0u);
    // The unknown coreK.policy.* key must not have made core 0's
    // policy authoritative.
    EXPECT_TRUE(o.coreOverrides.empty() ||
                !o.coreOverrides[0].policySet);
}

TEST(Options, UnknownCoreSubkeysCollected)
{
    Options o;
    std::string err;
    // core0.banana: valid core prefix, unknown subkey.
    // core999: index past kMaxCmpCores does not match the coreK
    // shape. corex: not a decimal index.
    for (const char *key :
         {"core0.banana=1", "core999.bench=li", "corex.bench=li",
          "--core64-bench=li"}) {
        EXPECT_FALSE(parse({key}, o, err));
        EXPECT_EQ(err.rfind(std::string("unknown option '") + key, 0),
                  0u)
            << err;
    }
}

} // namespace
} // namespace drisim
