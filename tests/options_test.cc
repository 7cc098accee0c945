/**
 * @file
 * Option-parser tests, including the semantic-key guard: every key
 * optionsUsage() advertises either demonstrably changes a canonical
 * run key (so the result cache and checkpoint store can never serve
 * stale artifacts across it) or is explicitly execution-only.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "config/options.hh"
#include "harness/runner.hh"
#include "workload/spec_suite.hh"

namespace drisim
{
namespace
{

bool
parse(std::initializer_list<const char *> args, Options &out,
      std::string &err)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return parseOptions(static_cast<int>(argv.size()), argv.data(),
                        out, err);
}

TEST(Options, Defaults)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({}, o, err));
    EXPECT_EQ(o.benchmark, "compress");
    EXPECT_EQ(o.dri.sizeBytes, 64u * 1024);
    EXPECT_TRUE(o.unknown.empty());
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
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"nonsense=1", "instrs=10"}, o, err));
    ASSERT_EQ(o.unknown.size(), 1u);
    EXPECT_EQ(o.unknown[0], "nonsense");
    EXPECT_EQ(o.run.maxInstrs, 10u);
}

TEST(Options, RejectsMalformedTokens)
{
    Options o;
    std::string err;
    EXPECT_FALSE(parse({"no_equals"}, o, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parse({"=value"}, o, err));
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
    EXPECT_TRUE(o.unknown.empty());
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
    const std::string u = optionsUsage();
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
    EXPECT_TRUE(o.unknown.empty());
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

/**
 * The satellite guard: a new Options knob that changes simulation
 * results but is missing from the canonical config key would make
 * the result cache and checkpoint store silently serve stale
 * artifacts across it. Every key optionsUsage() advertises must
 * therefore either (a) have a probe here proving it reaches the
 * canonical string, or (b) be on the explicit execution-only list.
 * Adding a key to usage without extending one of the two fails this
 * test by name.
 */
TEST(Options, EveryUsageKeyIsSemanticOrExplicitlyExecutionOnly)
{
    // Execution-strategy keys deliberately outside the run key:
    // jobs/checkpoint_dir/result_cache cannot change results, and
    // the cores/coreK.*/coherence.* families configure CMP runs,
    // which are never result-cached (bench_cmp derives its own
    // row-identity key; coherent identity is locked by runKeyCmp,
    // tests/checkpoint_test.cc).
    const std::set<std::string> executionOnly{
        "jobs",
        "shard", // farm partition assignment (src/farm/shard_plan.hh)
        "checkpoint_dir",
        "result_cache",
        // Observability sinks (src/obs/): pure output taps that can
        // never change simulation results, so goldens stay
        // byte-identical whether or not tracing is on.
        "trace",
        "metrics",
        "metrics.interval",
        "cores",
        "coherence",
        "coherence.entries",
        "coherence.msg_latency",
        "coreK.bench",
        "coreK.dri",
        "coreK.dri.size_bound",
        "coreK.dri.miss_bound",
        "coreK.dri.interval",
        "coreK.policy",
        "coreK.policy.decay.interval",
        "coreK.policy.decay.limit",
        "coreK.policy.drowsy.interval",
        "coreK.policy.drowsy.wake",
        "coreK.policy.ways.active",
    };

    // base = context making a conditional key participate (e.g.
    // sample.window only enters the key once sampling is on);
    // variant = base + a value different from the default.
    struct Probe
    {
        std::vector<const char *> base;
        std::vector<const char *> variant;
    };
    const std::map<std::string, Probe> probes{
        {"instrs", {{}, {"instrs=1234"}}},
        {"benchmark", {{}, {"benchmark=gcc"}}},
        {"l1i.size", {{}, {"l1i.size=128K"}}},
        {"l1i.assoc", {{}, {"l1i.assoc=4"}}},
        {"l1i.block", {{}, {"l1i.block=64"}}},
        {"dri.size_bound", {{}, {"dri.size_bound=2K"}}},
        {"dri.miss_bound", {{}, {"dri.miss_bound=123"}}},
        {"dri.interval", {{}, {"dri.interval=50000"}}},
        {"dri.divisibility", {{}, {"dri.divisibility=4"}}},
        {"dri.throttle_hold", {{}, {"dri.throttle_hold=7"}}},
        {"dri.adaptive", {{}, {"dri.adaptive=0"}}},
        {"policy", {{}, {"policy=decay"}}},
        {"policy.decay.interval", {{}, {"policy.decay.interval=40000"}}},
        {"policy.decay.limit", {{}, {"policy.decay.limit=2"}}},
        {"policy.drowsy.interval",
         {{}, {"policy.drowsy.interval=50000"}}},
        {"policy.drowsy.wake", {{}, {"policy.drowsy.wake=2"}}},
        {"policy.ways.active", {{}, {"policy.ways.active=3"}}},
        {"sample", {{}, {"sample=1"}}},
        {"sample.window",
         {{"sample=1"}, {"sample=1", "sample.window=5000"}}},
        {"sample.period",
         {{"sample=1"}, {"sample=1", "sample.period=40000"}}},
        {"l2.size", {{}, {"l2.size=512K"}}},
        {"l2.assoc", {{}, {"l2.assoc=8"}}},
        {"l2.block", {{}, {"l2.block=128"}}},
        {"l2.dri", {{}, {"l2.dri=1"}}},
        {"l2.size_bound",
         {{"l2.dri=1"}, {"l2.dri=1", "l2.size_bound=32K"}}},
        {"l2.miss_bound",
         {{"l2.dri=1"}, {"l2.dri=1", "l2.miss_bound=40"}}},
        {"l2.interval",
         {{"l2.dri=1"}, {"l2.dri=1", "l2.interval=200000"}}},
        {"l1.mshrs", {{}, {"l1.mshrs=4"}}},
        {"l2.mshrs", {{}, {"l2.mshrs=8"}}},
        {"dram.banked", {{}, {"dram.banked=1"}}},
        {"dram.banks",
         {{"dram.banked=1"}, {"dram.banked=1", "dram.banks=16"}}},
        {"dram.row_hit",
         {{"dram.banked=1"}, {"dram.banked=1", "dram.row_hit=30"}}},
        {"dram.row_miss",
         {{"dram.banked=1"}, {"dram.banked=1", "dram.row_miss=90"}}},
        {"dram.queue",
         {{"dram.banked=1"}, {"dram.banked=1", "dram.queue=4"}}},
    };

    // Every key the usage string advertises, in "key=..." tokens.
    std::istringstream usage(optionsUsage());
    std::string tok;
    std::vector<std::string> keys;
    while (usage >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq != std::string::npos && eq > 0)
            keys.push_back(tok.substr(0, eq));
    }
    ASSERT_GT(keys.size(), 30u); // the usage string really parsed

    for (const std::string &key : keys) {
        if (executionOnly.count(key))
            continue;
        const auto it = probes.find(key);
        ASSERT_NE(it, probes.end())
            << "usage key '" << key
            << "' has neither a semantic probe nor an execution-only "
               "entry: a knob outside the canonical key serves stale "
               "cached results";
        SCOPED_TRACE(key);
        Options base, variant;
        std::string err;
        std::vector<const char *> argvBase{"prog"};
        argvBase.insert(argvBase.end(), it->second.base.begin(),
                        it->second.base.end());
        ASSERT_TRUE(parseOptions(
            static_cast<int>(argvBase.size()), argvBase.data(),
            base, err))
            << err;
        std::vector<const char *> argvVar{"prog"};
        argvVar.insert(argvVar.end(), it->second.variant.begin(),
                       it->second.variant.end());
        ASSERT_TRUE(parseOptions(static_cast<int>(argvVar.size()),
                                 argvVar.data(), variant, err))
            << err;
        EXPECT_NE(canonicalOf(base), canonicalOf(variant))
            << "'" << key << "' parses but never reaches the "
            << "canonical config string";
    }
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
    EXPECT_TRUE(o.unknown.empty());

    const std::vector<CmpCoreConfig> cfgs = o.cmpCores(true);
    ASSERT_EQ(cfgs.size(), 2u);
    EXPECT_EQ(cfgs[0].bench, "compress");
    EXPECT_TRUE(cfgs[0].dri);
    EXPECT_EQ(cfgs[1].bench, "li");
    EXPECT_TRUE(cfgs[1].dri);
    EXPECT_EQ(cfgs[1].driParams.missBound, 77u);
    EXPECT_EQ(cfgs[1].driParams.sizeBoundBytes, 2048u);
    EXPECT_EQ(cfgs[1].driParams.senseInterval, 50000u);

    // A conventional baseline resolution is conventional on every
    // core — tuning a core's DRI knobs must never pollute the
    // baseline leg it is compared against.
    const std::vector<CmpCoreConfig> conv = o.cmpCores(false);
    EXPECT_FALSE(conv[0].dri);
    EXPECT_FALSE(conv[1].dri);
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
    EXPECT_EQ(cfgs[0].driParams.missBound, 999u);
    EXPECT_EQ(cfgs[1].driParams.missBound, 999u);
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
    EXPECT_EQ(cfgs[0].driParams.missBound, 123u);
    EXPECT_EQ(cfgs[0].driParams.sizeBoundBytes, 4096u);
    // Core 1 has no override record: it takes the global template.
    EXPECT_EQ(cfgs[1].driParams.missBound, 123u);
}

TEST(Options, CoreDriFlagDisablesPerCore)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"cores=2", "core0.dri=0"}, o, err));
    const std::vector<CmpCoreConfig> cfgs = o.cmpCores(true);
    EXPECT_FALSE(cfgs[0].dri); // explicit opt-out wins
    EXPECT_TRUE(cfgs[1].dri);

    CmpConfig cmp = o.cmpConfig(true);
    EXPECT_EQ(cmp.cores, 2u);
    ASSERT_EQ(cmp.coreConfigs.size(), 2u);
    EXPECT_FALSE(cmp.coreConfigs[0].dri);
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
    EXPECT_EQ(cfgs[0].policyKind, PolicyKind::Decay);
    EXPECT_EQ(cfgs[0].decay.decayInterval, 40000u);
    EXPECT_EQ(cfgs[1].policyKind, PolicyKind::Drowsy);
    EXPECT_EQ(cfgs[1].drowsy.wakeLatency, 3u);
    EXPECT_EQ(cfgs[1].decay.decayInterval, 40000u);
    // A conventional baseline ignores every per-core policy knob.
    const std::vector<CmpCoreConfig> conv = o.cmpCores(false);
    EXPECT_FALSE(conv[1].dri);
}

TEST(Options, UnknownPolicySubkeysCollected)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"policy.banana=1", "core0.policy.banana=1"},
                      o, err));
    ASSERT_EQ(o.unknown.size(), 2u);
    EXPECT_EQ(o.unknown[0], "policy.banana");
    EXPECT_EQ(o.unknown[1], "core0.policy.banana");
    // The unknown coreK.policy.* key must not have made core 0's
    // policy authoritative.
    EXPECT_TRUE(o.coreOverrides.empty() ||
                !o.coreOverrides[0].policySet);
}

TEST(Options, UnknownCoreSubkeysCollected)
{
    Options o;
    std::string err;
    ASSERT_TRUE(parse({"core0.banana=1", "core999.bench=li",
                       "corex.bench=li"},
                      o, err));
    // core0.banana: valid core prefix, unknown subkey.
    // core999: index past kMaxCmpCores does not match the coreK
    // shape. corex: not a decimal index.
    ASSERT_EQ(o.unknown.size(), 3u);
    EXPECT_EQ(o.unknown[0], "core0.banana");
    EXPECT_EQ(o.unknown[1], "core999.bench");
    EXPECT_EQ(o.unknown[2], "corex.bench");
}

} // namespace
} // namespace drisim
