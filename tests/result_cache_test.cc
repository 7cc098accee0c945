/**
 * @file
 * Result-cache tests: canonical config hashing (order-invariance,
 * default-vs-explicit equality, single-knob sensitivity), sidecar
 * persistence and tamper resistance (corruption, truncation,
 * hash-collision protection, JSON escaping), and the runner-level
 * guarantee that a cached result is byte-identical to a recomputed
 * one and a damaged entry is recomputed, never served; and the run
 * keys themselves, pinned.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <sys/wait.h>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "config/options.hh"
#include "harness/runner.hh"
#include "sim/result_cache.hh"
#include "workload/fetch_replay.hh"
#include "workload/spec_suite.hh"

#include "same_run.hh"

namespace drisim
{
namespace
{

using sim::ConfigKey;
using sim::ResultCache;

/** Self-deleting scratch directory for sidecar files. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/drisim_rc_XXXXXX";
        path_ = mkdtemp(tmpl);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
}

// --- ConfigKey hashing ------------------------------------------------

TEST(ConfigKeyTest, InsertionOrderIsIrrelevant)
{
    ConfigKey a;
    a.add("bench", "compress").add("instrs", std::uint64_t{1000});
    a.addDouble("bound", 0.25);
    ConfigKey b;
    b.addDouble("bound", 0.25);
    b.add("instrs", std::uint64_t{1000}).add("bench", "compress");
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.hashHex(), b.hashHex());
}

TEST(ConfigKeyTest, DefaultAndExplicitConfigsHashEqual)
{
    const auto &b = findBenchmark("compress");
    const RunConfig defaults;
    RunConfig explicitCfg;
    explicitCfg.maxInstrs = defaults.maxInstrs;
    explicitCfg.hier = HierarchyParams{};
    explicitCfg.core = OooParams{};
    // jobs/checkpointDir/resultCache/shard cannot change results
    // and must not change the identity either (a unit computes the
    // same answer whichever farm shard runs it).
    explicitCfg.jobs = 7;
    explicitCfg.checkpointDir = "/nonexistent";
    explicitCfg.shard = farm::ShardPlan{1, 3};
    EXPECT_EQ(runKey(b, defaults).hashHex(),
              runKey(b, explicitCfg).hashHex());
}

TEST(ConfigKeyTest, FlippingAnySingleKnobChangesTheHash)
{
    const auto &b = findBenchmark("compress");
    const RunConfig base;
    std::vector<std::string> hashes;
    hashes.push_back(runKey(b, base).hashHex());

    {
        RunConfig c = base;
        c.maxInstrs += 1;
        hashes.push_back(runKey(b, c).hashHex());
    }
    {
        RunConfig c = base;
        c.hier.l2Dri = true;
        hashes.push_back(runKey(b, c).hashHex());
    }
    {
        RunConfig c = base;
        c.core.commitWidth += 1;
        hashes.push_back(runKey(b, c).hashHex());
    }
    {
        RunConfig c = base;
        c.core.bpred.historyBits += 1;
        hashes.push_back(runKey(b, c).hashHex());
    }
    {
        RunConfig c = base;
        c.sampling.enabled = true;
        hashes.push_back(runKey(b, c).hashHex());
    }
    hashes.push_back(runKey(findBenchmark("li"), base)
                         .hashHex());
    {
        DriParams d;
        hashes.push_back(runKey(b, base, {d}).hashHex());
        DriParams d2 = d;
        d2.senseInterval += 1;
        hashes.push_back(runKey(b, base, {d2}).hashHex());
        DriParams d3 = d;
        d3.missBound += 1;
        hashes.push_back(runKey(b, base, {d3}).hashHex());
        DriParams d4 = d;
        d4.sizeBoundBytes *= 2;
        hashes.push_back(runKey(b, base, {d4}).hashHex());
    }

    for (std::size_t i = 0; i < hashes.size(); ++i)
        for (std::size_t j = i + 1; j < hashes.size(); ++j)
            EXPECT_NE(hashes[i], hashes[j])
                << "knobs " << i << " and " << j << " alias";
}

// --- pinned run keys --------------------------------------------------

/** runKey() for every L1I x core model, plus runKeyCalibrate(). */
struct PinnedKeys
{
    const char *conv;
    const char *dri;
    const char *policy;
    const char *convFast;
    const char *driFast;
    const char *policyFast;
    const char *calibrate;
};

/**
 * A config_hash names results in result-cache sidecars, checkpoint
 * stores and every --json report, so artifacts written by an older
 * build stay valid only while it holds still. No change to how keys
 * are built may move one of these.
 */
void
expectPinnedKeys(const RunConfig &cfg, bool conditional,
                 const PinnedKeys &want)
{
    const auto &b = findBenchmark("gcc");
    DriParams dri;
    PolicyConfig pol;
    pol.kind = PolicyKind::Drowsy;
    if (conditional) {
        dri.mshrs = 2;
        pol.dri.mshrs = 2;
    }
    FastCalibration cal;
    cal.baseCpi = 0.75;
    cal.missOverlap = 0.5;
    EXPECT_EQ(runKey(b, cfg).hashHex(), want.conv);
    EXPECT_EQ(runKey(b, cfg, {dri}).hashHex(), want.dri);
    EXPECT_EQ(runKey(b, cfg, {pol}).hashHex(), want.policy);
    EXPECT_EQ(runKey(b, cfg, {ConventionalL1i{}, &cal}).hashHex(),
              want.convFast);
    EXPECT_EQ(runKey(b, cfg, {dri, &cal}).hashHex(), want.driFast);
    EXPECT_EQ(runKey(b, cfg, {pol, &cal}).hashHex(), want.policyFast);
    EXPECT_EQ(runKeyCalibrate(b, cfg).hashHex(), want.calibrate);
}

TEST(RunKeyTest, DefaultConfigHashesArePinned)
{
    expectPinnedKeys(RunConfig{}, false,
                     {"fe77e5855e673bd2", "9a8b831be0b61037",
                      "0d871741e2234dff", "2bd5128cc8d5b3ea",
                      "915b1da16fae1fd9", "516d8da4c5d1a963",
                      "b8d3f03b641e41df"});
}

TEST(RunKeyTest, ConditionalFieldHashesArePinned)
{
    // Every column a key carries only when set: MSHRs, banked DRAM,
    // the resizable L2 and sampling.
    RunConfig c;
    c.hier.l1i.mshrs = 4;
    c.hier.l1d.mshrs = 4;
    c.hier.l2.mshrs = 8;
    c.hier.dram.banked = true;
    c.hier.l2Dri = true;
    c.sampling.enabled = true;
    expectPinnedKeys(c, true,
                     {"8fb174adeaf00025", "bb91dd9ee68db364",
                      "3778a2b4649ab645", "ecd353e79986b3c3",
                      "ffe96c6a7fc95970", "3ae5cad60c7b30c7",
                      "13d88796d85a88d6"});
}

TEST(RunKeyTest, CmpKeyNamesTheCoreAndPredictor)
{
    // Every CMP core runs on config.core, so its shape names the run
    // like the caches and DRAM do. Sampling does not: CMP ignores it.
    CmpConfig cmp;
    cmp.cores = 2;
    const RunConfig base;
    const std::string hash = runKeyCmp(base, cmp, "gcc").hashHex();
    RunConfig rob = base;
    rob.core.robSize *= 2;
    EXPECT_NE(runKeyCmp(rob, cmp, "gcc").hashHex(), hash);
    RunConfig history = base;
    history.core.bpred.historyBits += 1;
    EXPECT_NE(runKeyCmp(history, cmp, "gcc").hashHex(), hash);
    RunConfig sampled = base;
    sampled.sampling.enabled = true;
    EXPECT_EQ(runKeyCmp(sampled, cmp, "gcc").hashHex(), hash);
}

/**
 * runKeyCmp()'s hash of the CMP the knobs @p args describe, built the
 * way every binary builds one: through the knob table and
 * Options::cmpConfig(), for the managed leg (@p managed) or the
 * conventional baseline.
 */
std::string
cmpKeyHash(std::initializer_list<const char *> args, bool managed)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), args);
    Options o;
    std::string err;
    EXPECT_TRUE(parseArgs(static_cast<int>(argv.size()), argv.data(),
                          knobRows(kBinaryEnd - 1), o, err))
        << err;
    return runKeyCmp(o.run, o.cmpConfig(managed), o.benchmark).hashHex();
}

TEST(RunKeyTest, CmpKeyHashesArePinned)
{
    // A CMP config_hash names bench_cmp's report rows, its metrics
    // series and its snapshots, like the single-core pins above: no
    // change to how a core's L1I is described or keyed may move one.
    EXPECT_EQ(cmpKeyHash({"cores=2"}, false), "e880d6aad27c7856");
    EXPECT_EQ(cmpKeyHash({"cores=2", "benchmark=gcc", "core1.bench=li",
                          "core0.dri.miss_bound=77",
                          "core0.dri.size_bound=2K",
                          "core1.dri.interval=50000"},
                         true),
              "c50bffe8ecf0fb32");
    EXPECT_EQ(cmpKeyHash({"cores=2", "policy=drowsy",
                          "policy.drowsy.wake=2", "core0.dri=0"},
                         true),
              "e4ac872ca6257185");
    EXPECT_EQ(cmpKeyHash({"cores=4", "benchmark=producer",
                          "core1.bench=consumer", "core3.bench=consumer",
                          "coherence=1", "dram.banked=1", "l1.mshrs=4",
                          "l2.mshrs=8", "l2.dri=1", "core0.policy=drowsy",
                          "core1.policy=decay", "core2.policy=drowsy",
                          "core3.policy=decay"},
                         true),
              "761bc5113be2c170");
}

// --- key completeness -----------------------------------------------
//
// Every field a run's result depends on reaches its key, including
// the fields no knob sets. Each perturbation opens with a structured
// binding that names every field of its struct, so a field added
// later fails to compile here until it is perturbed below or listed
// in ExecutionOnlyFieldsChangeNoKey.

/** Copies of @p base with field @p i perturbed by @p perturb, for
 *  each i in [0, n). */
template <typename T, typename F>
std::vector<T>
perturbEach(const T &base, unsigned n, F perturb)
{
    std::vector<T> out(n, base);
    for (unsigned i = 0; i < n; ++i)
        perturb(out[i], i);
    return out;
}

std::vector<CacheParams>
cacheVariants(const CacheParams &base)
{
    return perturbEach(base, 6, [](CacheParams &c, unsigned i) {
        auto &[name, size, assoc, block, lat, repl, mshrs] = c;
        (void)name; // a label: ExecutionOnlyFieldsChangeNoKey
        switch (i) {
          case 0: size *= 2; break;
          case 1: assoc *= 2; break;
          case 2: block *= 2; break;
          case 3: lat += 1; break;
          case 4: repl = ReplPolicy::Random; break;
          default: mshrs += 1; break;
        }
    });
}

std::vector<DriParams>
driVariants(const DriParams &base)
{
    return perturbEach(base, 13, [](DriParams &d, unsigned i) {
        auto &[size, assoc, block, lat, repl, sizeBound, missBound,
               interval, divisibility, throttleBits, throttleHold,
               adaptive, mshrs] = d;
        switch (i) {
          case 0: size *= 2; break;
          case 1: assoc *= 2; break;
          case 2: block *= 2; break;
          case 3: lat += 1; break;
          case 4: repl = ReplPolicy::Random; break;
          case 5: sizeBound *= 2; break;
          case 6: missBound += 1; break;
          case 7: interval += 1; break;
          case 8: divisibility *= 2; break;
          case 9: throttleBits += 1; break;
          case 10: throttleHold += 1; break;
          case 11: adaptive = !adaptive; break;
          default: mshrs += 1; break;
        }
    });
}

/** Variants of a banked DRAM (flat memory keys none of its
 *  timing), the banked switch first. */
std::vector<DramParams>
dramVariants(const DramParams &base)
{
    return perturbEach(base, 6, [](DramParams &d, unsigned i) {
        auto &[banked, banks, rowHit, rowMiss, queue, rowBytes] = d;
        switch (i) {
          case 0: banked = !banked; break;
          case 1: banks *= 2; break;
          case 2: rowHit += 1; break;
          case 3: rowMiss += 1; break;
          case 4: queue += 1; break;
          default: rowBytes *= 2; break;
        }
    });
}

std::vector<OooParams>
coreVariants(const OooParams &base)
{
    std::vector<OooParams> out =
        perturbEach(base, 11, [](OooParams &c, unsigned i) {
            auto &[fetch, issue, commit, rob, lsq, fq, redirect,
                   fetchBlock, memPorts, fpPorts, mulPorts, bpred] = c;
            (void)bpred; // perturbed field by field below
            switch (i) {
              case 0: fetch += 1; break;
              case 1: issue += 1; break;
              case 2: commit += 1; break;
              case 3: rob *= 2; break;
              case 4: lsq *= 2; break;
              case 5: fq *= 2; break;
              case 6: redirect += 1; break;
              case 7: fetchBlock *= 2; break;
              case 8: memPorts += 1; break;
              case 9: fpPorts += 1; break;
              default: mulPorts += 1; break;
            }
        });
    for (const BranchPredParams &bp : perturbEach(
             base.bpred, 7, [](BranchPredParams &p, unsigned i) {
                 auto &[bimodal, gshare, chooser, history, btbSets,
                        btbAssoc, ras] = p;
                 switch (i) {
                   case 0: bimodal *= 2; break;
                   case 1: gshare *= 2; break;
                   case 2: chooser *= 2; break;
                   case 3: history += 1; break;
                   case 4: btbSets *= 2; break;
                   case 5: btbAssoc *= 2; break;
                   default: ras += 1; break;
                 }
             })) {
        OooParams c = base;
        c.bpred = bp;
        out.push_back(c);
    }
    return out;
}

/**
 * Every field of the machine a RunConfig describes, each perturbed
 * on a base where it matters: the resizable L2's knobs with l2.dri
 * on, the DRAM's timing with banked DRAM on. Each pair is (base,
 * variant).
 */
std::vector<std::pair<RunConfig, RunConfig>>
machineVariants()
{
    std::vector<std::pair<RunConfig, RunConfig>> out;
    const RunConfig base;
    const auto add = [&](const RunConfig &from, auto set) {
        RunConfig to = from;
        set(to);
        out.emplace_back(from, to);
    };
    {
        const auto &[l1i, l1d, l2, l2Dri, l2DriParams, dram] =
            base.hier;
        for (const CacheParams &c : cacheVariants(l1i))
            add(base, [&](RunConfig &r) { r.hier.l1i = c; });
        for (const CacheParams &c : cacheVariants(l1d))
            add(base, [&](RunConfig &r) { r.hier.l1d = c; });
        for (const CacheParams &c : cacheVariants(l2))
            add(base, [&](RunConfig &r) { r.hier.l2 = c; });
        add(base, [&](RunConfig &r) { r.hier.l2Dri = !base.hier.l2Dri; });
        (void)l2Dri;
        RunConfig withDriL2 = base;
        withDriL2.hier.l2Dri = true;
        for (const DriParams &d : driVariants(l2DriParams))
            add(withDriL2,
                [&](RunConfig &r) { r.hier.l2DriParams = d; });
        RunConfig banked = base;
        banked.hier.dram.banked = true;
        for (const DramParams &d : dramVariants(banked.hier.dram))
            add(banked, [&](RunConfig &r) { r.hier.dram = d; });
        (void)dram;
    }
    for (const OooParams &c : coreVariants(base.core))
        add(base, [&](RunConfig &r) { r.core = c; });
    add(base, [](RunConfig &r) { r.maxInstrs += 1; });
    return out;
}

TEST(RunKeyTest, EveryMachineFieldReachesEveryKey)
{
    const auto &b = findBenchmark("gcc");
    CmpConfig cmp;
    cmp.cores = 2;
    const auto variants = machineVariants();
    ASSERT_EQ(variants.size(), 6u * 3 + 1 + 13 + 6 + 11 + 7 + 1);
    for (std::size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE("machine variant " + std::to_string(i));
        const auto &[from, to] = variants[i];
        EXPECT_NE(runKey(b, from).hashHex(), runKey(b, to).hashHex());
        EXPECT_NE(runKeyCalibrate(b, from).hashHex(),
                  runKeyCalibrate(b, to).hashHex());
        EXPECT_NE(runKeyCmp(from, cmp, "gcc").hashHex(),
                  runKeyCmp(to, cmp, "gcc").hashHex());
    }

    // Sampling names a single-core run, on or off and each window
    // when on; the CMP ignores it (RunKeyTest.CmpKeyNamesTheCore...).
    RunConfig sampled;
    sampled.sampling.enabled = true;
    const auto samplingVariants = perturbEach(
        sampled.sampling, 3, [](sim::SamplingConfig &c, unsigned i) {
            auto &[enabled, window, period] = c;
            switch (i) {
              case 0: enabled = !enabled; break;
              case 1: window += 1; break;
              default: period += 1; break;
            }
        });
    for (const sim::SamplingConfig &sc : samplingVariants) {
        RunConfig to = sampled;
        to.sampling = sc;
        EXPECT_NE(runKey(b, sampled).hashHex(), runKey(b, to).hashHex());
        EXPECT_NE(runKeyCalibrate(b, sampled).hashHex(),
                  runKeyCalibrate(b, to).hashHex());
    }
}

TEST(RunKeyTest, EveryRunSpecFieldReachesTheKey)
{
    const auto &b = findBenchmark("gcc");
    const RunConfig cfg;
    std::vector<std::pair<RunSpec, RunSpec>> pairs;

    const DriParams dri;
    for (const DriParams &d : driVariants(dri))
        pairs.push_back({{dri}, {d}});

    const PolicyConfig pol;
    std::vector<PolicyConfig> pols = perturbEach(
        pol, 6, [](PolicyConfig &p, unsigned i) {
            auto &[kind, driKnobs, decay, drowsy, ways] = p;
            (void)driKnobs; // perturbed field by field below
            auto &[decayInterval, counterLimit] = decay;
            auto &[drowsyInterval, wakeLatency] = drowsy;
            auto &[activeWays] = ways;
            switch (i) {
              case 0: kind = PolicyKind::Drowsy; break;
              case 1: decayInterval += 1; break;
              case 2: counterLimit += 1; break;
              case 3: drowsyInterval += 1; break;
              case 4: wakeLatency += 1; break;
              default: activeWays += 1; break;
            }
        });
    for (const DriParams &d : driVariants(pol.dri)) {
        pols.push_back(pol);
        pols.back().dri = d;
    }
    for (const PolicyConfig &p : pols)
        pairs.push_back({{pol}, {p}});

    FastCalibration cal;
    const std::vector<FastCalibration> cals = perturbEach(
        cal, 2, [](FastCalibration &c, unsigned i) {
            auto &[baseCpi, missOverlap, recording] = c;
            (void)recording; // ExecutionOnlyFieldsChangeNoKey
            if (i == 0)
                baseCpi += 0.25;
            else
                missOverlap -= 0.25;
        });
    for (const FastCalibration &c : cals)
        pairs.push_back({{dri, &cal}, {dri, &c}});
    // The core model and the L1I kind name the run too.
    pairs.push_back({{dri}, {dri, &cal}});
    pairs.push_back({{ConventionalL1i{}}, {dri}});
    pairs.push_back({{dri}, {pol}});

    for (std::size_t i = 0; i < pairs.size(); ++i) {
        SCOPED_TRACE("spec variant " + std::to_string(i));
        EXPECT_NE(runKey(b, cfg, pairs[i].first).hashHex(),
                  runKey(b, cfg, pairs[i].second).hashHex());
    }
}

TEST(RunKeyTest, EveryCmpFieldReachesTheCmpKey)
{
    const RunConfig cfg;
    CmpConfig base;
    base.cores = 2;
    base.coherence.enabled = true;
    base.coreConfigs.resize(2);
    for (CmpCoreConfig &c : base.coreConfigs)
        c.l1i = PolicyConfig{};

    std::vector<CmpConfig> variants = perturbEach(
        base, 7, [](CmpConfig &c, unsigned i) {
            auto &[cores, quantum, banks, penalty, coherence,
                   coreConfigs] = c;
            (void)coreConfigs; // perturbed core by core below
            auto &[enabled, entries, msgLatency] = coherence;
            switch (i) {
              case 0: cores += 1; break;
              case 1: quantum += 1; break;
              case 2: banks *= 2; break;
              case 3: penalty += 1; break;
              case 4: enabled = !enabled; break;
              case 5: entries *= 2; break;
              default: msgLatency += 1; break;
            }
        });
    const CmpCoreConfig core = base.coreConfigs[0];
    std::vector<CmpCoreConfig> cores = perturbEach(
        core, 8, [](CmpCoreConfig &c, unsigned i) {
            auto &[bench, l1i] = c;
            auto &[kind, driParams, decay, drowsy, ways] = *l1i;
            (void)driParams; // perturbed field by field below
            switch (i) {
              case 0: bench = "li"; break;
              case 1: l1i.reset(); break;
              case 2: kind = PolicyKind::Decay; break;
              case 3: decay.decayInterval += 1; break;
              case 4: decay.counterLimit += 1; break;
              case 5: drowsy.drowsyInterval += 1; break;
              case 6: drowsy.wakeLatency += 1; break;
              default: ways.activeWays += 1; break;
            }
        });
    for (const DriParams &d : driVariants(core.l1i->dri)) {
        cores.push_back(core);
        cores.back().l1i->dri = d;
    }
    for (std::size_t k = 0; k < base.coreConfigs.size(); ++k)
        for (const CmpCoreConfig &c : cores) {
            variants.push_back(base);
            variants.back().coreConfigs[k] = c;
        }

    const std::string hash = runKeyCmp(cfg, base, "gcc").hashHex();
    for (std::size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE("cmp variant " + std::to_string(i));
        EXPECT_NE(runKeyCmp(cfg, variants[i], "gcc").hashHex(), hash);
    }
}

TEST(RunKeyTest, ExecutionOnlyFieldsChangeNoKey)
{
    // How a run executes — its labels, workers, checkpoints, shard,
    // result cache and the fast model's shared recording — cannot
    // change its result, so it changes no key.
    const auto &b = findBenchmark("gcc");
    CmpConfig cmp;
    cmp.cores = 2;
    const RunConfig base;
    FastCalibration cal;
    const std::string conv = runKey(b, base).hashHex();
    const std::string fast =
        runKey(b, base, {ConventionalL1i{}, &cal}).hashHex();
    const std::string calibrate = runKeyCalibrate(b, base).hashHex();
    const std::string cmpKey = runKeyCmp(base, cmp, "gcc").hashHex();

    RunConfig other = base;
    {
        auto &[hier, core, instrs, jobs, sampling, checkpointDir, shard,
               resultCache] = other;
        (void)core, (void)instrs, (void)sampling;
        hier.l1i.name = "other-l1i";
        hier.l1d.name = "other-l1d";
        hier.l2.name = "other-l2";
        jobs = 7;
        checkpointDir = "/nonexistent/checkpoints";
        shard = farm::ShardPlan{1, 3};
        resultCache = std::make_shared<ResultCache>(
            "/nonexistent/rc.json");
    }
    FastCalibration shared = cal;
    shared.recording = std::make_shared<RecordingSlot>();
    EXPECT_EQ(runKey(b, other).hashHex(), conv);
    EXPECT_EQ(runKey(b, other, {ConventionalL1i{}, &shared}).hashHex(),
              fast);
    EXPECT_EQ(runKeyCalibrate(b, other).hashHex(), calibrate);
    EXPECT_EQ(runKeyCmp(other, cmp, "gcc").hashHex(), cmpKey);
}

// --- store / lookup / persistence -------------------------------------

TEST(ResultCacheTest, StoreThenLookupRoundTrips)
{
    TempDir dir;
    ResultCache cache(dir.file("rc.json"));
    ConfigKey key;
    key.add("bench", "compress").add("instrs", std::uint64_t{42});

    ResultCache::Fields miss;
    EXPECT_FALSE(cache.lookup(key, miss));
    EXPECT_EQ(cache.counters().misses, 1u);

    ResultCache::Fields f{{"ipc", "1.5"}, {"cycles", "28"}};
    cache.store(key, f);
    EXPECT_EQ(cache.counters().stores, 1u);

    ResultCache::Fields got;
    ASSERT_TRUE(cache.lookup(key, got));
    EXPECT_EQ(got, f);
    EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(ResultCacheTest, PersistsAcrossInstances)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("k", "v");
    const ResultCache::Fields f{{"cycles", "123"}};
    {
        ResultCache cache(path);
        cache.store(key, f);
        cache.flush();
    }
    ResultCache reopened(path);
    ResultCache::Fields got;
    ASSERT_TRUE(reopened.lookup(key, got));
    EXPECT_EQ(got, f);
}

TEST(ResultCacheTest, JsonEscapesRoundTrip)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("path", "a\"b\\c\nd\te");
    ResultCache::Fields f{{"note", "line1\nline2 \"quoted\" \\slash"},
                          {"ctrl", std::string("\x01\x1f", 2)}};
    {
        ResultCache cache(path);
        cache.store(key, f);
    } // flush on destruction
    ResultCache reopened(path);
    ResultCache::Fields got;
    ASSERT_TRUE(reopened.lookup(key, got));
    EXPECT_EQ(got, f);
}

// --- tamper resistance ------------------------------------------------

TEST(ResultCacheTest, CorruptedSidecarIsRecomputedNotServed)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("k", "v");
    {
        ResultCache cache(path);
        cache.store(key, {{"cycles", "1"}});
    }
    spit(path, "this is not json {{{");
    ResultCache cache(path);
    ResultCache::Fields got;
    EXPECT_FALSE(cache.lookup(key, got)); // parse fail -> empty cache
    cache.store(key, {{"cycles", "2"}});
    cache.flush();
    ResultCache again(path);
    ASSERT_TRUE(again.lookup(key, got));
    EXPECT_EQ(got.at("cycles"), "2");
}

TEST(ResultCacheTest, TruncatedSidecarIsAMiss)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("k", "v");
    {
        ResultCache cache(path);
        cache.store(key, {{"cycles", "1"}});
    }
    const std::string full = slurp(path);
    ASSERT_GT(full.size(), 4u);
    spit(path, full.substr(0, full.size() / 2));
    ResultCache cache(path);
    ResultCache::Fields got;
    EXPECT_FALSE(cache.lookup(key, got));
}

TEST(ResultCacheTest, HashCollisionIsAMissNotAWrongAnswer)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey key;
    key.add("a", "1");
    {
        ResultCache cache(path);
        cache.store(key, {{"cycles", "1"}});
    }
    // Simulate a collision: same hash slot, different config string.
    // The stored full config must be compared, so this entry can
    // never be served for `key`.
    const std::string full = slurp(path);
    const std::string edited =
        std::string(full).replace(full.find("a=1;"), 4, "a=9;");
    ASSERT_NE(full, edited);
    spit(path, edited);
    ResultCache cache(path);
    ResultCache::Fields got;
    EXPECT_FALSE(cache.lookup(key, got));
}

// --- concurrent multi-process writers (sweep farm) --------------------

ConfigKey
numberedKey(const std::string &who, int i)
{
    ConfigKey k;
    k.add("writer", who).add("cell", std::to_string(i));
    return k;
}

/**
 * The farm guarantee: any number of shard processes flushing to one
 * sidecar interleave whole records, never bytes (single O_APPEND
 * write per flush). Two real processes hammer the same file with
 * per-record flushes; afterwards a fresh reader must see every
 * record from both, intact.
 */
TEST(ResultCacheTest, TwoProcessHammerInterleavesWholeRecords)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    constexpr int kRecords = 200;

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: its own cache instance on the same sidecar. A long
        // payload makes a torn interleave overwhelmingly likely if
        // flushes ever split across writes.
        ResultCache cache(path);
        const std::string blob(256, 'c');
        for (int i = 0; i < kRecords; ++i) {
            cache.store(numberedKey("child", i),
                        {{"cycles", std::to_string(i)},
                         {"blob", blob}});
            cache.flush();
        }
        _exit(0);
    }
    {
        ResultCache cache(path);
        const std::string blob(256, 'p');
        for (int i = 0; i < kRecords; ++i) {
            cache.store(numberedKey("parent", i),
                        {{"cycles", std::to_string(i)},
                         {"blob", blob}});
            cache.flush();
        }
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    ResultCache reader(path);
    EXPECT_EQ(reader.size(), 2u * kRecords);
    ResultCache::Fields got;
    for (int i = 0; i < kRecords; ++i) {
        EXPECT_TRUE(reader.lookup(numberedKey("parent", i), got))
            << i;
        EXPECT_TRUE(reader.lookup(numberedKey("child", i), got))
            << i;
        EXPECT_EQ(got.at("cycles"), std::to_string(i));
    }
}

TEST(ResultCacheTest, TornLineInvalidatesOnlyItself)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey first = numberedKey("w", 1);
    ConfigKey second = numberedKey("w", 2);
    {
        ResultCache cache(path);
        cache.store(first, {{"cycles", "1"}});
        cache.flush();
    }
    // A writer killed mid-append leaves a torn line; records around
    // it must survive. Splice junk (newline-terminated) between two
    // valid records.
    std::string contents = slurp(path);
    contents += "{\"hash\":\"torn torn to";
    contents += '\n';
    spit(path, contents);
    {
        ResultCache cache(path);
        cache.store(second, {{"cycles", "2"}});
        cache.flush();
    }
    ResultCache reader(path);
    ResultCache::Fields got;
    EXPECT_TRUE(reader.lookup(first, got));
    EXPECT_TRUE(reader.lookup(second, got));
    EXPECT_EQ(reader.size(), 2u);
}

TEST(ResultCacheTest, AppendAfterUnterminatedTailIsNotLost)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    // Junk tail with no trailing newline (torn final append): the
    // next flush must start on a fresh line or its first record is
    // glued to the junk and lost with it.
    spit(path, "this is not json {{{");
    ConfigKey key = numberedKey("w", 1);
    {
        ResultCache cache(path);
        cache.store(key, {{"cycles", "1"}});
        cache.flush();
    }
    ResultCache reader(path);
    ResultCache::Fields got;
    EXPECT_TRUE(reader.lookup(key, got));
    EXPECT_EQ(got.at("cycles"), "1");
}

TEST(ResultCacheTest, ReloadSeesOtherWritersRecords)
{
    TempDir dir;
    const std::string path = dir.file("rc.json");
    ConfigKey mine = numberedKey("a", 1);
    ConfigKey theirs = numberedKey("b", 1);

    ResultCache a(path);
    a.store(mine, {{"cycles", "1"}});
    a.flush();
    ResultCache::Fields got;
    EXPECT_FALSE(a.lookup(theirs, got)); // not written yet
    {
        // "Another process": an independent instance on the path.
        ResultCache b(path);
        b.store(theirs, {{"cycles", "2"}});
        b.flush();
    }
    // Without reload the stale in-memory view still misses...
    EXPECT_FALSE(a.lookup(theirs, got));
    // ...and reload (sweep_merge's re-read-on-merge) picks it up
    // without losing unflushed local state.
    a.store(numberedKey("a", 2), {{"cycles", "3"}});
    a.reload();
    EXPECT_TRUE(a.lookup(theirs, got));
    EXPECT_EQ(got.at("cycles"), "2");
    EXPECT_TRUE(a.lookup(numberedKey("a", 2), got));
}

// --- runner integration -----------------------------------------------

TEST(ResultCacheRunnerTest, CachedRunIsByteIdenticalToComputed)
{
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));
    DriParams dp;
    dp.senseInterval = 20 * 1000;
    dp.sizeBoundBytes = 1024;
    dp.missBound = 100;

    const RunOutput computed = run(b, cfg, {dp});
    EXPECT_EQ(cfg.resultCache->counters().stores, 1u);
    const RunOutput cached = run(b, cfg, {dp});
    EXPECT_EQ(cfg.resultCache->counters().hits, 1u);

    expectSameRun(computed, cached);
}

TEST(ResultCacheRunnerTest, EveryRunOutputFieldIsACounter)
{
    // The payload and expectSameRun carry exactly what
    // forEachCounter lists. Binding every field of RunOutput's two
    // parts here makes a new field fail to compile until it is
    // listed (RunOutput adds none of its own); each field then gets a
    // distinct value that the walk must visit once.
    static_assert(sizeof(RunOutput) ==
                  sizeof(CoreOutput) + sizeof(SharedOutput));
    RunOutput out;
    auto &[meas, ipc, l1dMissRate, resizes, throttles, drowsy, gated,
           wakes, wakeStalls, lost] = static_cast<CoreOutput &>(out);
    auto &[l2MissRate, l2Accesses, l2Misses, memAccesses, memReads,
           memWritebacks, coalesced, fullStalls, fullStallCycles, peak,
           rowHits, rowMisses, queueFull, busy, l2Bytes, l2Active,
           l2TagBits, l2Resizes] = static_cast<SharedOutput &>(out);
    auto &[cycles, instrs, l1iAccesses, l1iMisses, l1iActive, tagBits,
           l1iBytes] = meas;
    double next = 0.0;
    const auto number = [&next](auto &...fields) {
        ((fields = static_cast<std::remove_reference_t<decltype(fields)>>(
              ++next)),
         ...);
    };
    number(cycles, instrs, l1iAccesses, l1iMisses, l1iActive, tagBits,
           l1iBytes, ipc, l1dMissRate, l2MissRate, l2Accesses, l2Misses,
           memAccesses, memReads, memWritebacks, resizes, throttles,
           coalesced, fullStalls, fullStallCycles, peak, rowHits,
           rowMisses, queueFull, busy, l2Bytes, l2Active, l2TagBits,
           l2Resizes, drowsy, gated, wakes, wakeStalls, lost);

    std::set<std::string> names;
    std::set<double> values;
    forEachCounter(out, [&](const char *name, auto v) {
        names.insert(name);
        values.insert(static_cast<double>(v));
    });
    EXPECT_EQ(names.size(), 34u);
    ASSERT_EQ(values.size(), 34u);
    EXPECT_EQ(*values.begin(), 1.0);
    EXPECT_EQ(*values.rbegin(), next);
}

TEST(ResultCacheRunnerTest, PartialEntryIsRecomputedNeverServed)
{
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));
    DriParams dp;
    dp.senseInterval = 20 * 1000;
    dp.sizeBoundBytes = 1024;
    dp.missBound = 100;

    // Poison the cache with an entry under the run's own key that
    // is missing most fields (e.g. written by a newer binary with a
    // different schema). Strict parsing must reject and recompute.
    cfg.resultCache->store(runKey(b, cfg, {dp}),
                           {{"ipc", "9.0"}, {"cycles", "junk"}});

    const RunOutput out = run(b, cfg, {dp});
    EXPECT_NE(out.ipc, 9.0);
    EXPECT_GT(out.meas.cycles, 0u);

    // The recompute overwrote the poisoned entry with a full one.
    RunConfig cfg2 = cfg;
    const RunOutput again = run(b, cfg2, {dp});
    EXPECT_EQ(out.ipc, again.ipc);
    EXPECT_EQ(out.meas.cycles, again.meas.cycles);
}

TEST(ResultCacheRunnerTest, NonBlockingMemoryFieldsRoundTrip)
{
    // The payload must carry the non-blocking-memory columns: a
    // banked-DRAM run served from the cache has to reproduce them
    // exactly (they feed the bench tables), not as silent zeros.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.hier.dram.banked = true;
    cfg.hier.l1i.mshrs = 2;
    cfg.hier.l1d.mshrs = 2;
    cfg.hier.l2.mshrs = 4;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));

    const RunOutput computed = run(b, cfg);
    EXPECT_GT(computed.mshrPeakOccupancy, 0u);
    EXPECT_GT(computed.dramBusyCycles, 0u);

    const RunOutput cached = run(b, cfg);
    EXPECT_EQ(cfg.resultCache->counters().hits, 1u);
    expectSameRun(cached, computed);
}

TEST(ResultCacheRunnerTest, StalePayloadVersionIsAMissNotServed)
{
    // An entry written under an earlier payload layout (v1 before
    // the non-blocking-memory columns, v2 before l1_gated_fraction)
    // carries an older marker — or none at all. Either must miss
    // cleanly and be recomputed, never served with the missing
    // columns zeroed.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));

    const RunOutput computed = run(b, cfg);
    const sim::ConfigKey key = runKey(b, cfg);
    sim::ResultCache::Fields f;
    ASSERT_TRUE(cfg.resultCache->lookup(key, f));
    ASSERT_EQ(f.at("payload_v"), "3");

    // Rewrite the entry as an older binary would have left it.
    for (const char *older : {"1", "2"}) {
        f["payload_v"] = older;
        cfg.resultCache->store(key, f);
        const auto before = cfg.resultCache->counters();
        const RunOutput out = run(b, cfg);
        EXPECT_EQ(cfg.resultCache->counters().stores,
                  before.stores + 1);
        EXPECT_EQ(out.meas.cycles, computed.meas.cycles);
    }

    // Same for an entry with the marker stripped entirely.
    f.erase("payload_v");
    cfg.resultCache->store(key, f);
    const auto before2 = cfg.resultCache->counters();
    const RunOutput again = run(b, cfg);
    EXPECT_EQ(cfg.resultCache->counters().stores,
              before2.stores + 1);
    EXPECT_EQ(again.meas.cycles, computed.meas.cycles);
}

TEST(ResultCacheRunnerTest, ImpossibleRunRecordIsRecomputedNeverServed)
{
    // A run record no run of the key's length can produce — a
    // negative or sign-prefixed count, no instructions or more than
    // the key asks for, no cycles, more misses than accesses, a
    // fraction outside [0, 1], more than 64 tag bits — misses and is
    // recomputed and overwritten. Before, "-1" cycles wrapped to
    // 2^64 - 1 and was served, and zero instructions reached the
    // calibration, which aborted.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    cfg.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));
    const RunOutput fresh = run(b, cfg);
    const ConfigKey key = runKey(b, cfg);
    ResultCache::Fields real;
    ASSERT_TRUE(cfg.resultCache->lookup(key, real));

    const std::pair<const char *, std::string> splices[] = {
        {"cycles", "-1"},
        {"cycles", "0"},
        {"l2_misses", " +5"},
        {"mem_accesses", "+5"},
        {"instructions", "0"},
        {"instructions", std::to_string(cfg.maxInstrs + 1)},
        {"l1i_misses", std::to_string(fresh.meas.l1iAccesses + 1)},
        {"l2_misses", std::to_string(fresh.l2Accesses + 1)},
        {"l1i_active_fraction", "1.5"},
        {"l2_active_fraction", "-0.5"},
        {"l1_drowsy_fraction", "1.5"},
        {"l1_gated_fraction", "1.5"},
        {"l1i_tag_bits", "65"},
        {"l2_tag_bits", "4294967297"}};
    for (const auto &[field, value] : splices) {
        SCOPED_TRACE(std::string(field) + "=" + value);
        ResultCache::Fields spliced = real;
        spliced[field] = value;
        cfg.resultCache->store(key, spliced);

        const auto before = cfg.resultCache->counters();
        const RunOutput out = run(b, cfg);
        EXPECT_EQ(cfg.resultCache->counters().stores,
                  before.stores + 1);
        EXPECT_EQ(out.meas.cycles, fresh.meas.cycles);
        EXPECT_EQ(out.meas.instructions, fresh.meas.instructions);
        EXPECT_EQ(out.meas.l1iMisses, fresh.meas.l1iMisses);
        EXPECT_EQ(out.meas.avgActiveFraction,
                  fresh.meas.avgActiveFraction);
        EXPECT_EQ(out.l2Misses, fresh.l2Misses);
        EXPECT_EQ(out.memAccesses, fresh.memAccesses);
        EXPECT_EQ(out.l1GatedFraction, fresh.l1GatedFraction);
        // The calibration that reads the run gets a real one.
        EXPECT_GT(calibrateFast(b, cfg, out).baseCpi, 0.0);

        // The recomputed record replaced the bad one and is served.
        const auto mid = cfg.resultCache->counters();
        EXPECT_EQ(run(b, cfg).meas.cycles, fresh.meas.cycles);
        EXPECT_EQ(cfg.resultCache->counters().stores, mid.stores);
        EXPECT_EQ(cfg.resultCache->counters().hits, mid.hits + 1);
    }
}

TEST(ResultCacheRunnerTest, ImpossibleCalibrationIsRecomputedNeverServed)
{
    // A calibration record calibrateFast cannot have written — a
    // base CPI that is not finite or is under the 8-wide floor, or a
    // miss overlap outside [0, 1] — misses and is recomputed. Before,
    // nan, -1 and 0 aborted the run inside the fast model, and inf
    // and 1e-300 reached it.
    const auto &b = findBenchmark("compress");
    TempDir dir;
    RunConfig cfg;
    cfg.maxInstrs = 200 * 1000;
    const RunOutput conv = run(b, cfg);
    const FastCalibration fresh = calibrateFast(b, cfg, conv);
    DriParams dp;
    dp.senseInterval = 20 * 1000;
    dp.sizeBoundBytes = 1024;
    dp.missBound = 100;
    const RunOutput freshFast = run(b, cfg, {dp, &fresh});

    RunConfig cached = cfg;
    cached.resultCache =
        std::make_shared<ResultCache>(dir.file("rc.json"));
    calibrateFast(b, cached, conv);
    const ConfigKey key = runKeyCalibrate(b, cached);
    ResultCache::Fields real;
    ASSERT_TRUE(cached.resultCache->lookup(key, real));

    const std::pair<const char *, const char *> splices[] = {
        {"base_cpi", "nan"},      {"base_cpi", "-1"},
        {"base_cpi", "0"},        {"base_cpi", "inf"},
        {"base_cpi", "1e-300"},   {"miss_overlap", "-0.5"},
        {"miss_overlap", "1.5"}};
    for (const auto &[field, value] : splices) {
        SCOPED_TRACE(std::string(field) + "=" + value);
        ResultCache::Fields spliced = real;
        spliced[field] = value;
        cached.resultCache->store(key, spliced);

        const auto before = cached.resultCache->counters();
        const FastCalibration cal = calibrateFast(b, cached, conv);
        EXPECT_EQ(cached.resultCache->counters().stores,
                  before.stores + 1);
        EXPECT_EQ(cal.baseCpi, fresh.baseCpi);
        EXPECT_EQ(cal.missOverlap, fresh.missOverlap);
        const RunOutput fast = run(b, cfg, {dp, &cal});
        EXPECT_EQ(fast.meas.cycles, freshFast.meas.cycles);
        EXPECT_EQ(fast.meas.l1iMisses, freshFast.meas.l1iMisses);
        EXPECT_EQ(fast.meas.avgActiveFraction,
                  freshFast.meas.avgActiveFraction);

        // The recomputed record replaced the bad one and is served.
        const auto mid = cached.resultCache->counters();
        EXPECT_EQ(calibrateFast(b, cached, conv).baseCpi, fresh.baseCpi);
        EXPECT_EQ(cached.resultCache->counters().stores, mid.stores);
    }
}

} // namespace
} // namespace drisim
