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
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "harness/runner.hh"
#include "sim/result_cache.hh"
#include "workload/spec_suite.hh"

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

    EXPECT_EQ(computed.meas.cycles, cached.meas.cycles);
    EXPECT_EQ(computed.meas.avgActiveFraction,
              cached.meas.avgActiveFraction);
    EXPECT_EQ(computed.ipc, cached.ipc);
    EXPECT_EQ(computed.l1dMissRate, cached.l1dMissRate);
    EXPECT_EQ(computed.resizes, cached.resizes);
    EXPECT_EQ(computed.l2Misses, cached.l2Misses);
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
    EXPECT_EQ(cached.mshrFullStallCycles,
              computed.mshrFullStallCycles);
    EXPECT_EQ(cached.mshrPeakOccupancy, computed.mshrPeakOccupancy);
    EXPECT_EQ(cached.dramQueueFullEvents,
              computed.dramQueueFullEvents);
    EXPECT_EQ(cached.dramBusyCycles, computed.dramBusyCycles);
}

TEST(ResultCacheRunnerTest, StalePayloadVersionIsAMissNotServed)
{
    // An entry written under the previous payload layout (before
    // the non-blocking-memory columns) carries payload_v=1 — or no
    // marker at all. Either must miss cleanly and be recomputed,
    // never served with the missing columns zeroed.
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
    ASSERT_EQ(f.at("payload_v"), "2");

    // Rewrite the entry as an older binary would have left it.
    f["payload_v"] = "1";
    cfg.resultCache->store(key, f);
    const auto before = cfg.resultCache->counters();
    const RunOutput out = run(b, cfg);
    EXPECT_EQ(cfg.resultCache->counters().stores,
              before.stores + 1);
    EXPECT_EQ(out.meas.cycles, computed.meas.cycles);

    // Same for an entry with the marker stripped entirely.
    f.erase("payload_v");
    cfg.resultCache->store(key, f);
    const auto before2 = cfg.resultCache->counters();
    const RunOutput again = run(b, cfg);
    EXPECT_EQ(cfg.resultCache->counters().stores,
              before2.stores + 1);
    EXPECT_EQ(again.meas.cycles, computed.meas.cycles);
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
