/**
 * @file
 * Sweep-farm tests: the shard-plan algebra every registered sweep
 * must satisfy (pairwise disjoint, covering, stable across
 * execution order), strict --shard spec parsing, fragment
 * round-trip, resume adoption and completion-order independence,
 * and merge semantics (dedup under
 * the result-cache rule, hash-collision rejection, hole detection
 * with owner-shard attribution, manifest round-trip).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <unistd.h>

#include "farm/fragment.hh"
#include "farm/merge.hh"
#include "farm/shard_plan.hh"
#include "farm/sweep_registry.hh"
#include "sim/checkpoint.hh"
#include "sim/result_cache.hh"

namespace drisim::farm
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("drisim_farm_" + std::to_string(::getpid()) + "_" +
             name))
        .string();
}

SweepSetup
defaultSetup()
{
    SweepSetup s;
    s.cfg.maxInstrs = 1000000;
    return s;
}

// ---------------------------------------------------------------
// Shard-plan algebra
// ---------------------------------------------------------------

TEST(ShardPlan, UnshardedOwnsEverything)
{
    const ShardPlan p{};
    EXPECT_FALSE(p.active());
    EXPECT_TRUE(p.owns(0u));
    EXPECT_TRUE(p.owns(0xdeadbeefu));
    EXPECT_EQ(p.spec(), "1/1");
}

TEST(ShardPlan, SpecRoundTrips)
{
    ShardPlan p;
    std::string err;
    ASSERT_TRUE(parseShardSpec("2/3", p, err)) << err;
    EXPECT_EQ(p.shard, 1u);
    EXPECT_EQ(p.ofShards, 3u);
    EXPECT_TRUE(p.active());
    EXPECT_EQ(p.spec(), "2/3");

    ShardPlan again;
    ASSERT_TRUE(parseShardSpec(p.spec(), again, err)) << err;
    EXPECT_EQ(p, again);
}

TEST(ShardPlan, StrictSpecParsing)
{
    ShardPlan p;
    std::string err;
    for (const char *bad :
         {"", "/", "2", "2/", "/3", "0/3", "4/3", "-1/3", "2/-3",
          "+1/3", "a/b", "1/0", "2/4097", "1/3/5", "1 /3"}) {
        err.clear();
        EXPECT_FALSE(parseShardSpec(bad, p, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    EXPECT_TRUE(parseShardSpec("1/1", p, err));
    EXPECT_FALSE(p.active());
    EXPECT_TRUE(parseShardSpec("4096/4096", p, err));
    EXPECT_EQ(p.ofShards, 4096u);
}

/**
 * The core farm invariant, proven against the real registry: for
 * every registered sweep and every width, the shard plans form a
 * partition of the unit list — each unit is owned by exactly one
 * shard — and ownership depends only on the unit's stable hash, so
 * any execution order shards identically.
 */
TEST(ShardPlan, PartitionsEveryRegisteredSweep)
{
    const SweepSetup setup = defaultSetup();
    for (const std::string &sweep : sweepNames()) {
        SCOPED_TRACE(sweep);
        const std::vector<SweepUnit> units = sweepUnits(sweep, setup);
        ASSERT_FALSE(units.empty());

        // Unit hashes must be distinct, or two units would be
        // indistinguishable to the merge dedup.
        std::set<std::uint64_t> hashes;
        for (const SweepUnit &u : units) {
            EXPECT_TRUE(hashes.insert(u.hash).second)
                << "duplicate unit hash for " << u.label;
            EXPECT_EQ(u.hashHex, sim::toHex64(u.hash));
        }

        for (unsigned n : {1u, 2u, 3u, 7u}) {
            SCOPED_TRACE(n);
            std::size_t owned = 0;
            for (const SweepUnit &u : units) {
                unsigned owners = 0;
                for (unsigned k = 0; k < n; ++k) {
                    const ShardPlan plan{k, n};
                    if (plan.owns(u.hash))
                        ++owners;
                }
                EXPECT_EQ(owners, 1u)
                    << u.label << " owned by " << owners
                    << " shards at width " << n;
                owned += owners;
            }
            EXPECT_EQ(owned, units.size());
        }

        // Stability under execution order: ownership is a pure
        // function of the hash, so shuffling the unit list changes
        // nothing about who owns what.
        std::vector<SweepUnit> shuffled = units;
        std::mt19937 rng(12345);
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        const ShardPlan plan{1, 3};
        std::set<std::string> a, b;
        for (const SweepUnit &u : units)
            if (plan.owns(u.hash))
                a.insert(u.config);
        for (const SweepUnit &u : shuffled)
            if (plan.owns(u.hash))
                b.insert(u.config);
        EXPECT_EQ(a, b);
    }
}

/** Re-enumerating a sweep yields identical units: labels, configs
 *  and hashes — the registry is deterministic, which is what makes
 *  fragments from different processes joinable. */
TEST(SweepRegistry, EnumerationIsStable)
{
    const SweepSetup setup = defaultSetup();
    for (const std::string &sweep : sweepNames()) {
        const auto once = sweepUnits(sweep, setup);
        const auto twice = sweepUnits(sweep, setup);
        ASSERT_EQ(once.size(), twice.size());
        for (std::size_t i = 0; i < once.size(); ++i) {
            EXPECT_EQ(once[i].label, twice[i].label);
            EXPECT_EQ(once[i].config, twice[i].config);
            EXPECT_EQ(once[i].hash, twice[i].hash);
        }
    }
}

/** A config change re-keys every unit (the shard key is semantic):
 *  sharding a different experiment never aliases the old one. */
TEST(SweepRegistry, UnitHashesTrackConfig)
{
    SweepSetup a = defaultSetup();
    SweepSetup b = a;
    b.cfg.maxInstrs = a.cfg.maxInstrs * 2;
    const auto ua = sweepUnits("figure4", a);
    const auto ub = sweepUnits("figure4", b);
    ASSERT_EQ(ua.size(), ub.size());
    for (std::size_t i = 0; i < ua.size(); ++i)
        EXPECT_NE(ua[i].hash, ub[i].hash) << ua[i].label;
}

// ---------------------------------------------------------------
// Fragments
// ---------------------------------------------------------------

Fragment
sampleFragment(unsigned shard, unsigned ofShards)
{
    Fragment f;
    f.bench = "bench_test";
    f.shard = ShardPlan{shard, ofShards};
    f.columns = {"benchmark", "value", "config_hash"};
    for (std::uint64_t i = 0; i < 4; ++i)
        f.plan.push_back({i, sim::toHex64(0x1000 + i)});
    return f;
}

SweepUnit
sampleUnit(std::uint64_t i)
{
    SweepUnit u;
    u.label = "unit" + std::to_string(i);
    u.config = "bench=unit" + std::to_string(i) + ";instrs=1000;";
    u.hash = 0x1000 + i;
    u.hashHex = sim::toHex64(u.hash);
    return u;
}

FragmentRecord
sampleRecord(std::uint64_t i)
{
    const SweepUnit u = sampleUnit(i);
    FragmentRecord r;
    r.index = i;
    r.hash = u.hashHex;
    r.config = u.config;
    r.rows = {{u.label, std::to_string(i * 10), u.hashHex}};
    return r;
}

TEST(Fragment, RenderReadRoundTrip)
{
    Fragment f = sampleFragment(1, 3);
    f.records.push_back(sampleRecord(1));
    f.records.back().wallSeconds = "1.234";
    f.records.push_back(sampleRecord(3));
    f.complete = true;

    const std::string path = tempPath("roundtrip.part.json");
    std::string err;
    ASSERT_TRUE(writeFileAtomic(path, renderFragment(f), err)) << err;

    Fragment g;
    ASSERT_TRUE(readFragment(path, g, err)) << err;
    EXPECT_EQ(g.bench, f.bench);
    EXPECT_EQ(g.shard, f.shard);
    EXPECT_EQ(g.columns, f.columns);
    ASSERT_EQ(g.plan.size(), f.plan.size());
    for (std::size_t i = 0; i < f.plan.size(); ++i) {
        EXPECT_EQ(g.plan[i].index, f.plan[i].index);
        EXPECT_EQ(g.plan[i].hash, f.plan[i].hash);
    }
    ASSERT_EQ(g.records.size(), 2u);
    EXPECT_EQ(g.records[0].config, f.records[0].config);
    EXPECT_EQ(g.records[0].wallSeconds, "1.234");
    EXPECT_EQ(g.records[1].rows, f.records[1].rows);
    EXPECT_EQ(g.records[1].wallSeconds, "0.000");
    EXPECT_TRUE(g.complete);
    std::filesystem::remove(path);
}

TEST(Fragment, ReadRejectsGarbage)
{
    const std::string path = tempPath("garbage.part.json");
    std::ofstream(path) << "{\"not\": \"a fragment\"}";
    Fragment f;
    std::string err;
    EXPECT_FALSE(readFragment(path, f, err));
    EXPECT_FALSE(err.empty());
    std::filesystem::remove(path);

    EXPECT_FALSE(readFragment(tempPath("nonexistent"), f, err));
}

TEST(FragmentWriter, StreamsAndResumes)
{
    const std::string path = tempPath("writer.part.json");
    std::filesystem::remove(path);
    std::vector<SweepUnit> units;
    for (std::uint64_t i = 0; i < 4; ++i)
        units.push_back(sampleUnit(i));
    const std::vector<std::string> cols{"benchmark", "value",
                                        "config_hash"};
    const ShardPlan shard{1, 3};

    {
        FragmentWriter w(path, "bench_test", shard, cols, units);
        EXPECT_EQ(w.resumedRecords(), 0u);
        w.addRecord(1, units[1], {{"unit1", "10", units[1].hashHex}},
                    "2.500");
        // No finalize: simulates a shard killed mid-sweep. The
        // record-at-a-time rewrite means the file on disk already
        // holds unit 1.
    }

    {
        // Same identity: the fragment is adopted.
        FragmentWriter w(path, "bench_test", shard, cols, units);
        EXPECT_EQ(w.resumedRecords(), 1u);
        EXPECT_TRUE(w.hasRecord(1));
        EXPECT_FALSE(w.hasRecord(2));
        w.addRecord(2, units[2], {{"unit2", "20", units[2].hashHex}});
        w.finalize();
    }

    Fragment f;
    std::string err;
    ASSERT_TRUE(readFragment(path, f, err)) << err;
    EXPECT_TRUE(f.complete);
    ASSERT_EQ(f.records.size(), 2u);
    EXPECT_EQ(f.records[0].index, 1u);
    // The resumed record keeps its original per-unit wall seconds.
    EXPECT_EQ(f.records[0].wallSeconds, "2.500");
    EXPECT_EQ(f.records[1].index, 2u);

    {
        // Different plan (a changed config): the stale fragment is
        // discarded, not silently merged into the new experiment.
        std::vector<SweepUnit> other = units;
        other[0].hash ^= 0xff;
        other[0].hashHex = sim::toHex64(other[0].hash);
        FragmentWriter w(path, "bench_test", shard, cols, other);
        EXPECT_EQ(w.resumedRecords(), 0u);
        EXPECT_FALSE(w.hasRecord(1));
    }
    std::filesystem::remove(path);
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(FragmentWriter, RecordsStayInPlanOrder)
{
    // Concurrent units finish in any order; a fragment's bytes must
    // depend only on which units it holds.
    std::vector<SweepUnit> units;
    for (std::uint64_t i = 0; i < 5; ++i)
        units.push_back(sampleUnit(i));
    const std::vector<std::string> cols{"benchmark", "value",
                                        "config_hash"};
    const ShardPlan shard{};
    auto rowsOf = [&](std::uint64_t i) {
        return std::vector<std::vector<std::string>>{
            {units[i].label, std::to_string(i), units[i].hashHex}};
    };

    const std::string shuffled = tempPath("shuffled.part.json");
    const std::string ordered = tempPath("ordered.part.json");
    std::filesystem::remove(shuffled);
    std::filesystem::remove(ordered);
    {
        FragmentWriter w(shuffled, "bench_test", shard, cols, units);
        for (const std::uint64_t i : {3u, 0u, 4u, 2u})
            w.addRecord(i, units[i], rowsOf(i));
    }
    {
        FragmentWriter w(ordered, "bench_test", shard, cols, units);
        for (const std::uint64_t i : {0u, 2u, 3u, 4u})
            w.addRecord(i, units[i], rowsOf(i));
    }
    EXPECT_EQ(readBytes(shuffled), readBytes(ordered));

    // A fragment whose records are out of plan order on disk is
    // adopted in plan order, and later records slot in between.
    Fragment f;
    f.bench = "bench_test";
    f.shard = shard;
    f.columns = cols;
    for (std::uint64_t i = 0; i < units.size(); ++i)
        f.plan.push_back({i, units[i].hashHex});
    for (const std::uint64_t i : {4u, 1u}) {
        FragmentRecord r;
        r.index = i;
        r.hash = units[i].hashHex;
        r.config = units[i].config;
        r.rows = rowsOf(i);
        f.records.push_back(r);
    }
    std::string err;
    ASSERT_TRUE(writeFileAtomic(shuffled, renderFragment(f), err))
        << err;
    {
        FragmentWriter w(shuffled, "bench_test", shard, cols, units);
        EXPECT_EQ(w.resumedRecords(), 2u);
        w.addRecord(2, units[2], rowsOf(2));
    }
    Fragment back;
    ASSERT_TRUE(readFragment(shuffled, back, err)) << err;
    ASSERT_EQ(back.records.size(), 3u);
    EXPECT_EQ(back.records[0].index, 1u);
    EXPECT_EQ(back.records[1].index, 2u);
    EXPECT_EQ(back.records[2].index, 4u);
    std::filesystem::remove(shuffled);
    std::filesystem::remove(ordered);
}

// ---------------------------------------------------------------
// Merge
// ---------------------------------------------------------------

/** Write fragment @p f to a temp file and return the path. */
std::string
writeFrag(const Fragment &f, const std::string &name)
{
    const std::string path = tempPath(name);
    std::string err;
    EXPECT_TRUE(writeFileAtomic(path, renderFragment(f), err)) << err;
    return path;
}

TEST(Merge, JoinsDisjointFragmentsInPlanOrder)
{
    Fragment a = sampleFragment(0, 2);
    a.records.push_back(sampleRecord(2));
    a.records.push_back(sampleRecord(0));
    a.complete = true;
    Fragment b = sampleFragment(1, 2);
    b.records.push_back(sampleRecord(3));
    b.records.push_back(sampleRecord(1));
    b.complete = true;

    const std::string pa = writeFrag(a, "merge_a.part.json");
    const std::string pb = writeFrag(b, "merge_b.part.json");
    MergeResult out;
    std::string err;
    ASSERT_TRUE(mergeFragments({pa, pb}, out, err)) << err;
    EXPECT_TRUE(out.missing.empty());
    EXPECT_EQ(out.duplicates, 0u);
    ASSERT_EQ(out.rows.size(), 4u);
    // Rows come out in plan order however the shards finished.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(out.rows[i][0], "unit" + std::to_string(i));
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
}

TEST(Merge, DropsExactDuplicates)
{
    Fragment a = sampleFragment(0, 2);
    a.records.push_back(sampleRecord(0));
    a.records.push_back(sampleRecord(1)); // overlap with b
    Fragment b = sampleFragment(1, 2);
    b.records.push_back(sampleRecord(1));
    // Dedup compares config+rows only: a re-run's differing wall
    // seconds never turns an exact duplicate into a conflict.
    b.records.back().wallSeconds = "9.999";
    b.records.push_back(sampleRecord(2));
    b.records.push_back(sampleRecord(3));

    const std::string pa = writeFrag(a, "dup_a.part.json");
    const std::string pb = writeFrag(b, "dup_b.part.json");
    MergeResult out;
    std::string err;
    ASSERT_TRUE(mergeFragments({pa, pb}, out, err)) << err;
    EXPECT_EQ(out.duplicates, 1u);
    EXPECT_EQ(out.rows.size(), 4u);
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
}

TEST(Merge, RejectsHashCollision)
{
    // Same hash, different canonical config: the result-cache rule
    // makes this a hard error, never a silent pick.
    Fragment a = sampleFragment(0, 2);
    a.records.push_back(sampleRecord(1));
    Fragment b = sampleFragment(1, 2);
    FragmentRecord r = sampleRecord(1);
    r.config = "bench=imposter;instrs=1000;";
    b.records.push_back(r);

    const std::string pa = writeFrag(a, "coll_a.part.json");
    const std::string pb = writeFrag(b, "coll_b.part.json");
    MergeResult out;
    std::string err;
    EXPECT_FALSE(mergeFragments({pa, pb}, out, err));
    EXPECT_NE(err.find("collision"), std::string::npos) << err;
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
}

TEST(Merge, RejectsConflictingDuplicateRows)
{
    Fragment a = sampleFragment(0, 2);
    a.records.push_back(sampleRecord(1));
    Fragment b = sampleFragment(1, 2);
    FragmentRecord r = sampleRecord(1);
    r.rows[0][1] = "different";
    b.records.push_back(r);

    const std::string pa = writeFrag(a, "conf_a.part.json");
    const std::string pb = writeFrag(b, "conf_b.part.json");
    MergeResult out;
    std::string err;
    EXPECT_FALSE(mergeFragments({pa, pb}, out, err));
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
}

TEST(Merge, RejectsMismatchedSweeps)
{
    Fragment a = sampleFragment(0, 2);
    Fragment b = sampleFragment(1, 3); // different width
    const std::string pa = writeFrag(a, "mm_a.part.json");
    const std::string pb = writeFrag(b, "mm_b.part.json");
    MergeResult out;
    std::string err;
    EXPECT_FALSE(mergeFragments({pa, pb}, out, err));

    Fragment c = sampleFragment(1, 2);
    c.bench = "bench_other";
    const std::string pc = writeFrag(c, "mm_c.part.json");
    EXPECT_FALSE(mergeFragments({pa, pc}, out, err));
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
    std::filesystem::remove(pc);
}

TEST(Merge, ReportsHolesWithOwnerShard)
{
    // Shard 1/2's fragment is missing entirely; shard 2/2 delivered
    // only part of its work.
    Fragment b = sampleFragment(1, 2);
    b.records.push_back(sampleRecord(1));
    const std::string pb = writeFrag(b, "holes_b.part.json");

    MergeResult out;
    std::string err;
    ASSERT_TRUE(mergeFragments({pb}, out, err)) << err;
    ASSERT_EQ(out.missing.size(), 3u);
    for (const MissingUnit &m : out.missing) {
        // Owner = hash % N + 1 (1-based), straight from the plan.
        const unsigned expect = static_cast<unsigned>(
            sim::fromHex64(m.hash) % 2 + 1);
        EXPECT_EQ(m.shard, expect);
    }

    // Manifest round-trip.
    const std::string doc =
        renderResumeManifest(out.bench, out.ofShards, out.missing);
    const std::string mp = tempPath("holes.resume.json");
    ASSERT_TRUE(writeFileAtomic(mp, doc, err)) << err;
    ResumeManifest manifest;
    ASSERT_TRUE(parseResumeManifest(mp, manifest, err)) << err;
    EXPECT_EQ(manifest.bench, "bench_test");
    EXPECT_EQ(manifest.ofShards, 2u);
    ASSERT_EQ(manifest.missing.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(manifest.missing[i].index, out.missing[i].index);
        EXPECT_EQ(manifest.missing[i].hash, out.missing[i].hash);
        EXPECT_EQ(manifest.missing[i].shard, out.missing[i].shard);
    }
    const std::vector<unsigned> shards = manifest.shards();
    EXPECT_TRUE(std::is_sorted(shards.begin(), shards.end()));
    EXPECT_TRUE(std::set<unsigned>(shards.begin(), shards.end())
                    .size() == shards.size());
    std::filesystem::remove(pb);
    std::filesystem::remove(mp);
}

TEST(Merge, RenderBenchJsonMatchesSchema)
{
    const std::string doc = renderBenchJson(
        "bench_test", ShardPlan{}, 0.0, 1,
        {"benchmark", "value"}, {{"compress", "1"}, {"li", "2"}});
    EXPECT_EQ(doc,
              "{\n"
              "  \"bench\": \"bench_test\",\n"
              "  \"schema_version\": 2,\n"
              "  \"shard\": 0,\n"
              "  \"of_shards\": 0,\n"
              "  \"wall_seconds\": 0.000,\n"
              "  \"workers\": 1,\n"
              "  \"columns\": [\"benchmark\", \"value\"],\n"
              "  \"winners\": [\n"
              "    {\"benchmark\": \"compress\", \"value\": \"1\"},\n"
              "    {\"benchmark\": \"li\", \"value\": \"2\"}\n"
              "  ]\n"
              "}\n");

    // An active shard stamps 1-based provenance.
    const std::string sharded = renderBenchJson(
        "bench_test", ShardPlan{1, 3}, 0.0, 1, {"c"}, {});
    EXPECT_NE(sharded.find("\"shard\": 2,"), std::string::npos);
    EXPECT_NE(sharded.find("\"of_shards\": 3,"), std::string::npos);
}

TEST(Checkpoint, HexRoundTrip)
{
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1},
          std::uint64_t{0xdeadbeefcafebabe},
          ~std::uint64_t{0}})
        EXPECT_EQ(sim::fromHex64(sim::toHex64(v)), v);
    EXPECT_EQ(sim::fromHex64(""), 0u);
    EXPECT_EQ(sim::fromHex64("zz"), 0u);
}

} // namespace
} // namespace drisim::farm
