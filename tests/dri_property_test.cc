/**
 * @file
 * Property-based tests for the DRI i-cache, parameterized over
 * geometry (size, associativity, block size, size-bound,
 * divisibility). Invariants checked against a reference model and
 * against the cache's own bookkeeping under randomized access and
 * resize sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <type_traits>

#include "core/dri_icache.hh"
#include "harness/runner.hh"
#include "mem/cache.hh"
#include "stats/stats.hh"
#include "util/random.hh"

namespace drisim
{
namespace
{

struct Geometry
{
    std::uint64_t sizeBytes;
    unsigned assoc;
    unsigned blockBytes;
    std::uint64_t sizeBound;
    std::uint64_t divisibility;
};

// gtest lists each case as "<name>  # GetParam() = <printed param>"
// and prints a Geometry as its bytes. With no padding bytes to print,
// every listing of the suite names its tests the same way.
static_assert(std::has_unique_object_representations_v<Geometry>);

class DriPropertyTest : public ::testing::TestWithParam<Geometry>
{
};

DriParams
paramsFor(const Geometry &g)
{
    DriParams p;
    p.sizeBytes = g.sizeBytes;
    p.assoc = g.assoc;
    p.blockBytes = g.blockBytes;
    p.sizeBoundBytes = g.sizeBound;
    p.divisibility = static_cast<unsigned>(g.divisibility);
    p.missBound = 50;
    p.senseInterval = 500;
    return p;
}

/**
 * Invariant: a hit in the DRI i-cache implies the block was fetched
 * earlier and not destroyed by an intervening downsize of its set
 * nor remapped by a resize. We track a shadow set of "certainly
 * absent" blocks: any block never accessed must never hit.
 */
TEST_P(DriPropertyTest, NeverHitsUnfetchedBlocks)
{
    const Geometry g = GetParam();
    stats::StatGroup root("t");
    DriICache c(paramsFor(g), nullptr, &root);
    Rng rng(g.sizeBytes + g.assoc * 131 + g.divisibility);

    std::set<Addr> fetched;
    for (int i = 0; i < 20000; ++i) {
        const Addr block = rng.range(4096);
        const Addr addr = block * g.blockBytes;
        const bool hit = c.access(addr, AccessType::InstFetch).hit;
        if (hit) {
            EXPECT_TRUE(fetched.count(block)) << "phantom hit";
        }
        fetched.insert(block);
        if (i % 100 == 0)
            c.retireInstructions(100);
    }
}

/** Invariant: the set count is always a power of two within
 *  [minSets, maxSets], whatever the resize history. */
TEST_P(DriPropertyTest, SetCountStaysInRange)
{
    const Geometry g = GetParam();
    stats::StatGroup root("t");
    DriICache c(paramsFor(g), nullptr, &root);
    Rng rng(g.sizeBytes * 3 + g.blockBytes);

    const std::uint64_t min_sets = c.sizeMask().minSets();
    const std::uint64_t max_sets = c.sizeMask().maxSets();
    for (int i = 0; i < 300; ++i) {
        const int burst = static_cast<int>(rng.range(200));
        for (int j = 0; j < burst; ++j)
            c.access(rng.range(1 << 20) * g.blockBytes,
                     AccessType::InstFetch);
        c.retireInstructions(rng.range(1000));
        const std::uint64_t sets = c.currentSets();
        EXPECT_GE(sets, min_sets);
        EXPECT_LE(sets, max_sets);
        EXPECT_EQ(sets & (sets - 1), 0u) << "not a power of two";
    }
}

/** Invariant: accesses = hits + misses, and the active fraction
 *  equals currentSets / maxSets at all times. */
TEST_P(DriPropertyTest, CountsAreConsistent)
{
    const Geometry g = GetParam();
    stats::StatGroup root("t");
    DriICache c(paramsFor(g), nullptr, &root);
    Rng rng(g.sizeBound + 17);

    std::uint64_t hits = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        const Addr addr = rng.range(2048) * g.blockBytes;
        hits += c.access(addr, AccessType::InstFetch).hit ? 1 : 0;
        if (i % 500 == 0)
            c.retireInstructions(500);
        EXPECT_DOUBLE_EQ(
            c.activeFraction(),
            static_cast<double>(c.currentSets()) /
                static_cast<double>(c.sizeMask().maxSets()));
    }
    EXPECT_EQ(c.accesses(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(c.accesses() - c.misses(), hits);
}

/**
 * Behavioural equivalence: with adaptation disabled, the DRI
 * i-cache at full size must produce exactly the same hit/miss
 * sequence as a conventional direct-mapped/set-associative cache
 * of the same geometry.
 */
TEST_P(DriPropertyTest, NonAdaptiveMatchesConventional)
{
    const Geometry g = GetParam();
    stats::StatGroup root("t");
    DriParams p = paramsFor(g);
    p.adaptive = false;
    DriICache dri(p, nullptr, &root);

    CacheParams cp;
    cp.name = "ref";
    cp.sizeBytes = g.sizeBytes;
    cp.assoc = g.assoc;
    cp.blockBytes = g.blockBytes;
    Cache ref(cp, nullptr, &root);

    Rng rng(g.sizeBytes ^ 0xdead);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.range(1 << 14) * g.blockBytes;
        const bool a = dri.access(addr, AccessType::InstFetch).hit;
        const bool b = ref.access(addr, AccessType::InstFetch).hit;
        ASSERT_EQ(a, b) << "divergence at access " << i;
    }
}

/**
 * Invariant: blocks whose min-size index keeps them in the powered
 * region survive an immediate downsize; a hit after downsizing is
 * only legal for such blocks.
 */
TEST_P(DriPropertyTest, SurvivorsAreLowSets)
{
    const Geometry g = GetParam();
    if (g.sizeBound == g.sizeBytes)
        GTEST_SKIP() << "no resizing range";
    stats::StatGroup root("t");
    DriParams p = paramsFor(g);
    p.missBound = 1000000; // force downsizing at every interval
    DriICache c(p, nullptr, &root);

    // Touch every set once.
    const std::uint64_t sets = c.currentSets();
    for (std::uint64_t s = 0; s < sets; ++s)
        c.access(s * g.blockBytes, AccessType::InstFetch);

    c.retireInstructions(p.senseInterval); // downsize
    const std::uint64_t new_sets = c.currentSets();
    ASSERT_LT(new_sets, sets);

    for (std::uint64_t s = 0; s < sets; ++s) {
        const bool hit =
            c.access(s * g.blockBytes, AccessType::InstFetch).hit;
        if (s < new_sets) {
            EXPECT_TRUE(hit) << "low set " << s << " lost";
        } else {
            EXPECT_FALSE(hit) << "gated set " << s << " retained";
        }
    }
}

/**
 * Invariant: at every legal size (every power-of-two set count in
 * [minSets, maxSets]) the mask and the index arithmetic agree —
 * mask = numSets-1, every index lands inside the powered region,
 * and the current-size index is congruent to the minimum-size index
 * modulo minSets (the property that makes resizing tag bits and the
 * alias sweep correct).
 */
TEST_P(DriPropertyTest, MaskIndexConsistentAtEveryLegalSize)
{
    const Geometry g = GetParam();
    DriParams p = paramsFor(g);
    SizeMask mask = makeSizeMask(p);
    Rng rng(g.sizeBytes * 7 + g.blockBytes);

    for (unsigned bits = mask.minIndexBits();
         bits <= mask.maxIndexBits(); ++bits) {
        const std::uint64_t sets = std::uint64_t{1} << bits;
        mask.setNumSets(sets);
        ASSERT_EQ(mask.numSets(), sets);
        EXPECT_EQ(mask.mask(), sets - 1);
        EXPECT_EQ(mask.indexBits(), bits);
        EXPECT_EQ(mask.atMinimum(), bits == mask.minIndexBits());
        EXPECT_EQ(mask.atMaximum(), bits == mask.maxIndexBits());

        for (int i = 0; i < 200; ++i) {
            const Addr addr = rng.range(1u << 26);
            const std::uint64_t idx = mask.indexFor(addr);
            EXPECT_LT(idx, sets);
            EXPECT_EQ(idx, (addr >> mask.offsetBits()) & (sets - 1));
            // Congruence with the minimum-size index: the low
            // minIndexBits never change across sizes.
            EXPECT_EQ(idx & (mask.minSets() - 1),
                      mask.minIndexFor(addr));
        }
    }
}

/**
 * Invariant: forced downsizing clamps exactly at the size-bound —
 * the set count walks down (by the divisibility, clamping a final
 * partial step) and then stays pinned at minSets forever, however
 * many further downsize-favouring intervals elapse.
 */
TEST_P(DriPropertyTest, DownsizeClampsAtMinimumSize)
{
    const Geometry g = GetParam();
    stats::StatGroup root("t");
    DriParams p = paramsFor(g);
    p.missBound = 1000000; // zero misses < bound: always downsize
    DriICache c(p, nullptr, &root);

    const std::uint64_t min_sets = c.sizeMask().minSets();
    std::uint64_t prev = c.currentSets();
    for (int interval = 0; interval < 40; ++interval) {
        c.retireInstructions(p.senseInterval);
        const std::uint64_t sets = c.currentSets();
        if (prev > min_sets) {
            // Either a full divisibility step or the clamped
            // remainder of one.
            EXPECT_TRUE(sets == prev / p.divisibility ||
                        sets == min_sets)
                << prev << " -> " << sets;
        } else {
            EXPECT_EQ(sets, min_sets) << "left the size-bound";
        }
        EXPECT_GE(sets, min_sets);
        prev = sets;
    }
    EXPECT_EQ(c.currentSets(), min_sets);
}

/**
 * Invariant: the size changes only at sense-interval boundaries and
 * at most once per boundary — between boundaries no access pattern
 * may move it, so an upsize can never chase a downsize (or vice
 * versa) within one sense interval, whatever the miss mix.
 */
TEST_P(DriPropertyTest, NeverResizesWithinASenseInterval)
{
    const Geometry g = GetParam();
    stats::StatGroup root("t");
    DriParams p = paramsFor(g);
    DriICache c(p, nullptr, &root);
    Rng rng(g.sizeBound * 977 + g.assoc);

    std::uint64_t boundaries = 0;
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t before = c.currentSets();
        const std::uint64_t intervals_before =
            c.controller().intervals();

        // A burst of accesses (misses included) mid-interval...
        const int burst = static_cast<int>(rng.range(50));
        for (int j = 0; j < burst; ++j)
            c.access(rng.range(1 << 18) * g.blockBytes,
                     AccessType::InstFetch);
        // ...and a sub-interval retirement batch.
        const bool resized = c.retireInstructions(
            rng.range(static_cast<std::uint64_t>(p.senseInterval)) /
            4);

        const std::uint64_t crossed =
            c.controller().intervals() - intervals_before;
        ASSERT_LE(crossed, 1u) << "sub-interval batch crossed twice";
        boundaries += crossed;
        if (crossed == 0) {
            EXPECT_EQ(c.currentSets(), before)
                << "resized mid-interval at step " << step;
            EXPECT_FALSE(resized);
        } else if (c.currentSets() != before) {
            // One boundary: at most one divisibility step (or the
            // clamp at either end of the range).
            const std::uint64_t after = c.currentSets();
            const std::uint64_t lo = std::min(before, after);
            const std::uint64_t hi = std::max(before, after);
            EXPECT_TRUE(hi == lo * p.divisibility ||
                        after == c.sizeMask().minSets() ||
                        after == c.sizeMask().maxSets())
                << before << " -> " << after;
        }
    }
    EXPECT_GT(boundaries, 0u) << "test never crossed a boundary";
}

/**
 * Order-independence property behind the parallel sweep engine: the
 * harness aggregates per-cell results into index-addressed slots and
 * reduces them in slot order, so *any* interleaving of job
 * completion must yield totals identical to the serial walk.
 *
 * Exercised with a deliberately-shuffled mock executor: the "jobs"
 * are real DRI runs over a parameter grid, executed in random
 * permutations of the grid order, writing into slots exactly the way
 * harness/sweep.cc does.
 */
TEST(AggregationProperty, ShuffledCompletionOrderMatchesSerialSum)
{
    // The grid: distinct (size-bound, miss-bound) cells.
    struct Cell
    {
        std::uint64_t sizeBound;
        std::uint64_t missBound;
    };
    std::vector<Cell> cells;
    for (std::uint64_t sb : {1024u, 2048u, 8192u})
        for (std::uint64_t mb : {20u, 200u, 2000u})
            cells.push_back({sb, mb});

    // One "job": a short randomized run against a DRI cache with
    // that cell's parameters, producing an energy-relevant
    // measurement. Deterministic per cell (seeded from the cell),
    // like executor jobs seeded from their key.
    auto evaluateCell = [](const Cell &cell) {
        stats::StatGroup root("agg");
        DriParams p;
        p.sizeBytes = 16 * 1024;
        p.sizeBoundBytes = cell.sizeBound;
        p.missBound = cell.missBound;
        p.senseInterval = 500;
        DriICache c(p, nullptr, &root);
        Rng rng(cell.sizeBound * 131 + cell.missBound);
        for (int i = 0; i < 4000; ++i) {
            c.access(rng.range(1024) * 32, AccessType::InstFetch);
            if (i % 250 == 0)
                c.retireInstructions(250);
        }
        RunMeasurement m;
        m.cycles = c.accesses() + 10 * c.misses();
        m.instructions = 4000;
        m.l1iAccesses = c.accesses();
        m.l1iMisses = c.misses();
        m.avgActiveFraction = c.averageActiveFraction();
        m.l1iBytes = p.sizeBytes;
        return m;
    };

    // Serial reference: walk the grid in index order.
    std::vector<RunMeasurement> serialSlots(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        serialSlots[i] = evaluateCell(cells[i]);

    const EnergyConstants constants;
    const auto paperOf = [](const RunMeasurement &m) {
        RunOutput o;
        o.meas = m;
        return paperView(o);
    };
    auto aggregate = [&](const std::vector<RunMeasurement> &slots) {
        // The reductions the table/figure paths perform: energy and
        // miss totals over slots in index order.
        std::uint64_t misses = 0;
        std::uint64_t cycles = 0;
        double energy = 0.0;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            misses += slots[i].l1iMisses;
            cycles += slots[i].cycles;
            energy += compare(constants, slots[0].cycles,
                              paperOf(slots[0]), slots[i].cycles,
                              paperOf(slots[i]))
                          .relativeEnergyDelay();
        }
        return std::tuple{misses, cycles, energy};
    };
    const auto serialTotals = aggregate(serialSlots);

    // Mock executor: complete the same jobs in shuffled order,
    // writing each result into its slot (never appending).
    Rng shuffleRng(0xc0ffee);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<std::size_t> perm(cells.size());
        std::iota(perm.begin(), perm.end(), 0u);
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[shuffleRng.range(i)]);

        std::vector<RunMeasurement> slots(cells.size());
        for (const std::size_t job : perm)
            slots[job] = evaluateCell(cells[job]);

        const auto totals = aggregate(slots);
        EXPECT_EQ(std::get<0>(totals), std::get<0>(serialTotals))
            << "miss total diverged on trial " << trial;
        EXPECT_EQ(std::get<1>(totals), std::get<1>(serialTotals))
            << "cycle total diverged on trial " << trial;
        // Bit-identical, not EXPECT_DOUBLE_EQ: summation order is
        // fixed by the slot scan, not by completion order.
        EXPECT_EQ(std::get<2>(totals), std::get<2>(serialTotals))
            << "energy total diverged on trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DriPropertyTest,
    ::testing::Values(
        Geometry{8 * 1024, 1, 32, 1024, 2},
        Geometry{8 * 1024, 2, 32, 1024, 2},
        Geometry{16 * 1024, 4, 32, 2048, 2},
        Geometry{8 * 1024, 1, 64, 2048, 2},
        Geometry{64 * 1024, 1, 32, 1024, 2},
        Geometry{64 * 1024, 4, 32, 4096, 4},
        Geometry{16 * 1024, 1, 16, 1024, 8},
        Geometry{4 * 1024, 1, 32, 4 * 1024, 2}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        const Geometry &g = info.param;
        return std::to_string(g.sizeBytes / 1024) + "K_a" +
               std::to_string(g.assoc) + "_b" +
               std::to_string(g.blockBytes) + "_sb" +
               std::to_string(g.sizeBound / 1024) + "K_d" +
               std::to_string(g.divisibility);
    });

} // namespace
} // namespace drisim
