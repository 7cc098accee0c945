/**
 * @file
 * Resize-controller tests: miss-bound decisions, interval
 * accounting, the oscillation throttle (Section 2.1), and the replay
 * of a recorded boundary history under another cell's bounds.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/resize_controller.hh"
#include "mem/resizable_cache.hh"
#include "stats/stats.hh"

namespace drisim
{
namespace
{

DriParams
params(std::uint64_t missBound = 100, InstCount interval = 1000)
{
    DriParams p;
    p.missBound = missBound;
    p.senseInterval = interval;
    return p;
}

TEST(ResizeController, IntervalBoundaryDetection)
{
    ResizeController c(params(100, 1000));
    EXPECT_FALSE(c.recordInstructions(999));
    EXPECT_TRUE(c.recordInstructions(1));
    // Large batches can cross multiple boundaries.
    EXPECT_TRUE(c.recordInstructions(2500));
    EXPECT_TRUE(c.recordInstructions(0));
    EXPECT_FALSE(c.recordInstructions(0));
}

TEST(ResizeController, FewMissesMeansDownsize)
{
    ResizeController c(params(100));
    c.recordMiss(10);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Downsize);
}

TEST(ResizeController, ManyMissesMeansUpsize)
{
    ResizeController c(params(100));
    c.recordMiss(500);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Upsize);
}

TEST(ResizeController, ExactBoundHolds)
{
    ResizeController c(params(100));
    c.recordMiss(100);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Hold);
}

TEST(ResizeController, BoundsSuppressResizing)
{
    ResizeController c(params(100));
    c.recordMiss(10);
    EXPECT_EQ(c.endInterval(true, false), ResizeDecision::Hold);
    c.recordMiss(500);
    EXPECT_EQ(c.endInterval(false, true), ResizeDecision::Hold);
}

TEST(ResizeController, MissCounterResetsEachInterval)
{
    ResizeController c(params(100));
    c.recordMiss(500);
    c.endInterval(false, false);
    EXPECT_EQ(c.missCount(), 0u);
    c.recordMiss(10);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Downsize);
}

TEST(ResizeController, NonAdaptiveAlwaysHolds)
{
    DriParams p = params(100);
    p.adaptive = false;
    ResizeController c(p);
    c.recordMiss(10000);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Hold);
}

TEST(ResizeController, OscillationTriggersThrottle)
{
    // 3-bit counter triggers at 4 reversals (MSB rule); the freeze
    // then blocks downsizing for throttleHoldIntervals intervals.
    DriParams p = params(100);
    ResizeController c(p);

    auto flip = [&](bool up) {
        c.recordMiss(up ? 500 : 0);
        ResizeDecision d = c.endInterval(false, false);
        c.noteApplied(d);
        return d;
    };

    // Alternate down/up; each non-first resize is a reversal.
    flip(false);
    int reversals = 0;
    bool up = true;
    while (c.throttleEvents() == 0 && reversals < 20) {
        flip(up);
        up = !up;
        ++reversals;
    }
    EXPECT_EQ(c.throttleEvents(), 1u);
    EXPECT_EQ(reversals, 4);
    EXPECT_TRUE(c.downsizeFrozen());

    // While frozen, few misses must not downsize.
    c.recordMiss(0);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Hold);
    // But upsizing stays allowed.
    c.recordMiss(500);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Upsize);
}

TEST(ResizeController, FreezeExpiresAfterHoldIntervals)
{
    DriParams p = params(100);
    p.throttleHoldIntervals = 3;
    ResizeController c(p);

    auto flip = [&](bool up) {
        c.recordMiss(up ? 500 : 0);
        c.noteApplied(c.endInterval(false, false));
    };
    flip(false);
    for (int i = 0; i < 4; ++i)
        flip(i % 2 == 0);
    ASSERT_TRUE(c.downsizeFrozen());

    // Three Hold intervals tick the freeze down.
    for (int i = 0; i < 3; ++i) {
        c.recordMiss(100); // exact bound -> hold
        c.endInterval(false, false);
    }
    EXPECT_FALSE(c.downsizeFrozen());
    c.recordMiss(0);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Downsize);
}

TEST(ResizeController, SteadyResizingDoesNotThrottle)
{
    // Monotone downsizing (no reversals) must never freeze.
    ResizeController c(params(100));
    for (int i = 0; i < 10; ++i) {
        c.recordMiss(0);
        ResizeDecision d = c.endInterval(false, false);
        EXPECT_EQ(d, ResizeDecision::Downsize);
        c.noteApplied(d);
    }
    EXPECT_EQ(c.throttleEvents(), 0u);
}

TEST(ResizeController, IntervalCountAdvances)
{
    ResizeController c(params());
    c.endInterval(false, false);
    c.endInterval(false, false);
    EXPECT_EQ(c.intervals(), 2u);
}

// --- boundary behaviour around the miss-bound threshold ---------------

TEST(ResizeController, ThresholdOneBelowOneAbove)
{
    // The decision flips exactly at the bound: bound-1 misses is
    // still "fits with slack", bound+1 is "too small", the bound
    // itself holds (Figure 1's strict comparisons).
    ResizeController below(params(100));
    below.recordMiss(99);
    EXPECT_EQ(below.endInterval(false, false),
              ResizeDecision::Downsize);

    ResizeController at(params(100));
    at.recordMiss(100);
    EXPECT_EQ(at.endInterval(false, false), ResizeDecision::Hold);

    ResizeController above(params(100));
    above.recordMiss(101);
    EXPECT_EQ(above.endInterval(false, false),
              ResizeDecision::Upsize);
}

TEST(ResizeController, ThresholdAtBoundsStillHolds)
{
    // The bound comparison never overrides the size bounds: exactly
    // at threshold the cache holds whatever its size.
    ResizeController c(params(100));
    c.recordMiss(100);
    EXPECT_EQ(c.endInterval(true, false), ResizeDecision::Hold);
    c.recordMiss(100);
    EXPECT_EQ(c.endInterval(false, true), ResizeDecision::Hold);
}

TEST(ResizeController, ZeroMissBoundNeverDownsizes)
{
    // missBound = 0: no miss count can be strictly below it, so the
    // controller can only hold or upsize.
    ResizeController c(params(0));
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Hold);
    c.recordMiss(1);
    EXPECT_EQ(c.endInterval(false, false), ResizeDecision::Upsize);
}

// --- at most one decision per sense interval --------------------------

TEST(ResizeController, OneBoundaryPerIntervalOfInstructions)
{
    // Sub-interval batches can cross at most one boundary: after a
    // crossing, another full senseInterval of instructions must
    // retire before the next one.
    ResizeController c(params(100, 1000));
    EXPECT_FALSE(c.recordInstructions(999));
    EXPECT_TRUE(c.recordInstructions(1));
    EXPECT_FALSE(c.recordInstructions(0));
    EXPECT_FALSE(c.recordInstructions(999));
    EXPECT_TRUE(c.recordInstructions(1));
    EXPECT_FALSE(c.recordInstructions(0));
}

TEST(ResizeController, MissesWithinIntervalNeverDecide)
{
    // No quantity of misses produces a decision mid-interval; only
    // the instruction-count boundary does.
    ResizeController c(params(100, 1000));
    for (int i = 0; i < 50; ++i) {
        c.recordMiss(1000);
        EXPECT_FALSE(c.recordInstructions(10));
    }
    EXPECT_EQ(c.intervals(), 0u);
}

// --- replaying a history under a sibling's bounds ----------------------

/** A standalone resizable i-cache driven one sense interval at a time
 *  by the number of misses in it. */
class DrivenCache : public ResizableCache
{
  public:
    DrivenCache(const DriParams &p, stats::StatGroup *root,
                const std::string &name)
        : ResizableCache(p, ResizePolicy::icache(), nullptr, root, name)
    {
    }

    /** One whole sense interval with @p misses misses, which arrive
     *  spread over ten retire steps, so that a cache that acted
     *  between boundaries would show it. */
    void interval(std::uint64_t misses)
    {
        constexpr unsigned kSteps = 10;
        const InstCount step = dri_.senseInterval / kSteps;
        for (unsigned k = 0; k < kSteps; ++k) {
            for (std::uint64_t i = k * misses / kSteps;
                 i < (k + 1) * misses / kSteps; ++i)
                onMiss();
            retireInstructions(k + 1 < kSteps
                                   ? step
                                   : dri_.senseInterval - k * step);
        }
    }
};

/**
 * The replay's verdict on serving @p sibling from @p leader's run over
 * the interval miss counts @p misses, checked against two real caches
 * driven over those counts: the replay serves exactly when their
 * histories agree, and a served sibling took the same resizes and
 * throttle events as its leader.
 */
bool
served(const DriParams &leader, const DriParams &sibling,
       const std::vector<std::uint64_t> &misses)
{
    stats::StatGroup root("replay");
    DrivenCache a(leader, &root, "leader");
    DrivenCache b(sibling, &root, "sibling");
    for (const std::uint64_t m : misses) {
        a.interval(m);
        b.interval(m);
    }
    EXPECT_EQ(a.history().size(), misses.size());
    const bool replay = replayReproduces(sibling, a.history());
    EXPECT_EQ(replay, a.history() == b.history());
    if (replay) {
        EXPECT_EQ(a.upsizes(), b.upsizes());
        EXPECT_EQ(a.downsizes(), b.downsizes());
        EXPECT_EQ(a.controller().throttleEvents(),
                  b.controller().throttleEvents());
        EXPECT_EQ(a.controller().downsizeFrozen(),
                  b.controller().downsizeFrozen());
    }
    return replay;
}

DriParams
cell(std::uint64_t missBound, std::uint64_t sizeBound,
     unsigned divisibility = 2)
{
    DriParams p = params(missBound);
    p.sizeBoundBytes = sizeBound;
    p.divisibility = divisibility;
    return p;
}

TEST(ResizeReplay, SizeBoundThatBindsIsNotServed)
{
    // 64 KB of 32-byte sets: 2048 sets, 32 at 1 KB, 512 at 16 KB.
    const DriParams leader = cell(100, 1024);
    const DriParams sibling = cell(100, 16 * 1024);
    // Two downsizes stay above the sibling's bound ...
    EXPECT_TRUE(served(leader, sibling, {0, 0}));
    // ... the third takes the leader below it.
    EXPECT_FALSE(served(leader, sibling, {0, 0, 0}));
    // At its bound the sibling holds whatever the leader does next.
    EXPECT_FALSE(served(leader, sibling, {0, 0, 0, 500}));
}

TEST(ResizeReplay, DivisibilityClampAtTheSiblingsBoundIsNotServed)
{
    // Divisibility 4: 2048 -> 512 -> 128, then the leader goes to 32
    // while the sibling's 2 KB bound clamps it at 64.
    EXPECT_TRUE(served(cell(100, 1024, 4), cell(100, 2048, 4), {0, 0}));
    EXPECT_FALSE(
        served(cell(100, 1024, 4), cell(100, 2048, 4), {0, 0, 0}));
    // Divisibility 8: 2048 -> 256, then 32 against a clamp at 64.
    EXPECT_FALSE(served(cell(100, 1024, 8), cell(100, 2048, 8), {0, 0}));
    // A clamp both cells share is the same step.
    EXPECT_TRUE(
        served(cell(100, 2048, 8), cell(300, 2048, 8), {0, 0, 50}));
}

TEST(ResizeReplay, MissCountAtOneBoundAndBelowTheOtherIsNotServed)
{
    // 100 misses: the leader's bound holds, the sibling's downsizes.
    EXPECT_FALSE(served(cell(100, 1024), cell(101, 1024), {100}));
    EXPECT_FALSE(served(cell(101, 1024), cell(100, 1024), {100}));
    // One miss either side of both bounds decides alike.
    EXPECT_TRUE(served(cell(100, 1024), cell(101, 1024), {99, 102}));
}

TEST(ResizeReplay, ThrottleFreezeReachedAlikeIsServed)
{
    // Down, up, down, ... : the fourth reversal saturates the 3-bit
    // counter and freezes downsizing, so the last interval holds in
    // both cells although it has no misses.
    std::vector<std::uint64_t> misses{0};
    for (int i = 0; i < 4; ++i)
        misses.push_back(i % 2 == 0 ? 500 : 0);
    misses.push_back(0);
    const DriParams leader = cell(100, 1024);
    const DriParams sibling = cell(200, 4096);
    EXPECT_TRUE(served(leader, sibling, misses));

    stats::StatGroup root("throttle");
    DrivenCache a(leader, &root, "leader");
    for (const std::uint64_t m : misses)
        a.interval(m);
    EXPECT_EQ(a.controller().throttleEvents(), 1u);
    EXPECT_TRUE(a.controller().downsizeFrozen());
    EXPECT_EQ(a.history().back().setsAfter, a.history().end()[-2].setsAfter);
}

TEST(ResizeReplay, RunShorterThanOneIntervalServesEverySibling)
{
    stats::StatGroup root("short");
    DrivenCache a(cell(100, 1024), &root, "leader");
    a.retireInstructions(a.params().senseInterval - 1);
    ASSERT_TRUE(a.history().empty());
    for (const DriParams &sibling :
         {cell(1, 65536), cell(100000, 1024, 8), cell(0, 2048)})
        EXPECT_TRUE(replayReproduces(sibling, a.history()));
    EXPECT_TRUE(served(cell(100, 1024), cell(7, 65536), {}));
}

TEST(ResizeReplay, NonAdaptiveCellHoldsAtEveryBoundary)
{
    DriParams leader = cell(100, 1024);
    leader.adaptive = false;
    DriParams sibling = cell(5000, 16 * 1024);
    sibling.adaptive = false;
    EXPECT_TRUE(served(leader, sibling, {0, 500, 0, 100}));
    // An adaptive cell would have downsized on the first interval.
    EXPECT_FALSE(served(leader, cell(100, 1024), {0, 500, 0, 100}));
}

} // namespace
} // namespace drisim
