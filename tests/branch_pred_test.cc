/**
 * @file
 * Branch-predictor tests: bimodal/gshare learning, chooser
 * arbitration, BTB targets, RAS behaviour, and the recency-ordered
 * BTB against the timestamp LRU it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cpu/branch_pred.hh"
#include "sim/checkpoint.hh"
#include "snapshot_splice.hh"
#include "stats/stats.hh"
#include "util/random.hh"

namespace drisim
{
namespace
{

class BranchPredTest : public ::testing::Test
{
  protected:
    BranchPredTest() : root_("t"), bp_(BranchPredParams{}, &root_) {}

    /** Train and measure accuracy on an outcome pattern. */
    double
    accuracy(Addr pc, const std::vector<bool> &pattern, int reps)
    {
        int correct = 0;
        int total = 0;
        for (int r = 0; r < reps; ++r) {
            for (bool taken : pattern) {
                auto pred = bp_.predict(pc, OpClass::Branch);
                const Addr target = taken ? pc + 64 : pc + 4;
                if (pred.taken == taken)
                    ++correct;
                ++total;
                bp_.update(pc, OpClass::Branch, taken, target);
            }
        }
        return static_cast<double>(correct) / total;
    }

    stats::StatGroup root_;
    BranchPredictor bp_;
};

TEST_F(BranchPredTest, LearnsAlwaysTaken)
{
    const double acc = accuracy(0x1000, {true}, 200);
    EXPECT_GT(acc, 0.97);
}

TEST_F(BranchPredTest, LearnsAlwaysNotTaken)
{
    const double acc = accuracy(0x1000, {false}, 200);
    EXPECT_GT(acc, 0.97);
}

TEST_F(BranchPredTest, GshareLearnsAlternatingPattern)
{
    // Bimodal cannot learn T,N,T,N...; gshare (with history) can.
    const double acc = accuracy(0x2000, {true, false}, 300);
    EXPECT_GT(acc, 0.9);
}

TEST_F(BranchPredTest, GshareLearnsLoopExitPattern)
{
    // 7 taken + 1 not-taken, the classic loop-latch shape.
    std::vector<bool> pattern(8, true);
    pattern[7] = false;
    const double acc = accuracy(0x3000, pattern, 200);
    EXPECT_GT(acc, 0.9);
}

TEST_F(BranchPredTest, BtbProvidesTargets)
{
    const Addr pc = 0x4000;
    const Addr target = 0x5000;
    // First prediction: no BTB entry yet.
    auto p1 = bp_.predict(pc, OpClass::Jump);
    EXPECT_TRUE(p1.taken);
    EXPECT_EQ(p1.target, kInvalidAddr);
    bp_.update(pc, OpClass::Jump, true, target);
    auto p2 = bp_.predict(pc, OpClass::Jump);
    EXPECT_EQ(p2.target, target);
}

TEST_F(BranchPredTest, RasPredictsReturns)
{
    const Addr call_pc = 0x6000;
    const Addr ret_pc = 0x7000;
    auto pc_call = bp_.predict(call_pc, OpClass::Call);
    (void)pc_call;
    bp_.update(call_pc, OpClass::Call, true, 0x7000);
    auto pr = bp_.predict(ret_pc, OpClass::Return);
    EXPECT_TRUE(pr.taken);
    EXPECT_EQ(pr.target, call_pc + kInstrBytes);
}

TEST_F(BranchPredTest, RasNestedCalls)
{
    bp_.predict(0x100, OpClass::Call);
    bp_.predict(0x200, OpClass::Call);
    auto r1 = bp_.predict(0x300, OpClass::Return);
    EXPECT_EQ(r1.target, 0x200u + kInstrBytes);
    auto r2 = bp_.predict(0x400, OpClass::Return);
    EXPECT_EQ(r2.target, 0x100u + kInstrBytes);
}

TEST_F(BranchPredTest, MispredictedDetectsDirectionAndTarget)
{
    BranchPrediction p;
    p.taken = true;
    p.target = 0x100;
    EXPECT_FALSE(BranchPredictor::mispredicted(p, true, 0x100));
    EXPECT_TRUE(BranchPredictor::mispredicted(p, false, 0x0));
    EXPECT_TRUE(BranchPredictor::mispredicted(p, true, 0x200));
    p.taken = false;
    EXPECT_FALSE(BranchPredictor::mispredicted(p, false, 0x0));
}

TEST_F(BranchPredTest, StatsAccumulate)
{
    accuracy(0x8000, {true, true, false}, 50);
    EXPECT_GT(bp_.lookups(), 0u);
}

// ---------------------------------------------------------------
// The BTB keeps each set in recency order. TimestampBtb is the
// timestamp LRU it replaced: every entry carries the clock of its
// last lookup hit or install, and a full set evicts the smallest.
// ---------------------------------------------------------------

class TimestampBtb
{
  public:
    TimestampBtb(unsigned sets, unsigned assoc)
        : sets_(sets), assoc_(assoc), entries_(sets * assoc)
    {}

    /** predict()'s lookup: a hit is stamped most recent. */
    const Addr *
    lookup(Addr pc)
    {
        Entry *ways = setOf(pc);
        for (unsigned w = 0; w < assoc_; ++w) {
            if (ways[w].tag == pc) {
                ways[w].lastTouch = ++tick_;
                return &ways[w].target;
            }
        }
        return nullptr;
    }

    /** update()'s install; returns the tag it evicted (kInvalidAddr
     *  for a free way or @p pc's own entry). */
    Addr
    install(Addr pc, Addr target)
    {
        Entry *ways = setOf(pc);
        Entry *victim = &ways[0];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (ways[w].tag == pc || ways[w].tag == kInvalidAddr) {
                victim = &ways[w];
                break;
            }
            if (ways[w].lastTouch < victim->lastTouch)
                victim = &ways[w];
        }
        const Addr evicted = victim->tag == pc ? kInvalidAddr : victim->tag;
        *victim = {pc, target, ++tick_};
        return evicted;
    }

    /** The valid (tag, target) pairs of @p pc's set, most recent
     *  first. */
    std::vector<std::pair<Addr, Addr>>
    recencyOrder(Addr pc)
    {
        std::vector<Entry> valid;
        for (unsigned w = 0; w < assoc_; ++w)
            if (setOf(pc)[w].tag != kInvalidAddr)
                valid.push_back(setOf(pc)[w]);
        std::sort(valid.begin(), valid.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.lastTouch > b.lastTouch;
                  });
        std::vector<std::pair<Addr, Addr>> order;
        for (const Entry &e : valid)
            order.emplace_back(e.tag, e.target);
        return order;
    }

  private:
    struct Entry
    {
        Addr tag = kInvalidAddr;
        Addr target = 0;
        std::uint64_t lastTouch = 0;
    };

    Entry *
    setOf(Addr pc)
    {
        return &entries_[((pc >> 2) & (sets_ - 1)) * assoc_];
    }

    unsigned sets_;
    unsigned assoc_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
};

/** The valid (tag, target) pairs of @p bp's BTB set for @p pc, in
 *  way order; the free ways must all follow them. */
std::vector<std::pair<Addr, Addr>>
wayOrder(const BranchPredictor &bp, Addr pc)
{
    std::vector<std::pair<Addr, Addr>> order;
    bool free = false;
    for (const BranchPredictor::BtbEntry &e : bp.btbSet(pc)) {
        if (e.tag == kInvalidAddr) {
            free = true;
            continue;
        }
        EXPECT_FALSE(free) << "valid entry after a free way";
        order.emplace_back(e.tag, e.target);
    }
    return order;
}

TEST(BtbRecencyOrder, MatchesTheTimestampLruStepForStep)
{
    // Four sets and a pool of 3 x assoc pcs per set, half the
    // accesses from a hot half of the pool: every set overflows, and
    // hits, refreshes and evictions interleave.
    constexpr unsigned kSets = 4;
    for (const unsigned assoc : {1u, 2u, 4u, 8u}) {
        BranchPredParams params;
        params.btbSets = kSets;
        params.btbAssoc = assoc;
        stats::StatGroup root("t");
        BranchPredictor bp(params, &root);
        TimestampBtb ref(kSets, assoc);
        Rng rng(0xb7b0 + assoc);
        const std::uint64_t pool = 3 * assoc * kSets;
        unsigned hits = 0;
        unsigned evictions = 0;
        for (int step = 0; step < 20000; ++step) {
            const std::uint64_t k =
                rng.range(2) ? rng.range(pool / 2) : rng.range(pool);
            const Addr pc = 0x1000 + kInstrBytes * k;
            if (rng.range(2)) {
                const BranchPrediction pred =
                    bp.predict(pc, OpClass::Jump);
                const Addr *target = ref.lookup(pc);
                ASSERT_EQ(pred.target != kInvalidAddr, target != nullptr)
                    << "assoc " << assoc << " step " << step;
                if (target) {
                    ++hits;
                    ASSERT_EQ(pred.target, *target)
                        << "assoc " << assoc << " step " << step;
                }
            } else {
                const Addr target = 0x80000 + kInstrBytes * rng.range(4096);
                std::vector<Addr> before;
                for (const BranchPredictor::BtbEntry &e : bp.btbSet(pc))
                    before.push_back(e.tag);
                bp.update(pc, OpClass::Jump, true, target);
                const auto after = bp.btbSet(pc);
                Addr evicted = kInvalidAddr;
                for (const Addr tag : before)
                    if (tag != kInvalidAddr &&
                        std::none_of(after.begin(), after.end(),
                                     [tag](const auto &e) {
                                         return e.tag == tag;
                                     }))
                        evicted = tag;
                evictions += evicted != kInvalidAddr;
                ASSERT_EQ(evicted, ref.install(pc, target))
                    << "assoc " << assoc << " step " << step;
            }
            ASSERT_EQ(wayOrder(bp, pc), ref.recencyOrder(pc))
                << "assoc " << assoc << " step " << step;
        }
        EXPECT_GT(hits, 2000u) << "assoc " << assoc;
        EXPECT_GT(evictions, 2000u) << "assoc " << assoc;
    }
}

TEST(BtbRecencyOrder, RestoreRejectsASetOutOfOrder)
{
    // Three installs into set 0 of a 4-set, 4-way BTB leave its ways
    // 0x1020, 0x1010, 0x1000, free. The snapshot's values are the
    // three direction tables, the history and the BTB size, then a
    // (tag, target) pair per entry.
    BranchPredParams params;
    params.btbSets = 4;
    params.btbAssoc = 4;
    stats::StatGroup root("t");
    BranchPredictor bp(params, &root);
    for (const Addr pc : {0x1000, 0x1010, 0x1020})
        bp.update(pc, OpClass::Jump, true, pc + 0x100);
    sim::CheckpointWriter w;
    bp.checkpoint(w);
    const std::string snap = w.bytes();
    const std::vector<std::size_t> at = valueOffsets(snap);
    const auto tagOf = [&at](std::size_t way) { return at[5 + 2 * way]; };
    ASSERT_EQ(u64Value(snap, tagOf(0)), 0x1020u);
    ASSERT_EQ(u64Value(snap, tagOf(3)), kInvalidAddr);

    {
        stats::StatGroup r2("t");
        BranchPredictor restored(params, &r2);
        sim::CheckpointReader r(snap);
        restored.checkpoint(r);
        EXPECT_EQ(wayOrder(restored, 0x1000), wayOrder(bp, 0x1000));
    }
    const std::pair<const char *, std::string> cases[] = {
        {"a valid entry after a free way",
         withValue(snap, tagOf(1), kInvalidAddr)},
        {"one tag in two ways",
         withValue(snap, tagOf(1), u64Value(snap, tagOf(0)))},
        {"one tag in two ways, apart",
         withValue(snap, tagOf(2), u64Value(snap, tagOf(0)))},
    };
    for (const auto &[what, bytes] : cases) {
        stats::StatGroup r2("t");
        BranchPredictor restored(params, &r2);
        sim::CheckpointReader r(bytes);
        EXPECT_THROW(restored.checkpoint(r), sim::CheckpointError)
            << what;
    }
}

} // namespace
} // namespace drisim
