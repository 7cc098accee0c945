/**
 * @file
 * Out-of-order core timing tests with scripted instruction streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cpu/ooo_core.hh"
#include "golden_config.hh"
#include "harness/runner.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/memory.hh"
#include "sim/checkpoint.hh"
#include "snapshot_splice.hh"
#include "workload/generator.hh"

namespace drisim
{
namespace
{

/** Replays a fixed vector of instructions. */
class VecStream : public InstrStream
{
  public:
    explicit VecStream(std::vector<Instr> v) : v_(std::move(v)) {}

    bool
    next(Instr &out) override
    {
        if (idx_ >= v_.size())
            return false;
        out = v_[idx_++];
        return true;
    }

  private:
    std::vector<Instr> v_;
    size_t idx_ = 0;
};

Instr
alu(Addr pc, std::uint8_t dest, std::uint8_t src1 = 0,
    std::uint8_t src2 = 0)
{
    Instr i;
    i.pc = pc;
    i.op = OpClass::IntAlu;
    i.dest = dest;
    i.src1 = src1;
    i.src2 = src2;
    i.nextPc = pc + kInstrBytes;
    return i;
}

/** n independent single-cycle instructions, consecutive PCs. */
std::vector<Instr>
independent(int n, Addr base = 0x1000)
{
    std::vector<Instr> v;
    for (int i = 0; i < n; ++i)
        v.push_back(alu(base + static_cast<Addr>(i) * 4,
                        static_cast<std::uint8_t>(1 + (i % 30))));
    return v;
}

/** n chained instructions (each reads the previous result). */
std::vector<Instr>
chained(int n, Addr base = 0x1000)
{
    std::vector<Instr> v;
    std::uint8_t prev = 0;
    for (int i = 0; i < n; ++i) {
        const auto d = static_cast<std::uint8_t>(1 + (i % 30));
        v.push_back(alu(base + static_cast<Addr>(i) * 4, d, prev));
        prev = d;
    }
    return v;
}

struct CoreRig
{
    explicit CoreRig(Cycles icacheHit = 1)
        : root("t"),
          mem(32, &root),
          icache(
              CacheParams{"ic", 64 * 1024, 1, 32, icacheHit,
                          ReplPolicy::LRU},
              &mem, &root),
          dcache(
              CacheParams{"dc", 64 * 1024, 2, 32, 1, ReplPolicy::LRU},
              &mem, &root),
          core(OooParams{}, &icache, &dcache, &root)
    {
    }

    stats::StatGroup root;
    MainMemory mem;
    Cache icache;
    Cache dcache;
    OooCore core;
};

TEST(OooCore, CommitsEverything)
{
    CoreRig rig;
    VecStream s(independent(1000));
    auto r = rig.core.run(s, 1u << 30);
    EXPECT_EQ(r.instructions, 1000u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(OooCore, MaxInstrsBoundsTheRun)
{
    CoreRig rig;
    VecStream s(independent(1000));
    auto r = rig.core.run(s, 100);
    EXPECT_EQ(r.instructions, 100u);
}

TEST(OooCore, IndependentStreamNearsFetchWidth)
{
    CoreRig rig;
    const int n = 4000;
    // Pre-warm the i-cache so fetch never misses.
    for (Addr a = 0x1000; a < 0x1000 + n * 4u; a += 32)
        rig.icache.access(a, AccessType::InstFetch);
    VecStream s(independent(n));
    auto r = rig.core.run(s, 1u << 30);
    // 8-wide fetch of 8-instruction blocks: IPC approaches 8.
    EXPECT_GT(r.ipc(), 5.0);
}

TEST(OooCore, DependentChainSerializes)
{
    CoreRig rig;
    const int n = 2000;
    VecStream s(chained(n));
    auto r = rig.core.run(s, 1u << 30);
    // One instruction per cycle at best.
    EXPECT_GE(r.cycles, static_cast<Cycles>(n));
    EXPECT_LT(r.ipc(), 1.1);
}

TEST(OooCore, ColdIcacheMissesCostFullFillLatency)
{
    CoreRig rig;
    // One instruction per 32 B block: every fetch is a new block.
    std::vector<Instr> v;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        Instr ins = alu(0x1000 + static_cast<Addr>(i) * 32, 1);
        ins.nextPc = ins.pc + 32; // pretend sequential-ish
        v.push_back(ins);
    }
    VecStream s(v);
    auto r = rig.core.run(s, 1u << 30);
    // Every block misses L1I -> L2 miss -> memory (1+12+96).
    EXPECT_GT(r.cycles, static_cast<Cycles>(n) * 80);
    EXPECT_EQ(rig.icache.misses(), static_cast<std::uint64_t>(n));
    EXPECT_GT(rig.core.icacheStallCycles(), 0u);
}

TEST(OooCore, PredictableLoopBranchesAreCheap)
{
    // A tight loop of 8 instructions, last one a taken branch back.
    std::vector<Instr> v;
    const int iters = 800;
    for (int it = 0; it < iters; ++it) {
        for (int i = 0; i < 7; ++i)
            v.push_back(alu(0x1000 + static_cast<Addr>(i) * 4,
                            static_cast<std::uint8_t>(1 + i)));
        Instr br;
        br.pc = 0x1000 + 7 * 4;
        br.op = OpClass::Branch;
        br.taken = it + 1 < iters;
        br.nextPc = br.taken ? 0x1000 : br.pc + 4;
        v.push_back(br);
    }
    CoreRig rig;
    VecStream s(v);
    auto r = rig.core.run(s, 1u << 30);
    // Predictor learns the loop; IPC stays healthy.
    EXPECT_GT(r.ipc(), 3.0);
}

TEST(OooCore, RandomBranchesStallFetch)
{
    // Same loop shape but with pseudo-random directions to two
    // different targets: the predictor cannot learn it.
    std::vector<Instr> v;
    std::uint32_t lfsr = 0xACE1u;
    Addr pc_a = 0x1000;
    Addr pc_b = 0x8000;
    Addr cur = pc_a;
    for (int it = 0; it < 1500; ++it) {
        for (int i = 0; i < 3; ++i)
            v.push_back(alu(cur + static_cast<Addr>(i) * 4,
                            static_cast<std::uint8_t>(1 + i)));
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
        const bool taken = lfsr & 1;
        Instr br;
        br.pc = cur + 3 * 4;
        br.op = OpClass::Branch;
        br.taken = taken;
        const Addr other = cur == pc_a ? pc_b : pc_a;
        br.nextPc = taken ? other : br.pc + 4;
        v.push_back(br);
        if (taken)
            cur = other;
        // continue from fallthrough? keep PCs consistent:
        if (!taken)
            cur = br.pc + 4 - 3 * 4; // restart block base
    }
    CoreRig rig;
    VecStream s(v);
    auto r = rig.core.run(s, 1u << 30);
    EXPECT_GT(rig.core.branchStallCycles(), r.cycles / 10);
    EXPECT_LT(r.ipc(), 3.0);
}

TEST(OooCore, LoadMissesSlowTheChain)
{
    // Chained loads: each load feeds the next address (pointer
    // chase) over a working set far larger than the L1D.
    std::vector<Instr> v;
    const int n = 400;
    std::uint8_t prev = 1;
    for (int i = 0; i < n; ++i) {
        Instr ld;
        ld.pc = 0x1000 + static_cast<Addr>(i % 8) * 4;
        ld.op = OpClass::Load;
        ld.dest = static_cast<std::uint8_t>(1 + (i % 30));
        ld.src1 = prev;
        ld.memAddr = 0x10000000 + static_cast<Addr>(i) * 4096;
        ld.nextPc = ld.pc + 4;
        prev = ld.dest;
        v.push_back(ld);
    }
    CoreRig rig;
    VecStream s(v);
    auto r = rig.core.run(s, 1u << 30);
    // Every load misses (d-cache 1 + memory 96 + AGU 1) in a
    // serial chain: ~98 cycles per load.
    EXPECT_GT(r.cycles, static_cast<Cycles>(n) * 95);
    EXPECT_LT(r.cycles, static_cast<Cycles>(n) * 105);
}

TEST(OooCore, StoreToLoadForwardingAvoidsDcache)
{
    std::vector<Instr> v;
    // store to X, then immediately load X, many times.
    for (int i = 0; i < 100; ++i) {
        Instr st;
        st.pc = 0x1000 + static_cast<Addr>(i % 8) * 4;
        st.op = OpClass::Store;
        st.src1 = 1;
        st.memAddr = 0x2000;
        st.nextPc = st.pc + 4;
        v.push_back(st);
        Instr ld;
        ld.pc = st.pc + 4;
        ld.op = OpClass::Load;
        ld.dest = 2;
        ld.memAddr = 0x2000;
        ld.nextPc = ld.pc + 4;
        v.push_back(ld);
    }
    CoreRig rig;
    VecStream s(v);
    rig.core.run(s, 1u << 30);
    // Forwarded loads never reach the d-cache; stores write at
    // commit. So d-cache sees (nearly) only store traffic.
    // A handful of loads can slip past forwarding when the store
    // commits first; the overwhelming majority must forward.
    EXPECT_LE(rig.dcache.loadAccesses(), 10u);
}

TEST(OooCore, DrainsAndStops)
{
    CoreRig rig;
    VecStream s(independent(10));
    auto r = rig.core.run(s, 1u << 30);
    EXPECT_EQ(r.instructions, 10u);
    // Run again with an empty stream: nothing more commits.
    VecStream empty({});
    auto r2 = rig.core.run(empty, 1u << 30);
    EXPECT_EQ(r2.instructions, 10u);
}

// --------------------------------------------------------------
// Snapshot/restore of the pipeline. The scheduler's waiter lists,
// ready set and completion events are derived state: a restore
// rebuilds them from the ROB entries.
// --------------------------------------------------------------

/** A core with its own stats tree, so a fresh one can replace it.
 *  Its d-side is the hierarchy's L1D unless @p dside is given. */
struct CoreOnHierarchy
{
    explicit CoreOnHierarchy(Hierarchy &hier,
                             MemoryLevel *dside = nullptr)
        : CoreOnHierarchy(hier.l1i(), dside ? dside : &hier.l1d())
    {
    }

    /** A core on any i-side and d-side. */
    CoreOnHierarchy(MemoryLevel *iside, MemoryLevel *dside)
        : root("sim"), core(OooParams{}, iside, dside, &root)
    {
    }

    /** Every counter of the core and its predictor. */
    std::string counters() const
    {
        std::ostringstream os;
        root.dump(os);
        return os.str();
    }

    std::string snapshot()
    {
        sim::CheckpointWriter w;
        core.checkpoint(w);
        return w.bytes();
    }

    stats::StatGroup root;
    OooCore core;
};

/** The Table 1 hierarchy, optionally with banked DRAM and MSHRs so
 *  long-latency misses are in flight at a split. */
HierarchyParams
hierarchyParams(bool banked)
{
    HierarchyParams h;
    if (banked) {
        h.dram.banked = true;
        h.l1i.mshrs = 4;
        h.l1d.mshrs = 4;
        h.l2.mshrs = 8;
    }
    return h;
}

/**
 * Issued ROB entries in an ooo_core snapshot that complete more
 * than 256 cycles after its cycle: after a restore, those wait past
 * the core's timing wheel. A committed entry completed by then.
 */
unsigned
completionsPastTheWheel(const std::string &snap)
{
    sim::CheckpointReader r(snap);
    r.beginSection("ooo_core");
    const Cycles now = r.getU64();
    const std::uint64_t entries = r.getU64();
    unsigned past = 0;
    for (std::uint64_t i = 0; i < entries; ++i) {
        for (int k = 0; k < 5; ++k) // pc, op, dest, src1, src2
            r.getU64();
        r.getBool(); // taken
        r.getU64();  // nextPc
        r.getU64();  // memAddr
        r.getBool(); // pred.taken
        r.getU64();  // pred.target
        r.getBool(); // predMade
        r.getBool(); // mispredict
        for (int k = 0; k < 3; ++k) // prod1, prod2, depStore
            r.getI64();
        const bool issued = r.getBool();
        const Cycles completeAt = r.getU64();
        past += issued && completeAt > now + 256;
    }
    return past;
}

/** A hierarchy and the core currently running on it. */
struct SplitRig
{
    explicit SplitRig(bool banked, MemoryLevel *dside = nullptr)
        : root("h"), hier(hierarchyParams(banked), &root, true),
          dside(dside),
          cur(std::make_unique<CoreOnHierarchy>(hier, dside))
    {
    }

    /**
     * Run @p warm instructions of @p bench, then @p quanta quanta of
     * @p quantum instructions, snapshotting the core after each
     * quantum and restoring it into a fresh core on the same
     * hierarchy and stream. Every split lands on the commit-budget
     * break, before that cycle's completions are drained.
     */
    void run(const std::string &bench, InstCount warm, InstCount quanta,
             InstCount quantum)
    {
        TraceGenerator gen(programImageFor(findBenchmark(bench)));
        cur->core.run(gen, warm);
        for (InstCount i = 0; i < quanta; ++i) {
            cur->core.run(gen, quantum);
            const std::string snap = cur->snapshot();
            if (completionsPastTheWheel(snap) > 0)
                ++restoresPastTheWheel;
            cur = std::make_unique<CoreOnHierarchy>(hier, dside);
            sim::CheckpointReader r(snap);
            cur->core.checkpoint(r);
        }
    }

    stats::StatGroup root;
    Hierarchy hier;
    MemoryLevel *dside;
    std::unique_ptr<CoreOnHierarchy> cur;
    /** Restores with a completion due past the timing wheel. */
    unsigned restoresPastTheWheel = 0;
};

/** The benchmark is a std::string, not a const char *: gtest prints
 *  a pointer parameter with its address, and the discovered test name
 *  would then change with every load address. */
class OooCoreSplit
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(OooCoreSplit, MatchesUninterruptedAtEveryQuantum)
{
    // A warm pipeline (full ROB, d-cache misses in flight), then 500
    // splits per quantum; the banked-DRAM + MSHR hierarchy keeps
    // long-latency completions pending across them.
    const auto [bench, banked] = GetParam();
    constexpr InstCount kWarm = 20 * 1000;
    constexpr InstCount kQuanta = 500;
    for (const InstCount quantum : {1u, 7u, 64u, 997u}) {
        SCOPED_TRACE("quantum " + std::to_string(quantum));
        const InstCount total = kWarm + kQuanta * quantum;
        SplitRig plain(banked);
        plain.run(bench, total, 0, 0);
        ASSERT_EQ(plain.cur->core.committed(), total);

        SplitRig split(banked);
        split.run(bench, kWarm, kQuanta, quantum);
        EXPECT_EQ(split.cur->core.cycles(), plain.cur->core.cycles());
        EXPECT_EQ(split.cur->counters(), plain.cur->counters());
        EXPECT_EQ(split.cur->snapshot(), plain.cur->snapshot());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Restore, OooCoreSplit,
    ::testing::Combine(::testing::Values(std::string("compress"),
                                         std::string("li")),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>
           &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_banked" : "_flat");
    });

/** Byte offset of the fetch-queue count in an ooo_core snapshot:
 *  the section header, now_, the ROB and seqHead_/seqTail_. */
std::size_t
fetchQueueOffset(unsigned robSize)
{
    sim::CheckpointWriter w;
    w.beginSection("ooo_core");
    w.putU64(0); // now_
    w.putU64(robSize);
    for (unsigned i = 0; i < robSize; ++i) {
        for (int k = 0; k < 7; ++k) // Instr: 7 integers, 1 flag
            w.putU64(0);
        w.putBool(false);
        w.putBool(false); // pred.taken
        w.putU64(0);      // pred.target
        w.putBool(false); // predMade
        w.putBool(false); // mispredict
        for (int k = 0; k < 3; ++k) // prod1, prod2, depStore
            w.putI64(0);
        w.putBool(false); // issued
        w.putU64(0);      // completeAt
    }
    w.putI64(0); // seqHead_
    w.putI64(0); // seqTail_
    w.endSection();
    return w.bytes().size() - 1; // less the section's close tag
}

// --------------------------------------------------------------
// Completions past the timing wheel. golden::SlowDataSide answers
// loads in 1 to 1024 cycles, so many completion events fall due 256
// or more cycles out and wait on the overflow list; branches that
// depend on those loads stall fetch until they drain.
// --------------------------------------------------------------

// GOLDEN-BASELINE-BEGIN (tools/rebaseline.sh regenerates this block)
const golden::CoreCounterGoldenCase kSlowDataSideGolden{
    "li", 1, 1022381, 100000,
    1030, 20, 40292, 33644, 636121};
// GOLDEN-BASELINE-END

void
expectSameCounters(const golden::CoreCounterGoldenCase &got,
                   const golden::CoreCounterGoldenCase &want)
{
    EXPECT_STREQ(got.benchmark, want.benchmark);
    EXPECT_EQ(got.l1iAssoc, want.l1iAssoc);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.committed, want.committed);
    EXPECT_EQ(got.mispredicts, want.mispredicts);
    EXPECT_EQ(got.loadForwards, want.loadForwards);
    EXPECT_EQ(got.robFullStalls, want.robFullStalls);
    EXPECT_EQ(got.icacheStallCycles, want.icacheStallCycles);
    EXPECT_EQ(got.branchStallCycles, want.branchStallCycles);
}

void
expectSlowDataSideGolden(const golden::CoreCounterGoldenCase &got)
{
    expectSameCounters(got, kSlowDataSideGolden);
}

TEST(OooCoreOverflow, SlowDataSideCountersMatchGolden)
{
    expectSlowDataSideGolden(golden::runSlowDataSideCoreCounters());
}

TEST(OooCoreOverflow, SplitsWithCompletionsPastTheWheelMatchGolden)
{
    // The golden run's stream, split into quanta that end it at the
    // same instruction, with a restore into a fresh core after each.
    constexpr InstCount kTotal = golden::kSlowDataSideInstrs;
    golden::SlowDataSide plainSide;
    SplitRig plain(false, &plainSide);
    plain.run("li", kTotal, 0, 0);
    expectSlowDataSideGolden(golden::coreCounters("li", 1, plain.cur->core));
    EXPECT_GT(plainSide.longAccesses(), 1000u);

    for (const InstCount quantum : {1u, 7u, 997u}) {
        SCOPED_TRACE("quantum " + std::to_string(quantum));
        const InstCount quanta = std::min<InstCount>(500, kTotal / quantum);
        golden::SlowDataSide dside;
        SplitRig split(false, &dside);
        split.run("li", kTotal - quanta * quantum, quanta, quantum);
        EXPECT_EQ(split.cur->counters(), plain.cur->counters());
        EXPECT_EQ(split.cur->snapshot(), plain.cur->snapshot());
        // Most restores rebuild an overflow list, not only the wheel.
        EXPECT_GT(split.restoresPastTheWheel, quanta / 2);
    }
}

// --------------------------------------------------------------
// The edges of the timing wheel's due window. Each issue cycle
// drains the buckets due since the last one, [wheelBase_, now_]:
// after an idle skip that window can reach the wheel's last bucket,
// wrap from bucket 255 to 0, or span more than the whole wheel.
// Scripted loads on stub caches place one completion at each edge;
// a core that misses a due bucket never wakes its consumer and
// idles on, which the watchdog stops.
// --------------------------------------------------------------

/** OooCore's timing wheel: one bucket per cycle of the next 256. */
constexpr Cycles kWheel = 256;

/** An i-side that hits every fetch in one cycle. */
class PerfectFetch : public MemoryLevel
{
  public:
    AccessResult access(Addr, AccessType) override { return {true, 1}; }
};

/** A d-side that answers an access to address A in A / 64 cycles,
 *  so a test sets a load's latency through its address. */
class LatencyByAddress : public MemoryLevel
{
  public:
    AccessResult access(Addr addr, AccessType) override
    {
        return {false, addr / 64};
    }
};

/** A load of @p dest whose d-side access takes @p latency cycles,
 *  waiting on @p src1 for its address. */
Instr
loadTaking(Addr pc, std::uint8_t dest, Cycles latency,
           std::uint8_t src1 = 0)
{
    Instr i = alu(pc, dest, src1);
    i.op = OpClass::Load;
    i.memAddr = latency * 64;
    return i;
}

/** Throws once the core it watches has run 100 000 cycles: a core
 *  that lost a completion idles forever. */
class CycleWatchdog : public RetireSink
{
  public:
    void onRetire(InstCount) override {}
    void onCycles(Cycles delta) override
    {
        cycles_ += delta;
        if (cycles_ > 100 * 1000)
            throw std::runtime_error("core still running after " +
                                     std::to_string(cycles_) +
                                     " cycles");
    }

  private:
    Cycles cycles_ = 0;
};

/** A core on the stub caches, under a watchdog. */
struct WheelRig
{
    WheelRig() : cur(&iside, &dside) { cur.core.addRetireSink(&watchdog); }

    /** A fresh rig restored from @p snap. */
    static std::unique_ptr<WheelRig> restored(const std::string &snap)
    {
        auto rig = std::make_unique<WheelRig>();
        sim::CheckpointReader r(snap);
        rig->cur.core.checkpoint(r);
        return rig;
    }

    PerfectFetch iside;
    LatencyByAddress dside;
    CycleWatchdog watchdog;
    CoreOnHierarchy cur;
};

/**
 * Run @p program to its end: in one run() call, or (@p split) one
 * instruction per call with a restore into a fresh rig after each.
 * Every split lands on a commit-budget break, so the restored core
 * rebuilds its wheel there.
 */
std::unique_ptr<WheelRig>
runProgram(const std::vector<Instr> &program, bool split)
{
    auto rig = std::make_unique<WheelRig>();
    VecStream s(program);
    if (!split) {
        rig->cur.core.run(s, program.size());
        return rig;
    }
    for (std::size_t i = 0; i < program.size(); ++i) {
        rig->cur.core.run(s, 1);
        rig = WheelRig::restored(rig->cur.snapshot());
    }
    return rig;
}

/**
 * r5 completes at cycle 3 and wakes a load, which issues then with
 * the wheel's base at cycle 4. Its d-side access takes @p pastBase
 * cycles on top of the one to issue, so it completes @p pastBase
 * cycles past that base. Its consumers can do nothing before, so
 * the core skips from cycle 4 to the completion in one step.
 */
std::vector<Instr>
oneLoadPastTheBase(Cycles pastBase)
{
    return {alu(0x1000, 5), loadTaking(0x1004, 1, pastBase, 5),
            alu(0x1008, 2, 1), alu(0x100c, 3, 2)};
}

/** A scripted program and the counters its uninterrupted run ends
 *  with, named after the edge of the window it reaches. */
struct WheelEdgeCase
{
    std::vector<Instr> program;
    golden::CoreCounterGoldenCase want;
};

std::vector<WheelEdgeCase>
wheelEdgeCases()
{
    // Captured with the drain that searched the whole wheel once per
    // bucket: a change to how often the core steps must not move
    // them.
    return {
        // The skip's window starts at bucket 5 and wraps past bucket
        // 255 to the completion in bucket 0.
        {oneLoadPastTheBase(252), {"wrap", 0, 258, 4, 0, 0, 0, 0, 0}},
        // The completion in the wheel's last bucket.
        {oneLoadPastTheBase(kWheel - 1),
         {"last_bucket", 0, 261, 4, 0, 0, 0, 0, 0}},
        // One and two cycles past the wheel, on the overflow list.
        {oneLoadPastTheBase(kWheel),
         {"past_the_wheel", 0, 262, 4, 0, 0, 0, 0, 0}},
        {oneLoadPastTheBase(kWheel + 1),
         {"one_more", 0, 263, 4, 0, 0, 0, 0, 0}},
        // Two loads past the wheel: each consumer's skip to its
        // completion is longer than the whole wheel.
        {{alu(0x1000, 5), loadTaking(0x1004, 1, 600, 5),
          loadTaking(0x1008, 2, 300, 5), alu(0x100c, 3, 1),
          alu(0x1010, 4, 2), alu(0x1014, 6, 3, 4)},
         {"longer_than_the_wheel", 0, 606, 6, 0, 0, 0, 0, 0}},
    };
}

TEST(OooCoreOverflow, DueWindowEdgesMatchPinnedCounters)
{
    for (const WheelEdgeCase &c : wheelEdgeCases()) {
        SCOPED_TRACE(c.want.benchmark);
        const auto plain = runProgram(c.program, false);
        expectSameCounters(
            golden::coreCounters(c.want.benchmark, 0, plain->cur.core),
            c.want);

        const auto split = runProgram(c.program, true);
        EXPECT_EQ(split->cur.core.cycles(), plain->cur.core.cycles());
        EXPECT_EQ(split->cur.counters(), plain->cur.counters());
        EXPECT_EQ(split->cur.snapshot(), plain->cur.snapshot());
    }
}

/** Index of commitsThisCycle_ among an ooo_core snapshot's values
 *  (snapshot_splice.hh): after now_, the ROB, seqHead_ and
 *  seqTail_, the fetch queue, the rename table, the LSQ count, the
 *  store list, eight fetch-state values, the pending instruction
 *  and lastCommitCycle_. */
std::size_t
commitsThisCycleValue(const std::string &snap)
{
    const std::vector<std::size_t> at = valueOffsets(snap);
    const std::size_t fetchCount = 2 + 17 * OooParams{}.robSize + 2;
    const std::size_t fetched = u64Value(snap, at[fetchCount]);
    const std::size_t stores = fetchCount + 1 + 12 * fetched + 1 + kRegs + 1;
    return stores + 1 + u64Value(snap, at[stores]) + 8 + 8 + 1;
}

TEST(OooCoreOverflow, RestoreIdleAtItsCycleDrainsTheWholeWheel)
{
    // A restore rebuilds the wheel from the snapshot's cycle, so a
    // completion 256 cycles out lands in its last bucket. A split
    // always follows a commit, which keeps the restored core busy
    // that cycle, and the wheel turns before its first idle skip.
    // With the cycle's commit count spliced to zero the restored
    // core is idle at once: its one skip spans the whole wheel, and
    // the due window must reach the last bucket.
    //
    // r5 and r6 commit at cycles 3 and 4; the load, issued at cycle
    // 2, completes at cycle 4 + kWheel.
    const std::vector<Instr> program = {
        alu(0x1000, 5), alu(0x1004, 6, 5),
        loadTaking(0x1008, 1, kWheel + 1), alu(0x100c, 2, 1)};
    const auto plain = runProgram(program, false);
    expectSameCounters(golden::coreCounters("idle", 0, plain->cur.core),
                       {"idle", 0, 261, 4, 0, 0, 0, 0, 0});

    WheelRig first;
    VecStream s(program);
    first.cur.core.run(s, 2);
    ASSERT_EQ(first.cur.core.cycles(), 4u);
    const std::string snap = first.cur.snapshot();
    const std::size_t commits = valueOffsets(snap)[commitsThisCycleValue(snap)];
    ASSERT_EQ(u64Value(snap, commits), 1u);

    const auto idle = WheelRig::restored(withValue(snap, commits, 0));
    idle->cur.core.run(s, program.size() - 2);
    EXPECT_EQ(idle->cur.core.cycles(), plain->cur.core.cycles());
    EXPECT_EQ(idle->cur.counters(), plain->cur.counters());
    EXPECT_EQ(idle->cur.snapshot(), plain->cur.snapshot());
}

TEST(OooCoreRestore, SnapshotSizeIsBoundedAfterALongRun)
{
    // The fetch queue is a ring of fetchQueueSize entries and the
    // snapshot lists only its live ones, so after any run length
    // the section exceeds a fresh core's (which already holds all
    // robSize ROB entries) by at most the fetch-queue and LSQ
    // entries, none of which encodes to more than 128 bytes.
    const OooParams p;
    constexpr std::size_t kMaxEntryBytes = 128;
    stats::StatGroup hierRoot("h");
    Hierarchy hier(hierarchyParams(false), &hierRoot, true);
    CoreOnHierarchy c(hier);
    const std::size_t bound =
        c.snapshot().size() +
        (p.fetchQueueSize + p.lsqSize) * kMaxEntryBytes;

    // applu's fetch queue backs up behind a full ROB often enough
    // that an unbounded queue carries hundreds of dispatched entries.
    TraceGenerator gen(programImageFor(findBenchmark("applu")));
    for (int i = 1; i <= 8; ++i) {
        c.core.run(gen, 250 * 1000);
        ASSERT_EQ(c.core.committed(), i * 250u * 1000);
        EXPECT_LE(c.snapshot().size(), bound)
            << "after " << c.core.committed() << " instructions";
    }
}

TEST(OooCoreRestore, DeadFetchQueuePrefixRestoresToTheLiveQueue)
{
    // Older snapshots list the fetch queue with a dead, already
    // dispatched prefix and the index of its first live entry.
    // Splice such a prefix into a current snapshot: it must restore
    // to the same core as the snapshot without it.
    stats::StatGroup hierRoot("h");
    Hierarchy hier(hierarchyParams(false), &hierRoot, true);
    CoreOnHierarchy c(hier);
    TraceGenerator gen(programImageFor(findBenchmark("li")));
    c.core.run(gen, 10007);
    const std::string snap = c.snapshot();

    const std::size_t at = fetchQueueOffset(OooParams{}.robSize);
    sim::CheckpointReader count(snap.substr(at, 9));
    const std::uint64_t live = count.getU64();
    ASSERT_GT(live, 0u) << "split where the fetch queue is empty";
    constexpr std::size_t kEntryBytes = 80; // FetchedInstr encoding
    const std::size_t entries = at + 9;
    const std::size_t headAt = entries + live * kEntryBytes;
    sim::CheckpointReader head(snap.substr(headAt, 9));
    ASSERT_EQ(head.getU64(), 0u);

    // 100 dead entries (copies of the first live one) ahead of the
    // live ones; the count and head say which are live.
    constexpr std::uint64_t kDead = 100;
    sim::CheckpointWriter countW, headW;
    countW.putU64(live + kDead);
    headW.putU64(kDead);
    std::string old = snap.substr(0, at) + countW.bytes();
    for (std::uint64_t i = 0; i < kDead; ++i)
        old += snap.substr(entries, kEntryBytes);
    old += snap.substr(entries, live * kEntryBytes) + headW.bytes() +
           snap.substr(headAt + 9);

    CoreOnHierarchy fromOld(hier);
    sim::CheckpointReader r(old);
    fromOld.core.checkpoint(r);
    EXPECT_EQ(fromOld.snapshot(), snap);

    // A head past the listed entries, or more live entries than
    // the ring holds, is malformed.
    for (const auto &[listed, first] :
         {std::pair<std::uint64_t, std::uint64_t>{live, live + 1},
          {live + kDead, 0}}) {
        sim::CheckpointWriter cw, hw;
        cw.putU64(listed);
        hw.putU64(first);
        std::string bad = snap.substr(0, at) + cw.bytes();
        for (std::uint64_t i = 0; i < listed; ++i)
            bad += snap.substr(entries, kEntryBytes);
        bad += hw.bytes() + snap.substr(headAt + 9);
        CoreOnHierarchy victim(hier);
        sim::CheckpointReader br(bad);
        EXPECT_THROW(victim.core.checkpoint(br), sim::CheckpointError);
    }
}

TEST(OooCoreRestore, OccupancyIsBoundByRobSizeNotTheRing)
{
    // A 100-entry ROB lives in a ring of 128 slots, which a snapshot
    // lists in full; more than 100 entries in flight is malformed.
    stats::StatGroup hierRoot("h");
    Hierarchy hier(hierarchyParams(false), &hierRoot, true);
    OooParams p;
    p.robSize = 100;
    const auto restore = [&](const std::string &bytes) {
        stats::StatGroup root("sim");
        OooCore core(p, hier.l1i(), &hier.l1d(), &root);
        sim::CheckpointReader r(bytes);
        core.checkpoint(r);
    };
    stats::StatGroup root("sim");
    OooCore empty(p, hier.l1i(), &hier.l1d(), &root);
    sim::CheckpointWriter w;
    empty.checkpoint(w);
    const std::size_t tailAt = fetchQueueOffset(128) - 9; // seqTail_
    for (const std::int64_t tail : {100, 101, 128}) {
        sim::CheckpointWriter tw;
        tw.putI64(tail);
        std::string bytes = w.bytes();
        bytes.replace(tailAt, 9, tw.bytes());
        if (tail <= 100)
            EXPECT_NO_THROW(restore(bytes));
        else
            EXPECT_THROW(restore(bytes), sim::CheckpointError);
    }
}

TEST(OooCoreRestore, RejectsValuesItsFieldsCannotHold)
{
    // A real snapshot with one field spliced out of range: a register
    // past the rename table, an op past OpClass::Return, a value wider
    // than its field, a store list longer than the LSQ, and an LSQ
    // that does not hold the ROB's memory ops. Each must throw
    // CheckpointError: none may restore, abort or allocate.
    stats::StatGroup hierRoot("h");
    Hierarchy hier(hierarchyParams(false), &hierRoot, true);
    CoreOnHierarchy c(hier);
    TraceGenerator gen(programImageFor(findBenchmark("li")));
    c.core.run(gen, 10007);
    const std::string snap = c.snapshot();
    const std::vector<std::size_t> at = valueOffsets(snap);

    // now_ and the ROB size, then 17 values per ROB entry: pc, op,
    // dest, src1, src2, ...
    const unsigned robSize = OooParams{}.robSize;
    const auto robValue = [](unsigned entry, unsigned field) {
        return 2 + 17 * entry + field;
    };
    // seqHead_, seqTail_, the fetch-queue count and its 12-value
    // entries, the head, the rename table's writers, lsqOccupancy_
    // and the store-list length.
    const std::size_t fetchCount = robValue(robSize, 2);
    const std::size_t live = u64Value(snap, at[fetchCount]);
    const std::size_t lsq = fetchCount + 1 + 12 * live + 1 + kRegs;
    const std::size_t stores = lsq + 1;
    ASSERT_LT(stores, at.size());
    // Loads and stores are in flight.
    ASSERT_GT(u64Value(snap, at[lsq]), 0u);

    std::string everyDest = snap;
    for (unsigned e = 0; e < robSize; ++e)
        everyDest = withValue(everyDest, at[robValue(e, 2)], 100);
    const std::pair<const char *, std::string> cases[] = {
        {"dest 100 in every ROB entry", everyDest},
        {"dest kRegs", withValue(snap, at[robValue(0, 2)], kRegs)},
        {"src1 261", withValue(snap, at[robValue(0, 3)], 256 + 5)},
        {"op past Return", withValue(snap, at[robValue(0, 1)], 9)},
        {"lsqOccupancy_ 2^32 + 1",
         withValue(snap, at[lsq], (std::uint64_t{1} << 32) + 1)},
        {"store list of 2^61",
         withValue(snap, at[stores], std::uint64_t{1} << 61)},
        {"store list past the LSQ",
         withValue(snap, at[stores], OooParams{}.lsqSize + 1)},
        {"lsqOccupancy_ 0 with memory ops in flight",
         withValue(snap, at[lsq], 0)},
    };
    for (const auto &[what, bytes] : cases) {
        CoreOnHierarchy victim(hier);
        sim::CheckpointReader r(bytes);
        EXPECT_THROW(victim.core.checkpoint(r), sim::CheckpointError)
            << what;
    }
    // The unspliced snapshot restores.
    CoreOnHierarchy twin(hier);
    sim::CheckpointReader r(snap);
    EXPECT_NO_THROW(twin.core.checkpoint(r));
}

TEST(OooCoreRestore, RejectsAStoreListThatDisagreesWithTheRob)
{
    // Dispatch forwards loads from the store list, so a list that
    // names a load, is out of order or names a seq not yet
    // dispatched would restore into a core that mis-forwards. The
    // same li snapshot, its store list spliced three ways: a load's
    // seq in place of a store's, two entries swapped, and an entry at
    // seqTail_. Each must throw CheckpointError. A committed store
    // still leading the list restores.
    stats::StatGroup hierRoot("h");
    Hierarchy hier(hierarchyParams(false), &hierRoot, true);
    CoreOnHierarchy c(hier);
    TraceGenerator gen(programImageFor(findBenchmark("li")));
    c.core.run(gen, 10007);
    const std::string snap = c.snapshot();
    const std::vector<std::size_t> at = valueOffsets(snap);
    const auto i64Value = [&](std::size_t value) {
        return sim::CheckpointReader(snap.substr(at[value], 9)).getI64();
    };

    // now_ and the ROB size, then 17 values per ROB entry (the op
    // second); seqHead_, seqTail_, the fetch-queue count and its
    // 12-value entries, the head, the rename table's writers,
    // lsqOccupancy_, the store-list length and its entries.
    const unsigned robSize = OooParams{}.robSize;
    const std::size_t seqHeadValue = 2 + 17 * robSize;
    const std::int64_t seqHead = i64Value(seqHeadValue);
    const std::int64_t seqTail = i64Value(seqHeadValue + 1);
    const std::size_t fetchCount = seqHeadValue + 2;
    const std::size_t stores =
        fetchCount + 1 + 12 * u64Value(snap, at[fetchCount]) + 1 +
        kRegs + 1;
    const std::size_t listed = u64Value(snap, at[stores]);
    ASSERT_GE(listed, 2u);
    // Entry k's seq and the byte offset of its value.
    const auto listedSeq = [&](std::size_t k) {
        return i64Value(stores + 1 + k);
    };
    const auto entryAt = [&](std::size_t k) { return at[stores + 1 + k]; };
    const auto opOf = [&](std::int64_t seq) {
        const std::size_t slot = static_cast<std::size_t>(seq) % robSize;
        return static_cast<OpClass>(u64Value(snap, at[2 + 17 * slot + 1]));
    };

    // The first load in flight below a listed store takes that
    // store's place, so the list stays in order but skips a store.
    std::string loadForStore;
    for (std::int64_t seq = seqHead; seq < seqTail && loadForStore.empty();
         ++seq) {
        if (opOf(seq) != OpClass::Load)
            continue;
        for (std::size_t k = 0; k < listed; ++k) {
            if (listedSeq(k) > seq) {
                loadForStore = withValue(snap, entryAt(k),
                                         static_cast<std::uint64_t>(seq));
                break;
            }
        }
    }
    ASSERT_FALSE(loadForStore.empty()) << "no load below a listed store";

    const std::string last = snap.substr(entryAt(listed - 1), 9);
    const std::string beforeLast = snap.substr(entryAt(listed - 2), 9);
    std::string swapped = snap;
    swapped.replace(entryAt(listed - 2), 9, last);
    swapped.replace(entryAt(listed - 1), 9, beforeLast);

    const std::pair<const char *, std::string> cases[] = {
        {"a load's seq in place of a store's", loadForStore},
        {"the last two entries swapped", swapped},
        {"the last entry at seqTail_",
         withValue(snap, entryAt(listed - 1),
                   static_cast<std::uint64_t>(seqTail))},
    };
    for (const auto &[what, bytes] : cases) {
        CoreOnHierarchy victim(hier);
        sim::CheckpointReader r(bytes);
        EXPECT_THROW(victim.core.checkpoint(r), sim::CheckpointError)
            << what;
    }

    // One more entry below seqHead_ and the first listed store: a
    // store committed since the last dispatch. The list grows by one.
    sim::CheckpointWriter committed;
    committed.putI64(std::min(seqHead, listedSeq(0)) - 1);
    const std::string leading =
        withValue(snap, at[stores], listed + 1).substr(0, entryAt(0)) +
        committed.bytes() + snap.substr(entryAt(0));
    CoreOnHierarchy twin(hier);
    sim::CheckpointReader r(leading);
    EXPECT_NO_THROW(twin.core.checkpoint(r));
}

TEST(OooParams, ExecLatencies)
{
    EXPECT_EQ(OooParams::execLatency(OpClass::IntAlu), 1u);
    EXPECT_EQ(OooParams::execLatency(OpClass::IntMul), 3u);
    EXPECT_EQ(OooParams::execLatency(OpClass::FpAlu), 4u);
    EXPECT_EQ(OooParams::execLatency(OpClass::Branch), 1u);
}

} // namespace
} // namespace drisim
