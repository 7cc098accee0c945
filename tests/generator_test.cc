/**
 * @file
 * Trace-generator tests: stream consistency (the invariant that
 * each instruction's nextPc is the next instruction's pc),
 * determinism, op mix, phase cycling, footprint, and a restore that
 * rejects state the image cannot produce.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "sim/checkpoint.hh"
#include "snapshot_splice.hh"
#include "workload/generator.hh"
#include "workload/program.hh"

namespace drisim
{
namespace
{

ProgramSpec
spec(std::uint64_t codeBytes = 8192, InstCount dynInstrs = 50000)
{
    ProgramSpec s;
    s.name = "gen";
    s.seed = 11;
    PhaseSpec p;
    p.name = "main";
    p.codeBytes = codeBytes;
    p.dynInstrs = dynInstrs;
    s.phases = {p};
    return s;
}

TEST(Generator, NextPcChainIsConsistent)
{
    // The core invariant of the executed path: instruction i's
    // nextPc is instruction i+1's pc. Fetch modeling depends on it.
    const ProgramImage img = buildProgram(spec());
    TraceGenerator gen(img);
    Instr prev;
    ASSERT_TRUE(gen.next(prev));
    for (int i = 0; i < 200000; ++i) {
        Instr cur;
        ASSERT_TRUE(gen.next(cur));
        ASSERT_EQ(prev.nextPc, cur.pc)
            << "broken chain at instruction " << i;
        prev = cur;
    }
}

TEST(Generator, Deterministic)
{
    const ProgramImage img = buildProgram(spec());
    TraceGenerator a(img);
    TraceGenerator b(img);
    for (int i = 0; i < 50000; ++i) {
        Instr x, y;
        ASSERT_TRUE(a.next(x));
        ASSERT_TRUE(b.next(y));
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(static_cast<int>(x.op), static_cast<int>(y.op));
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.memAddr, y.memAddr);
    }
}

TEST(Generator, ResetReplaysSameStream)
{
    const ProgramImage img = buildProgram(spec());
    TraceGenerator gen(img);
    std::vector<Addr> first;
    Instr ins;
    for (int i = 0; i < 10000; ++i) {
        gen.next(ins);
        first.push_back(ins.pc);
    }
    gen.reset();
    for (int i = 0; i < 10000; ++i) {
        gen.next(ins);
        ASSERT_EQ(ins.pc, first[static_cast<size_t>(i)]);
    }
}

TEST(Generator, ControlOpsHaveConsistentTargets)
{
    const ProgramImage img = buildProgram(spec());
    TraceGenerator gen(img);
    Instr ins;
    for (int i = 0; i < 100000; ++i) {
        ASSERT_TRUE(gen.next(ins));
        if (isControl(ins.op)) {
            if (!ins.taken) {
                EXPECT_EQ(ins.nextPc, ins.pc + kInstrBytes);
            }
            if (ins.op != OpClass::Branch) {
                EXPECT_TRUE(ins.taken);
            }
        } else {
            EXPECT_EQ(ins.nextPc, ins.pc + kInstrBytes);
        }
    }
}

TEST(Generator, OpMixApproximatesSpec)
{
    ProgramSpec s = spec(8192, 1u << 30);
    s.phases[0].mix.loadFrac = 0.25;
    s.phases[0].mix.storeFrac = 0.10;
    s.phases[0].mix.fpFrac = 0.20;
    const ProgramImage img = buildProgram(s);
    TraceGenerator gen(img);
    std::map<OpClass, int> counts;
    const int n = 200000;
    Instr ins;
    for (int i = 0; i < n; ++i) {
        gen.next(ins);
        counts[ins.op]++;
    }
    const double body = static_cast<double>(
        n - counts[OpClass::Branch] - counts[OpClass::Jump] -
        counts[OpClass::Call] - counts[OpClass::Return]);
    EXPECT_NEAR(counts[OpClass::Load] / body, 0.25, 0.03);
    EXPECT_NEAR(counts[OpClass::Store] / body, 0.10, 0.03);
    EXPECT_NEAR(counts[OpClass::FpAlu] / body, 0.20, 0.03);
    // Branches exist in sensible volume (loops + hammocks).
    EXPECT_GT(counts[OpClass::Branch], n / 40);
    EXPECT_GT(counts[OpClass::Call], 0);
    EXPECT_GT(counts[OpClass::Return], 0);
}

TEST(Generator, ExecutedFootprintMatchesPhaseCode)
{
    const std::uint64_t code = 8192;
    const ProgramImage img = buildProgram(spec(code, 1u << 30));
    TraceGenerator gen(img);
    std::set<Addr> blocks;
    Instr ins;
    for (int i = 0; i < 300000; ++i) {
        gen.next(ins);
        blocks.insert(ins.pc / 32);
    }
    const double touched =
        static_cast<double>(blocks.size()) * 32.0;
    // Executed footprint within 25% of the declared code size.
    EXPECT_NEAR(touched / static_cast<double>(code), 1.0, 0.25);
}

TEST(Generator, PhasesCycleAndJumpBetweenRegions)
{
    ProgramSpec s = spec(4096, 20000);
    PhaseSpec p2 = s.phases[0];
    p2.name = "p2";
    p2.codeBytes = 2048;
    p2.dynInstrs = 10000;
    s.phases.push_back(p2);
    const ProgramImage img = buildProgram(s);

    TraceGenerator gen(img);
    Instr ins;
    std::vector<size_t> seen;
    size_t last = 99;
    for (int i = 0; i < 120000; ++i) {
        gen.next(ins);
        if (gen.currentPhase() != last) {
            last = gen.currentPhase();
            seen.push_back(last);
        }
    }
    // 0 -> 1 -> 0 -> 1 ... cycling.
    ASSERT_GE(seen.size(), 4u);
    EXPECT_EQ(seen[0], 0u);
    EXPECT_EQ(seen[1], 1u);
    EXPECT_EQ(seen[2], 0u);
    EXPECT_EQ(seen[3], 1u);
}

TEST(Generator, PhaseDurationsRoughlyHonoured)
{
    ProgramSpec s = spec(4096, 30000);
    PhaseSpec p2 = s.phases[0];
    p2.name = "p2";
    p2.dynInstrs = 10000;
    s.phases.push_back(p2);
    const ProgramImage img = buildProgram(s);

    TraceGenerator gen(img);
    Instr ins;
    InstCount in_p0 = 0;
    InstCount in_p1 = 0;
    for (int i = 0; i < 200000; ++i) {
        gen.next(ins);
        (gen.currentPhase() == 0 ? in_p0 : in_p1)++;
    }
    const double ratio = static_cast<double>(in_p0) /
                         static_cast<double>(in_p1);
    EXPECT_NEAR(ratio, 3.0, 0.2);
}

TEST(Generator, MemoryAddressesStayInDataRegion)
{
    const ProgramImage img = buildProgram(spec());
    TraceGenerator gen(img);
    const Phase &ph = img.phases[0];
    Instr ins;
    for (int i = 0; i < 100000; ++i) {
        gen.next(ins);
        if (isMem(ins.op)) {
            EXPECT_GE(ins.memAddr, ph.dataBase);
            EXPECT_LT(ins.memAddr, ph.dataBase + ph.dataBytes);
        }
    }
}

TEST(GeneratorRestore, RejectsStateItsImageCannotProduce)
{
    // A real snapshot with one field spliced to state the image
    // cannot produce. next() would index the image, or a core's
    // rename table, with it, so each must throw CheckpointError.
    const ProgramImage img = buildProgram(spec());
    TraceGenerator gen(img);
    Instr ins;
    for (int i = 0; i < 12345; ++i)
        gen.next(ins);
    sim::CheckpointWriter w;
    gen.checkpoint(w);
    const std::string snap = w.bytes();
    const std::vector<std::size_t> at = valueOffsets(snap);

    // The RNG's four words, the phase, two counts and the call
    // stack's length; then per frame its function, block,
    // instruction, latch count and latches; then two register
    // counters and the eight recent destinations.
    const std::size_t phase = 4;
    const std::size_t stack = 7;
    const std::size_t frame = stack + 1;
    const auto i64 = [&](std::size_t v) {
        return sim::CheckpointReader(snap.substr(at[v], 9)).getI64();
    };
    std::size_t after = frame;
    for (std::uint64_t f = 0; f < u64Value(snap, at[stack]); ++f)
        after += 4 + u64Value(snap, at[after + 3]);
    const std::size_t recentDest = after + 2;
    ASSERT_EQ(recentDest + 8 + 4, at.size());

    const auto &blocks = img.functions[i64(frame)].blocks;
    const std::size_t latches = u64Value(snap, at[frame + 3]);
    ASSERT_EQ(latches, blocks.size());
    std::string noStack = withValue(snap, at[stack], 0);
    noStack.erase(at[frame], at[after] - at[frame]);
    std::string fewerLatches = withValue(snap, at[frame + 3], latches - 1);
    fewerLatches.erase(at[frame + 3 + latches], 9);

    const std::pair<const char *, std::string> cases[] = {
        {"phase past the image's",
         withValue(snap, at[phase], img.phases.size())},
        {"empty call stack", noStack},
        {"function past the image's",
         withValue(snap, at[frame], img.functions.size())},
        {"block past the function's",
         withValue(snap, at[frame + 1], blocks.size())},
        {"instruction past the block's",
         withValue(snap, at[frame + 2], blocks[i64(frame + 1)].numInstrs)},
        {"one latch fewer than the function's blocks", fewerLatches},
        {"recent destination kRegs",
         withValue(snap, at[recentDest], kRegs)},
    };
    for (const auto &[what, bytes] : cases) {
        TraceGenerator victim(img);
        sim::CheckpointReader r(bytes);
        EXPECT_THROW(victim.checkpoint(r), sim::CheckpointError) << what;
    }

    // The unspliced snapshot restores and continues the stream.
    TraceGenerator twin(img);
    sim::CheckpointReader r(snap);
    ASSERT_NO_THROW(twin.checkpoint(r));
    for (int i = 0; i < 1000; ++i) {
        Instr x, y;
        ASSERT_TRUE(gen.next(x));
        ASSERT_TRUE(twin.next(y));
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.memAddr, y.memAddr);
    }
}

} // namespace
} // namespace drisim
