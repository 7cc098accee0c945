/**
 * @file
 * Record-once fetch replay (workload/fetch_replay.hh), checked over
 * every suite benchmark: the replay reproduces the generator's fetch
 * path, SimpleCore over the replay matches SimpleCore over the live
 * generator bit for bit (conventional and DRI L1Is, several fetch
 * block sizes, after every call of a chunked run and across a split
 * inside a recorded run), and fast runs give the same results
 * whether the calibration carries a recording or not. The cursor's
 * checkpoint round-trip is covered directly.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/dri_icache.hh"
#include "cpu/simple_core.hh"
#include "harness/runner.hh"
#include "mem/hierarchy.hh"
#include "sim/checkpoint.hh"
#include "stats/stats.hh"
#include "workload/fetch_replay.hh"
#include "workload/generator.hh"
#include "workload/spec_suite.hh"

#include "same_run.hh"

namespace drisim
{
namespace
{

constexpr InstCount kInstrs = 200 * 1000;

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** What SimpleCore leaves behind after one run. */
struct CoreOutcome
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    Cycles missStall = 0;
    Cycles cycles = 0;
    std::uint64_t resizes = 0;
    std::uint64_t activeFractionBits = 0;
};

/** SimpleCore on the Table 1 hierarchy, with a conventional L1I
 *  (@p dri null) or a DRI L1I, driven one run() call at a time. */
class SimpleCoreRig
{
  public:
    SimpleCoreRig(unsigned blockBytes, const DriParams *dri)
        : root_("t"), hier_(hierarchyParams(blockBytes), &root_,
                            dri == nullptr)
    {
        if (dri) {
            icache_ =
                std::make_unique<DriICache>(*dri, &hier_.l2(), &root_);
            hier_.setL1I(icache_.get());
        }
        SimpleCoreParams scp;
        scp.baseCpi = 0.7;
        scp.fetchBlockBytes = blockBytes;
        core_ = std::make_unique<SimpleCore>(scp, hier_.l1i());
        core_->addRetireSink(icache_.get());
    }

    /** Run up to @p instrs further instructions of @p stream. */
    CoreOutcome run(InstrStream &stream, InstCount instrs)
    {
        const CoreStats cs = core_->run(stream, instrs);
        CoreOutcome o;
        o.cycles = cs.cycles;
        o.missStall = core_->missStallCycles();
        if (icache_) {
            o.accesses = icache_->accesses();
            o.misses = icache_->misses();
            o.resizes = icache_->upsizes() + icache_->downsizes();
            o.activeFractionBits =
                bitsOf(icache_->averageActiveFraction());
        } else {
            o.accesses = hier_.convL1i()->accesses();
            o.misses = hier_.convL1i()->misses();
        }
        return o;
    }

    /** Serialize or restore the core, the memory system and the L1I
     *  (the stream is the caller's). */
    void checkpoint(sim::StateIO io)
    {
        core_->checkpoint(io);
        hier_.checkpoint(io);
        if (icache_)
            icache_->checkpoint(io);
    }

  private:
    static HierarchyParams hierarchyParams(unsigned blockBytes)
    {
        HierarchyParams hp;
        hp.l1i.blockBytes = blockBytes;
        return hp;
    }

    stats::StatGroup root_;
    Hierarchy hier_;
    std::unique_ptr<DriICache> icache_;
    std::unique_ptr<SimpleCore> core_;
};

void
expectSameCore(const CoreOutcome &live, const CoreOutcome &replayed)
{
    EXPECT_EQ(live.accesses, replayed.accesses);
    EXPECT_EQ(live.misses, replayed.misses);
    EXPECT_EQ(live.missStall, replayed.missStall);
    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.resizes, replayed.resizes);
    EXPECT_EQ(live.activeFractionBits, replayed.activeFractionBits);
}

/** A calibration's recording slot, already holding a recording of
 *  @p img's first @p instrs instructions. */
std::shared_ptr<RecordingSlot>
slotHolding(const ProgramImage &img, InstCount instrs)
{
    return std::make_shared<RecordingSlot>(
        std::make_shared<const FetchRecording>(img, instrs));
}

class EveryBenchmark : public ::testing::TestWithParam<std::string>
{
  protected:
    const BenchmarkInfo &bench() const
    {
        return findBenchmark(GetParam());
    }
    const ProgramImage &image() const
    {
        return programImageFor(bench());
    }
};

TEST_P(EveryBenchmark, ReplayReproducesTheFetchPath)
{
    const FetchRecording rec(image(), kInstrs);
    EXPECT_EQ(rec.instructions(), kInstrs);
    EXPECT_TRUE(rec.covers(image(), kInstrs));
    EXPECT_FALSE(rec.covers(image(), kInstrs + 1));
    // Straight-line runs pack to a few bytes each.
    EXPECT_GT(rec.runs(), 0u);
    EXPECT_LT(rec.bytes(), 4 * rec.runs());

    TraceGenerator gen(image());
    FetchReplay replay(rec);
    Instr live;
    Instr replayed;
    for (InstCount i = 0; i < kInstrs; ++i) {
        ASSERT_TRUE(gen.next(live));
        ASSERT_TRUE(replay.next(replayed));
        ASSERT_EQ(replayed.pc, live.pc) << "instruction " << i;
        ASSERT_EQ(isControl(replayed.op) && replayed.taken,
                  isControl(live.op) && live.taken)
            << "instruction " << i;
    }
    EXPECT_FALSE(replay.next(replayed)); // exactly N recorded
    EXPECT_EQ(replay.produced(), kInstrs);
}

TEST_P(EveryBenchmark, SimpleCoreMatchesLiveGeneration)
{
    const FetchRecording rec(image(), kInstrs);
    for (const unsigned block : {16u, 32u, 64u}) {
        SCOPED_TRACE("fetchBlockBytes=" + std::to_string(block));
        {
            TraceGenerator gen(image());
            FetchReplay replay(rec);
            expectSameCore(
                SimpleCoreRig(block, nullptr).run(gen, kInstrs),
                SimpleCoreRig(block, nullptr).run(replay, kInstrs));
        }
        // Grid cells from tight to loose, with enough sense
        // intervals in 200 K instructions to resize.
        const std::pair<std::uint64_t, std::uint64_t> cells[] = {
            {1024, 20}, {4096, 100}, {16384, 400}};
        for (const auto &[sizeBound, missBound] : cells) {
            SCOPED_TRACE("sizeBound=" + std::to_string(sizeBound));
            DriParams dri;
            dri.blockBytes = block;
            dri.sizeBoundBytes = sizeBound;
            dri.missBound = missBound;
            dri.senseInterval = 10 * 1000;
            TraceGenerator gen(image());
            FetchReplay replay(rec);
            expectSameCore(
                SimpleCoreRig(block, &dri).run(gen, kInstrs),
                SimpleCoreRig(block, &dri).run(replay, kInstrs));
        }
    }
}

/** A DRI cell with a tight size bound and a low miss bound, so the
 *  cache resizes within a 200 K-instruction run. */
DriParams
resizingCell(unsigned blockBytes)
{
    DriParams dri;
    dri.blockBytes = blockBytes;
    dri.sizeBoundBytes = 1024;
    dri.missBound = 100;
    dri.senseInterval = 10 * 1000;
    return dri;
}

/** The two L1Is of a rig: conventional (null), then @p dri. */
std::array<const DriParams *, 2>
l1iFor(const DriParams &dri)
{
    return {nullptr, &dri};
}

TEST_P(EveryBenchmark, SpansMatchLiveGenerationUnderAnyChunking)
{
    // The replay hands SimpleCore whole recorded runs, the live
    // generator one instruction at a time. Budgets that cut runs
    // short and end on and beside the 64-instruction retire batch,
    // then the rest of the run: after every call both cores must
    // have reached the same state.
    const FetchRecording rec(image(), kInstrs);
    for (const unsigned block : {16u, 32u, 64u}) {
        const DriParams cell = resizingCell(block);
        for (const DriParams *dri : l1iFor(cell)) {
            SCOPED_TRACE("fetchBlockBytes=" + std::to_string(block) +
                         (dri ? " dri" : " conventional"));
            TraceGenerator gen(image());
            FetchReplay replay(rec);
            SimpleCoreRig live(block, dri);
            SimpleCoreRig replayed(block, dri);
            InstCount done = 0;
            CoreOutcome last;
            const auto chunk = [&](InstCount n) {
                SCOPED_TRACE("run(" + std::to_string(n) + ") after " +
                             std::to_string(done));
                last = live.run(gen, n);
                expectSameCore(last, replayed.run(replay, n));
                done += n;
                EXPECT_EQ(gen.produced(), done);
                EXPECT_EQ(replay.produced(), done);
            };
            for (const InstCount n : {1, 7, 63, 64, 65, 1000})
                chunk(n);
            chunk(kInstrs - done);
            if (dri) {
                EXPECT_GT(last.resizes, 0u);
            }
        }
    }
}

TEST_P(EveryBenchmark, ReplayedRunSplitsInsideARecordedRun)
{
    // A fast run split through a checkpoint where the budget cut a
    // recorded run short: the restored cursor resumes inside that
    // run, and the continued run matches the uninterrupted one. The
    // split is a multiple of the retire batch, as SimpleCore's
    // checkpoint requires.
    const FetchRecording rec(image(), kInstrs);
    InstCount split = 0;
    {
        // The recorder ends a run only at a taken control
        // instruction or a jump in PC.
        FetchReplay walk(rec);
        Instr prev;
        Instr in;
        for (InstCount i = 0; walk.next(in); ++i, prev = in) {
            if (i >= kInstrs / 2 && i % 64 == 0 && !prev.taken &&
                in.pc == prev.pc + kInstrBytes) {
                split = i;
                break;
            }
        }
    }
    ASSERT_GT(split, 0u) << "no 64-aligned split inside a recorded run";

    const DriParams cell = resizingCell(32);
    for (const DriParams *dri : l1iFor(cell)) {
        SCOPED_TRACE(dri ? "dri" : "conventional");
        FetchReplay whole(rec);
        const CoreOutcome want =
            SimpleCoreRig(32, dri).run(whole, kInstrs);

        SimpleCoreRig first(32, dri);
        FetchReplay cursor(rec);
        first.run(cursor, split);
        sim::CheckpointWriter w;
        first.checkpoint(w);
        cursor.checkpoint(w);

        SimpleCoreRig second(32, dri);
        FetchReplay resumed(rec);
        sim::CheckpointReader r(w.bytes());
        second.checkpoint(r);
        resumed.checkpoint(r);
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(resumed.produced(), split);
        expectSameCore(want, second.run(resumed, kInstrs - split));
        EXPECT_EQ(resumed.produced(), kInstrs);
    }
}

TEST_P(EveryBenchmark, FastEntryPointsIgnoreTheRecordingsSource)
{
    RunConfig cfg;
    cfg.maxInstrs = kInstrs;
    cfg.hier.l1i.assoc = 4; // selective-ways needs ways to gate
    FastCalibration bare;
    bare.baseCpi = 0.8;
    FastCalibration recorded = bare;
    recorded.recording = slotHolding(image(), kInstrs);

    {
        SCOPED_TRACE("conv-fast");
        expectSameRun(run(bench(), cfg, {ConventionalL1i{}, &bare}),
                      run(bench(), cfg, {ConventionalL1i{}, &recorded}));
    }
    DriParams dri;
    dri.assoc = 4;
    dri.senseInterval = 10 * 1000;
    dri.sizeBoundBytes = 2048;
    dri.missBound = 50;
    {
        SCOPED_TRACE("dri-fast");
        expectSameRun(run(bench(), cfg, {dri, &bare}),
                      run(bench(), cfg, {dri, &recorded}));
    }
    for (const PolicyKind kind :
         {PolicyKind::Dri, PolicyKind::Decay, PolicyKind::Drowsy,
          PolicyKind::StaticWays}) {
        SCOPED_TRACE(static_cast<int>(kind));
        PolicyConfig pol;
        pol.kind = kind;
        pol.dri = dri;
        pol.decay.decayInterval = 10 * 1000;
        pol.drowsy.drowsyInterval = 10 * 1000;
        pol.ways.activeWays = 2;
        expectSameRun(run(bench(), cfg, {pol, &bare}),
                      run(bench(), cfg, {pol, &recorded}));
    }
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const auto &b : specSuite())
        names.push_back(b.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryBenchmark, ::testing::ValuesIn(suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(FetchReplay, RecordingThatCannotServeTheRunIsNotUsed)
{
    // A recording of another image, or one too short for the run,
    // must not be replayed: the run records its own stream.
    const BenchmarkInfo &b = findBenchmark("li");
    RunConfig cfg;
    cfg.maxInstrs = kInstrs;
    FastCalibration bare;
    bare.baseCpi = 0.8;
    DriParams dri;
    dri.senseInterval = 10 * 1000;
    const RunOutput want = run(b, cfg, {dri, &bare});

    FastCalibration shorter = bare;
    shorter.recording = slotHolding(programImageFor(b), kInstrs / 2);
    expectSameRun(want, run(b, cfg, {dri, &shorter}));

    FastCalibration foreign = bare;
    foreign.recording =
        slotHolding(programImageFor(findBenchmark("gcc")), kInstrs);
    expectSameRun(want, run(b, cfg, {dri, &foreign}));
}

TEST(FetchReplay, CursorRoundTripsThroughACheckpoint)
{
    const ProgramImage &img = programImageFor(findBenchmark("perl"));
    const FetchRecording rec(img, 20 * 1000);
    std::vector<Instr> path;
    {
        FetchReplay all(rec);
        Instr in;
        while (all.next(in))
            path.push_back(in);
    }
    ASSERT_EQ(path.size(), rec.instructions());

    // Every offset of a stretch spanning several runs, plus both
    // ends: the restored cursor continues the path exactly.
    std::vector<InstCount> positions = {0, rec.instructions()};
    for (InstCount p = 9000; p < 9100; ++p)
        positions.push_back(p);
    for (const InstCount p : positions) {
        FetchReplay a(rec);
        Instr in;
        for (InstCount i = 0; i < p; ++i)
            ASSERT_TRUE(a.next(in));
        sim::CheckpointWriter w;
        a.checkpoint(w);

        FetchReplay b(rec);
        sim::CheckpointReader r(w.bytes());
        b.checkpoint(r);
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(b.produced(), p);
        for (InstCount i = p; i < rec.instructions(); ++i) {
            ASSERT_TRUE(b.next(in)) << p;
            ASSERT_EQ(in.pc, path[i].pc) << p << "@" << i;
            ASSERT_EQ(in.taken, path[i].taken) << p << "@" << i;
        }
        EXPECT_FALSE(b.next(in));
    }
}

TEST(FetchReplay, RestorePastTheRecordingThrows)
{
    const ProgramImage &img = programImageFor(findBenchmark("li"));
    const FetchRecording rec(img, 1000);
    sim::CheckpointWriter w;
    w.beginSection("replay");
    w.putU64(1001);
    w.endSection();
    FetchReplay replay(rec);
    sim::CheckpointReader r(w.bytes());
    EXPECT_THROW(replay.checkpoint(r), sim::CheckpointError);
    EXPECT_EQ(replay.produced(), 0u);
}

} // namespace
} // namespace drisim
