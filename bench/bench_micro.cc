/**
 * @file
 * Simulator micro-benchmarks (google-benchmark): raw throughput of
 * the hot paths — cache access, DRI access + resize, trace
 * generation, branch prediction, and whole-core simulation. Not a
 * paper figure; guards against performance regressions in drisim
 * itself.
 */

#include <benchmark/benchmark.h>

#include "core/dri_icache.hh"
#include "cpu/branch_pred.hh"
#include "cpu/ooo_core.hh"
#include "cpu/simple_core.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "workload/fetch_replay.hh"
#include "workload/generator.hh"
#include "workload/spec_suite.hh"

namespace
{

using namespace drisim;

void
BM_CacheHit(benchmark::State &state)
{
    stats::StatGroup root("b");
    Cache c(CacheParams{"c", 64 * 1024, 1, 32, 1, ReplPolicy::LRU},
            nullptr, &root);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(addr & 0xFFFF, AccessType::InstFetch));
        addr += 32;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit);

void
BM_CacheMissSweep(benchmark::State &state)
{
    stats::StatGroup root("b");
    Cache c(CacheParams{"c", 64 * 1024, 1, 32, 1, ReplPolicy::LRU},
            nullptr, &root);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(addr, AccessType::InstFetch));
        addr += 32; // endless sweep: all capacity misses
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissSweep);

void
BM_DriAccess(benchmark::State &state)
{
    stats::StatGroup root("b");
    DriParams p;
    DriICache c(p, nullptr, &root);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(addr & 0xFFFF, AccessType::InstFetch));
        addr += 32;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DriAccess);

void
BM_DriResizeCycle(benchmark::State &state)
{
    // Cost of a full interval boundary + resize (the rare path).
    stats::StatGroup root("b");
    DriParams p;
    p.senseInterval = 1;
    p.missBound = 1;
    DriICache c(p, nullptr, &root);
    bool up = false;
    for (auto _ : state) {
        // Alternate pressure to force a resize each interval.
        if (up)
            for (Addr a = 0; a < 64 * 64; a += 32)
                c.access(a, AccessType::InstFetch);
        benchmark::DoNotOptimize(c.retireInstructions(1));
        up = !up;
    }
}
BENCHMARK(BM_DriResizeCycle);

/**
 * Capacity evictions from a full sparse directory of range(0)
 * entries: each iteration fills a new block (evicting the LRU
 * entry) and touches it, as CoherenceController::fill() does, then
 * touches a pseudo-random older block so the LRU order is not just
 * allocation order. The cost per eviction must not grow with the
 * table (CI compares 4096 entries against 256).
 */
void
BM_DirectoryEvict(benchmark::State &state)
{
    const auto entries = static_cast<std::uint64_t>(state.range(0));
    SparseDirectory dir(entries);
    SparseDirectory::Entry victim;
    Addr next = 0;
    for (; next < entries; ++next)
        dir.touch(dir.allocate(next, &victim));
    std::uint64_t lcg = 1;
    for (auto _ : state) {
        dir.touch(dir.allocate(next++, &victim));
        benchmark::DoNotOptimize(victim);
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        if (SparseDirectory::Entry *e =
                dir.find(next - 1 - (lcg >> 33) % entries))
            dir.touch(*e);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryEvict)->Arg(256)->Arg(4096);

void
BM_BranchPredict(benchmark::State &state)
{
    stats::StatGroup root("b");
    BranchPredictor bp(BranchPredParams{}, &root);
    Addr pc = 0x1000;
    bool taken = false;
    for (auto _ : state) {
        auto pred = bp.predict(pc, OpClass::Branch);
        benchmark::DoNotOptimize(pred);
        bp.update(pc, OpClass::Branch, taken, pc + 64);
        pc = 0x1000 + ((pc + 4) & 0xFFF);
        taken = !taken;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredict);

void
BM_TraceGeneration(benchmark::State &state)
{
    const ProgramImage &img = [] {
        static ProgramImage i =
            buildProgram(findBenchmark("compress").spec);
        return i;
    }();
    TraceGenerator gen(img);
    Instr instr;
    for (auto _ : state) {
        gen.next(instr);
        benchmark::DoNotOptimize(instr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_FastModelMIPS(benchmark::State &state)
{
    stats::StatGroup root("b");
    Hierarchy hier(HierarchyParams{}, &root, true);
    static ProgramImage img =
        buildProgram(findBenchmark("li").spec);
    for (auto _ : state) {
        state.PauseTiming();
        TraceGenerator gen(img);
        SimpleCore core(SimpleCoreParams{}, hier.l1i());
        state.ResumeTiming();
        core.run(gen, 200000);
    }
    state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_FastModelMIPS)->Unit(benchmark::kMillisecond);

/** BM_FastModelMIPS over a recorded stream, as the parameter search
 *  runs it (the recording is made once, outside the timed region). */
void
BM_FastModelReplayMIPS(benchmark::State &state)
{
    stats::StatGroup root("b");
    Hierarchy hier(HierarchyParams{}, &root, true);
    static ProgramImage img =
        buildProgram(findBenchmark("li").spec);
    const FetchRecording rec(img, 200000);
    for (auto _ : state) {
        state.PauseTiming();
        FetchReplay replay(rec);
        SimpleCore core(SimpleCoreParams{}, hier.l1i());
        state.ResumeTiming();
        benchmark::DoNotOptimize(core.run(replay, 200000));
    }
    state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_FastModelReplayMIPS)->Unit(benchmark::kMillisecond);

void
BM_DetailedCoreMIPS(benchmark::State &state)
{
    static ProgramImage img =
        buildProgram(findBenchmark("li").spec);
    for (auto _ : state) {
        state.PauseTiming();
        stats::StatGroup root("b");
        Hierarchy hier(HierarchyParams{}, &root, true);
        OooCore core(OooParams{}, hier.l1i(), &hier.l1d(), &root);
        TraceGenerator gen(img);
        state.ResumeTiming();
        core.run(gen, 100000);
    }
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_DetailedCoreMIPS)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
