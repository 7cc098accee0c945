/**
 * @file
 * Quickstart: simulate one benchmark with a conventional 64K L1
 * i-cache and with a DRI i-cache, and print the energy story.
 *
 *   ./quickstart [benchmark] [instructions] [key=value ...]
 *
 * The command line goes through config/options with every
 * simulator knob (geometry, every DRI knob, the l2.* multi-level
 * keys; a bad one prints the generated list). With `l2.dri=1` the
 * DRI leg resizes the L2 as well and the report switches to the
 * per-level hierarchy accounting.
 *
 * With `policy=decay|drowsy|ways` the adaptive leg swaps the DRI
 * i-cache for the chosen leakage policy (policy/leakage_policy.hh)
 * and the report switches to the policy accounting with its
 * state-preserving/state-destroying leakage split:
 *
 *   ./quickstart compress policy=drowsy policy.drowsy.interval=50000
 *
 * With `cores=N` (N >= 2) the run becomes a multiprogrammed CMP
 * (system/cmp.hh): every core runs the positional benchmark unless
 * `coreK.bench=` says otherwise, the DRI leg gives each core a
 * private DRI L1I (opt out per core with `coreK.dri=0`, or swap
 * techniques per core with `coreK.policy=`), and `l2.dri=1`
 * additionally makes the shared L2 resizable. Example:
 *
 *   ./quickstart compress cores=2 core1.bench=li l2.dri=1
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "config/options.hh"
#include "energy/accounting.hh"
#include "harness/multilevel.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"

using namespace drisim;

namespace
{

/** The policy=decay|drowsy|ways mode: conventional vs policy L1I. */
int
runPolicyQuickstart(const Options &opts, const BenchmarkInfo &bench)
{
    // The conventional baseline always runs a fixed L2; the managed
    // leg keeps the user's l2.dri choice (run() wires a resizable
    // L2 into the core's broadcast alongside the policy).
    RunConfig convCfg = opts.run;
    const bool l2Dri = convCfg.hier.l2Dri;
    convCfg.hier.l2Dri = false;
    RunConfig policyCfg = opts.run;
    PolicyConfig pc = opts.policyConfig();
    pc.dri = driParamsForLevel(convCfg.hier.l1i, pc.dri);

    std::printf("running %s (class %d) for %llu instructions...\n",
                bench.name.c_str(), bench.benchClass,
                static_cast<unsigned long long>(
                    convCfg.maxInstrs));
    const RunOutput conv = run(bench, convCfg);
    const RunOutput managed = run(bench, policyCfg, {pc});

    const PolicyComparison cmp = comparePolicyRuns(
        PolicyEnergyConstants::paper(), conv.meas,
        toPolicyMeasurement(managed));

    std::printf("\nconventional L1 i-cache:\n");
    std::printf("  cycles            %llu (IPC %.2f)\n",
                static_cast<unsigned long long>(conv.meas.cycles),
                conv.ipc);
    std::printf("  L1I miss rate     %.3f%%\n",
                100.0 * conv.meas.missRate());

    std::printf("\n%s policy (%s):\n", policyKindName(pc.kind),
                pc.paramSummary().c_str());
    std::printf("  cycles            %llu (slowdown %.2f%%)\n",
                static_cast<unsigned long long>(
                    managed.meas.cycles),
                cmp.slowdownPercent());
    std::printf("  L1I miss rate     %.3f%%\n",
                100.0 * managed.meas.missRate());
    std::printf("  avg full-power    %.1f%%, drowsy %.1f%%, gated "
                "%.1f%%\n",
                100.0 * cmp.averageActiveFraction(),
                100.0 * cmp.averageDrowsyFraction(),
                100.0 * std::max(0.0,
                                 1.0 - cmp.averageActiveFraction() -
                                     cmp.averageDrowsyFraction()));
    std::printf("  wake transitions  %llu (%llu stall cycles)\n",
                static_cast<unsigned long long>(
                    managed.wakeTransitions),
                static_cast<unsigned long long>(
                    managed.wakeStallCycles));
    if (l2Dri)
        std::printf("  L2 avg active     %.1f%% of %lluK "
                    "(%llu resizes; policy accounting below "
                    "covers the L1I)\n",
                    100.0 * managed.l2AvgActiveFraction,
                    static_cast<unsigned long long>(
                        managed.l2SizeBytes / 1024),
                    static_cast<unsigned long long>(
                        managed.l2Resizes));
    if (managed.policyBlocksLost > 0)
        std::printf("  blocks destroyed  %llu (state-destroying "
                    "gating)\n",
                    static_cast<unsigned long long>(
                        managed.policyBlocksLost));

    std::printf("\nenergy (nJ; state-preserving vs "
                "state-destroying split):\n");
    for (const auto &[label, nj] : cmp.policy.rows())
        std::printf("  %-11s %14.1f\n", label.c_str(), nj);
    std::printf("  relative energy-delay %.3f (%.1f%% reduction)\n",
                cmp.relativeEnergyDelay(),
                100.0 * (1.0 - cmp.relativeEnergyDelay()));
    return 0;
}

/** The cores=N mode: conventional vs DRI multiprogrammed CMP. */
int
runCmpQuickstart(const Options &opts)
{
    const bool l2Dri = opts.run.hier.l2Dri;

    // 1. Conventional CMP baseline: every L1I fixed, fixed L2.
    RunConfig convCfg = opts.run;
    convCfg.hier.l2Dri = false;
    const CmpConfig convCmp = opts.cmpConfig(false);
    const std::vector<std::string> names =
        cmpBenchNames(convCmp, opts.benchmark);
    std::printf("running %u-core mix", convCmp.cores);
    for (const std::string &n : names)
        std::printf(" %s", n.c_str());
    std::printf(" for %llu instructions per core...\n",
                static_cast<unsigned long long>(
                    convCfg.maxInstrs));
    const CmpRunOutput conv =
        runCmp(convCfg, convCmp, opts.benchmark);

    // 2. The DRI CMP: private DRI L1Is (per-core knobs from
    //    coreK.dri.*), shared L2 resizable iff l2.dri=1.
    RunConfig driCfg = opts.run;
    driCfg.hier.l2Dri = l2Dri;
    const CmpConfig driCmp = opts.cmpConfig(true);
    const CmpRunOutput adaptive =
        runCmp(driCfg, driCmp, opts.benchmark);

    // 3. Compare with the per-level CMP accounting.
    const CmpComparison cmp = compareCmp(
        MultiLevelConstants::paper(), toCmpMeasurement(conv),
        toCmpMeasurement(adaptive));

    std::printf("\nper core (conventional -> DRI):\n");
    for (std::size_t k = 0; k < adaptive.cores.size(); ++k) {
        const CmpCoreOutput &cc = conv.cores[k];
        const CmpCoreOutput &dc = adaptive.cores[k];
        std::printf("  core %zu %-9s IPC %.2f -> %.2f, L1I miss "
                    "%.3f%% -> %.3f%%, avg size %.1f%%, "
                    "%llu resizes",
                    k, dc.bench.c_str(), cc.ipc, dc.ipc,
                    100.0 * cc.meas.missRate(),
                    100.0 * dc.meas.missRate(),
                    100.0 * dc.meas.avgActiveFraction,
                    static_cast<unsigned long long>(dc.resizes));
        if (dc.wakeTransitions > 0)
            std::printf(", drowsy %.1f%%, %llu wakes",
                        100.0 * dc.l1DrowsyFraction,
                        static_cast<unsigned long long>(
                            dc.wakeTransitions));
        std::printf("\n");
    }
    std::printf("\nshared L2: miss rate %.3f%% -> %.3f%%, "
                "contention events %llu -> %llu",
                100.0 * conv.l2MissRate, 100.0 * adaptive.l2MissRate,
                static_cast<unsigned long long>(
                    conv.l2ContentionEvents),
                static_cast<unsigned long long>(
                    adaptive.l2ContentionEvents));
    if (l2Dri)
        std::printf(", avg active %.1f%% (%llu resizes)",
                    100.0 * adaptive.l2AvgActiveFraction,
                    static_cast<unsigned long long>(
                        adaptive.l2Resizes));
    std::printf("\nsystem time: %llu -> %llu cycles "
                "(slowdown %.2f%%)\n",
                static_cast<unsigned long long>(conv.systemCycles),
                static_cast<unsigned long long>(
                    adaptive.systemCycles),
                cmp.slowdownPercent());

    std::printf("\nsystem energy (per level, nJ; rows sum to the "
                "total):\n");
    for (const LevelEnergy &l : cmp.dri.levels)
        std::printf("  %-9s leakage %12.1f  dynamic %10.1f\n",
                    l.level.c_str(), l.leakageNJ, l.dynamicNJ);
    std::printf("  %-9s leakage %12.1f  dynamic %10.1f\n", "system",
                cmp.dri.totalLeakageNJ(),
                cmp.dri.totalDynamicNJ());
    std::printf("  relative system energy-delay %.3f "
                "(%.1f%% reduction)\n",
                cmp.relativeEnergyDelay(),
                100.0 * (1.0 - cmp.relativeEnergyDelay()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The quickstart defaults; the command line goes on top.
    Options opts;
    opts.run.maxInstrs = 2000000;
    opts.dri.sizeBoundBytes = 2048;
    opts.dri.senseInterval = 100000;
    opts.dri.missBound = 200;
    std::string err;
    if (!parseArgs(argc, argv, knobRows(kQuickstart), opts, err)) {
        std::fputs(err.c_str(), stderr);
        return 2;
    }
    installObsSinks(opts);
    // Writes the sinks out whichever return path the run takes.
    struct ObsFlush
    {
        ~ObsFlush() { writeObsSinks(); }
    } obsFlush;

    if (opts.cores > 1)
        return runCmpQuickstart(opts);

    const BenchmarkInfo &bench = findBenchmark(opts.benchmark);

    if (opts.policy.kind != PolicyKind::Dri)
        return runPolicyQuickstart(opts, bench);

    // 1. The Table 1 system with conventional caches throughout.
    RunConfig cfg = opts.run;
    const bool l2Dri = cfg.hier.l2Dri;
    cfg.hier.l2Dri = false;
    std::printf("running %s (class %d) for %llu instructions...\n",
                bench.name.c_str(), bench.benchClass,
                static_cast<unsigned long long>(cfg.maxInstrs));
    const RunOutput conv = run(bench, cfg);

    // 2. The same system with a DRI i-cache (and, with l2.dri=1, a
    //    DRI L2): downsize whenever an interval sees fewer than
    //    missBound misses; never shrink below the size-bound.
    const DriParams &dri = opts.dri;
    RunConfig driCfg = cfg;
    driCfg.hier.l2Dri = l2Dri;
    const RunOutput adaptive = run(bench, driCfg, {dri});

    // 3. Compare using the paper's energy model (Section 5.2).
    const ComparisonResult cmp = compareRuns(
        EnergyConstants::paper(), conv.meas, adaptive.meas);

    std::printf("\nconventional 64K i-cache:\n");
    std::printf("  cycles            %llu (IPC %.2f)\n",
                static_cast<unsigned long long>(conv.meas.cycles),
                conv.ipc);
    std::printf("  L1I miss rate     %.3f%%\n",
                100.0 * conv.meas.missRate());

    std::printf("\nDRI i-cache (miss-bound %llu / %llu-instr "
                "interval, size-bound %llu B):\n",
                static_cast<unsigned long long>(dri.missBound),
                static_cast<unsigned long long>(dri.senseInterval),
                static_cast<unsigned long long>(dri.sizeBoundBytes));
    std::printf("  cycles            %llu (slowdown %.2f%%)\n",
                static_cast<unsigned long long>(
                    adaptive.meas.cycles),
                cmp.slowdownPercent());
    std::printf("  L1I miss rate     %.3f%%\n",
                100.0 * adaptive.meas.missRate());
    std::printf("  avg active size   %.1f%% of 64K (%llu resizes)\n",
                100.0 * cmp.averageSizeFraction(),
                static_cast<unsigned long long>(adaptive.resizes));
    if (l2Dri)
        std::printf("  L2 avg active     %.1f%% of %lluK "
                    "(%llu resizes)\n",
                    100.0 * adaptive.l2AvgActiveFraction,
                    static_cast<unsigned long long>(
                        adaptive.l2SizeBytes / 1024),
                    static_cast<unsigned long long>(
                        adaptive.l2Resizes));

    std::printf("\nenergy (normalized to the conventional cache):\n");
    std::printf("  relative energy-delay   %.3f\n",
                cmp.relativeEnergyDelay());
    std::printf("    leakage component     %.3f\n",
                cmp.relativeEdLeakage());
    std::printf("    extra dynamic         %.3f\n",
                cmp.relativeEdDynamic());
    std::printf("  => leakage energy-delay reduced by %.1f%%\n",
                100.0 * (1.0 - cmp.relativeEnergyDelay()));

    if (l2Dri) {
        // Per-level hierarchy accounting (the multi-level study).
        const MultiLevelComparison ml = compareMultiLevel(
            MultiLevelConstants::paper(),
            toMultiLevelMeasurement(conv),
            toMultiLevelMeasurement(adaptive));
        std::printf("\nhierarchy energy (per level, nJ; rows sum to "
                    "the total):\n");
        for (const LevelEnergy &l : ml.dri.levels)
            std::printf("  %-9s leakage %12.1f  dynamic %10.1f\n",
                        l.level.c_str(), l.leakageNJ, l.dynamicNJ);
        std::printf("  %-9s leakage %12.1f  dynamic %10.1f\n",
                    "hierarchy", ml.dri.totalLeakageNJ(),
                    ml.dri.totalDynamicNJ());
        std::printf("  relative hierarchy energy-delay %.3f "
                    "(%.1f%% reduction)\n",
                    ml.relativeEnergyDelay(),
                    100.0 * (1.0 - ml.relativeEnergyDelay()));
    }
    return 0;
}
