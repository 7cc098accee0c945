/**
 * @file
 * Parameter tuner: sweeps the (miss-bound, size-bound) grid for one
 * benchmark — the search the paper runs per benchmark in Section
 * 5.3 — and prints the full energy-delay landscape with the
 * constrained and unconstrained winners marked. The grid runs on the
 * harness executor; the landscape and winners are identical at any
 * --jobs value.
 *
 * With --l2 the tuner switches to the multi-level scenario: the
 * (L1 size-bound x L2 size-bound) grid over a hierarchy whose L2
 * resizes too, scored by hierarchy energy-delay with per-level
 * energy rows (harness/multilevel.hh).
 *
 * With --cores N the tuner switches to the multiprogrammed CMP
 * scenario (system/cmp.hh): the (per-core L1 miss-bound x shared
 * L2 size-bound) grid, scored by *system* energy-delay. The
 * benchmark positional may be a comma-separated mix assigned to
 * the cores round-robin:
 *
 *   ./param_tuner compress,li --cores 2 --jobs 4
 *
 * With --policy the tuner switches to the leakage-policy
 * head-to-head (harness/policies.hh): the (policy x parameter)
 * grid — DRI vs Decay vs Drowsy vs StaticWays on a 64K 4-way L1I —
 * with per-policy winners and the state-preserving vs
 * state-destroying energy split.
 *
 *   ./param_tuner [benchmark[,benchmark...]] [instructions]
 *                 [--jobs N] [--l2 | --cores N | --policy]
 *
 * The command line goes through config/options: the benchmark,
 * instrs, jobs and cores rows plus this binary's two mode switches.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "config/options.hh"
#include "harness/executor.hh"
#include "harness/multilevel.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "util/str.hh"

using namespace drisim;

namespace
{

/** The tuning modes, bare switches only this binary takes. */
bool tuneL2 = false;
bool tunePolicy = false;
const Knob kModeRows[] = {
    {"l2", nullptr, "tune the (L1 x L2 size-bound) grid of a DRI L2",
     Reach::None, 0,
     [](Options &, const std::string &v, unsigned) {
         return parseFlag(v, tuneL2);
     }},
    {"policy", nullptr, "tune the leakage-policy head-to-head grid",
     Reach::None, 0,
     [](Options &, const std::string &v, unsigned) {
         return parseFlag(v, tunePolicy);
     }},
};

/** The --l2 mode: multi-level grid, per-level energy rows. */
int
tuneMultiLevel(const BenchmarkInfo &bench, const RunConfig &cfg)
{
    std::printf("detailed conventional baseline for %s "
                "(%u workers)...\n",
                bench.name.c_str(), resolveJobCount(cfg.jobs));
    const RunOutput conv = run(bench, cfg);
    std::printf("  %llu cycles, L1I miss rate %.3f%%, L2 miss rate "
                "%.3f%%\n\n",
                static_cast<unsigned long long>(conv.meas.cycles),
                100.0 * conv.meas.missRate(),
                100.0 * conv.l2MissRate);

    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 100000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 100000;

    const MultiLevelConstants constants =
        MultiLevelConstants::paper();
    const MultiLevelSpace space;
    const MultiLevelSearchResult sr =
        searchMultiLevel(bench, cfg, l1Tmpl, l2Tmpl, space, constants,
                         4.0, conv);

    Table t({"L1-bound", "L1-mb", "L2-bound", "L2-mb", "rel-ED",
             "L1-size", "L2-size", "slowdown", "<=4%?"});
    for (const MultiLevelCandidate &cand : sr.evaluated) {
        t.addRow({bytesToString(cand.l1.sizeBoundBytes),
                  std::to_string(cand.l1.missBound),
                  bytesToString(cand.l2.sizeBoundBytes),
                  std::to_string(cand.l2.missBound),
                  fmtDouble(cand.cmp.relativeEnergyDelay(), 3),
                  fmtDouble(cand.cmp.l1AverageSizeFraction(), 3),
                  fmtDouble(cand.cmp.l2AverageSizeFraction(), 3),
                  fmtDouble(cand.cmp.slowdownPercent(), 2) + "%",
                  cand.feasible ? "yes" : "NO"});
    }
    std::printf("detailed landscape (%zu configurations):\n",
                sr.evaluated.size());
    t.print(std::cout);

    const MultiLevelCandidate &best = sr.best;
    std::printf("\nbest configuration (lowest feasible hierarchy "
                "energy-delay):\n");
    std::printf("  L1 bound %s / miss-bound %llu, L2 bound %s / "
                "miss-bound %llu\n",
                bytesToString(best.l1.sizeBoundBytes).c_str(),
                static_cast<unsigned long long>(best.l1.missBound),
                bytesToString(best.l2.sizeBoundBytes).c_str(),
                static_cast<unsigned long long>(best.l2.missBound));
    std::printf("  hierarchy energy-delay %.3f (%.1f%% reduction), "
                "slowdown %.2f%%\n\n",
                best.cmp.relativeEnergyDelay(),
                100.0 * (1 - best.cmp.relativeEnergyDelay()),
                best.cmp.slowdownPercent());

    std::printf("per-level energy (nJ; rows sum to the hierarchy "
                "total):\n");
    Table e({"level", "leakage", "dynamic", "total"});
    addHierarchyEnergyRows(e, best.cmp.dri);
    e.print(std::cout);
    return 0;
}

/** The --policy mode: policy x parameter head-to-head grid. */
int
tunePolicies(const BenchmarkInfo &bench, RunConfig cfg)
{
    // Selective-ways needs associativity to gate; give every
    // policy the same 64K 4-way geometry (head-to-head fairness).
    cfg.hier.l1i.assoc = 4;

    std::printf("detailed conventional baseline for %s "
                "(64K 4-way L1I, %u workers)...\n",
                bench.name.c_str(), resolveJobCount(cfg.jobs));
    const RunOutput conv = run(bench, cfg);
    std::printf("  %llu cycles, L1I miss rate %.3f%%\n\n",
                static_cast<unsigned long long>(conv.meas.cycles),
                100.0 * conv.meas.missRate());

    PolicyConfig tmpl;
    tmpl.dri.senseInterval = 100000;
    const PolicySpace space;
    const PolicySearchResult sr = searchPolicies(
        bench, cfg, tmpl, space, PolicyEnergyConstants::paper(),
        4.0, conv);

    Table t({"policy", "params", "rel-ED", "active", "drowsy",
             "wakes", "slowdown", "<=4%?"});
    for (const PolicyCandidate &cand : sr.evaluated) {
        std::vector<std::string> cells =
            policyRowCells(bench.name, cand);
        cells.erase(cells.begin()); // drop the benchmark column
        cells.push_back(cand.feasible ? "yes" : "NO");
        t.addRow(cells);
    }
    std::printf("detailed landscape (%zu configurations):\n",
                sr.evaluated.size());
    t.print(std::cout);

    std::printf("\nper-policy winners (lowest feasible "
                "energy-delay):\n");
    for (const PolicyCandidate &best : sr.bestPerKind) {
        if (best.cmp.run.meas.cycles == 0)
            continue; // kind had no cells in this grid
        std::printf("  %-6s %-24s rel-ED %.3f (%.1f%% reduction), "
                    "slowdown %.2f%%%s\n",
                    policyKindName(best.config.kind),
                    best.config.paramSummary().c_str(),
                    best.cmp.relativeEnergyDelay(),
                    100.0 * (1 - best.cmp.relativeEnergyDelay()),
                    best.cmp.slowdownPercent(),
                    best.feasible ? "" : " (infeasible)");
        std::printf("        energy rows (nJ):");
        for (const auto &[label, nj] : best.cmp.policy.rows())
            std::printf(" %s=%.1f", label.c_str(), nj);
        std::printf("\n");
    }
    return 0;
}

/** The --cores mode: CMP grid, system energy-delay objective. */
int
tuneCmp(const std::vector<std::string> &benches, unsigned cores,
        const RunConfig &cfg)
{
    CmpConfig cmp;
    cmp.cores = cores;
    for (unsigned k = 0; k < cores; ++k) {
        CmpCoreConfig core;
        core.bench = benches[k % benches.size()];
        cmp.coreConfigs.push_back(std::move(core));
    }
    const std::vector<std::string> names =
        cmpBenchNames(cmp, benches[0]);
    const std::string mix = cmpMixName(names);

    std::printf("detailed conventional CMP baseline for %s "
                "(%u workers)...\n",
                mix.c_str(), resolveJobCount(cfg.jobs));
    const CmpRunOutput conv = runCmp(cfg, cmp, benches[0]);
    for (std::size_t k = 0; k < conv.cores.size(); ++k)
        std::printf("  core %zu %-9s %llu cycles, L1I miss rate "
                    "%.3f%%, L2 share %llu accesses\n",
                    k, conv.cores[k].bench.c_str(),
                    static_cast<unsigned long long>(
                        conv.cores[k].meas.cycles),
                    100.0 * conv.cores[k].meas.missRate(),
                    static_cast<unsigned long long>(
                        conv.cores[k].l2Accesses));
    std::printf("  system: %llu cycles, L2 miss rate %.3f%%, "
                "%llu contention events\n\n",
                static_cast<unsigned long long>(conv.systemCycles),
                100.0 * conv.l2MissRate,
                static_cast<unsigned long long>(
                    conv.l2ContentionEvents));

    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 100000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 100000;

    const MultiLevelConstants constants =
        MultiLevelConstants::paper();
    const CmpSpace space;
    const CmpSearchResult sr =
        searchCmp(cfg, cmp, benches[0], l1Tmpl, l2Tmpl, space,
                  constants, 4.0, conv);
    if (sr.sharedFactorSweep)
        std::printf("note: per-core factor cross product exceeded "
                    "the cell cap; all cores swept one shared "
                    "miss-bound factor\n");

    Table t({"L1-mb", "L2-bound", "L2-mb", "rel-ED", "L1-sizes",
             "L2-size", "slowdown", "<=4%?"});
    for (const CmpCandidate &cand : sr.evaluated) {
        std::vector<std::string> cells = cmpRowCells(mix, cand);
        cells.erase(cells.begin()); // drop the mix column
        cells.push_back(cand.feasible ? "yes" : "NO");
        t.addRow(cells);
    }
    std::printf("detailed CMP landscape (%zu configurations):\n",
                sr.evaluated.size());
    t.print(std::cout);

    const CmpCandidate &best = sr.best;
    std::printf("\nbest configuration (lowest feasible system "
                "energy-delay):\n  L1 miss-bounds");
    for (const DriParams &p : best.l1)
        std::printf(" %llu",
                    static_cast<unsigned long long>(p.missBound));
    std::printf(", L2 bound %s / miss-bound %llu\n",
                bytesToString(best.l2.sizeBoundBytes).c_str(),
                static_cast<unsigned long long>(best.l2.missBound));
    std::printf("  system energy-delay %.3f (%.1f%% reduction), "
                "slowdown %.2f%%\n\n",
                best.cmp.relativeEnergyDelay(),
                100.0 * (1 - best.cmp.relativeEnergyDelay()),
                best.cmp.slowdownPercent());

    std::printf("per-level energy (nJ; rows sum to the system "
                "total):\n");
    Table e({"level", "leakage", "dynamic", "total"});
    addHierarchyEnergyRows(e, best.cmp.dri);
    e.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.benchmark = "ijpeg";
    opts.run.maxInstrs = 3000000;
    opts.cores = 0; // the single-core tuners unless --cores N
    std::string err;
    if (!parseArgs(argc, argv, knobRows(kParamTuner, kModeRows), opts,
                   err)) {
        std::fputs(err.c_str(), stderr);
        return 2;
    }
    const std::string &name = opts.benchmark;
    const RunConfig &cfg = opts.run;

    if (opts.cores > 0) {
        // The positional may be a comma-separated mix; validate
        // every name up front.
        std::vector<std::string> benches = strSplit(name, ',');
        for (const std::string &b : benches)
            findBenchmark(b);
        return tuneCmp(benches, opts.cores, cfg);
    }

    const BenchmarkInfo &bench = findBenchmark(
        name.find(',') == std::string::npos
            ? name
            : strSplit(name, ',')[0]);

    if (tuneL2)
        return tuneMultiLevel(bench, cfg);

    if (tunePolicy)
        return tunePolicies(bench, cfg);

    std::printf("detailed conventional baseline for %s "
                "(%u workers)...\n",
                bench.name.c_str(), resolveJobCount(cfg.jobs));
    const RunOutput conv = run(bench, cfg);
    std::printf("  %llu cycles, miss rate %.3f%%\n\n",
                static_cast<unsigned long long>(conv.meas.cycles),
                100.0 * conv.meas.missRate());

    SearchSpace space; // default 7 size-bounds x 4 miss factors
    DriParams tmpl;
    tmpl.senseInterval = 100000;

    const EnergyConstants constants = EnergyConstants::paper();
    const SearchResult constrained = searchBestEnergyDelay(
        bench, cfg, tmpl, space, constants, 4.0, conv);

    // Rows are filled by slot index, the same aggregation scheme
    // the executor uses for the search itself.
    Table t({"size-bound", "miss-bound", "rel-ED", "avg size",
             "slowdown", "<=4%?"});
    t.reserveRows(constrained.evaluated.size());
    for (std::size_t i = 0; i < constrained.evaluated.size(); ++i) {
        const SearchCandidate &cand = constrained.evaluated[i];
        t.setRow(i, {bytesToString(cand.dri.sizeBoundBytes),
                     std::to_string(cand.dri.missBound),
                     fmtDouble(cand.cmp.relativeEnergyDelay(), 3),
                     fmtDouble(cand.cmp.averageSizeFraction(), 3),
                     fmtDouble(cand.cmp.slowdownPercent(), 2) + "%",
                     cand.feasible ? "yes" : "NO"});
    }
    std::printf("fast-model landscape (%zu configurations):\n",
                constrained.evaluated.size());
    t.print(std::cout);

    const auto &best = constrained.best;
    std::printf("\nbest constrained configuration "
                "(re-run on the detailed core):\n");
    std::printf("  size-bound %s, miss-bound %llu\n",
                bytesToString(best.dri.sizeBoundBytes).c_str(),
                static_cast<unsigned long long>(best.dri.missBound));
    std::printf("  relative energy-delay %.3f (%.1f%% reduction), "
                "slowdown %.2f%%, avg size %.3f\n",
                best.cmp.relativeEnergyDelay(),
                100.0 * (1 - best.cmp.relativeEnergyDelay()),
                best.cmp.slowdownPercent(),
                best.cmp.averageSizeFraction());

    const SearchResult unconstrained = searchBestEnergyDelay(
        bench, cfg, tmpl, space, constants, -1.0, conv);
    const auto &ubest = unconstrained.best;
    std::printf("\nbest unconstrained configuration:\n");
    std::printf("  size-bound %s, miss-bound %llu\n",
                bytesToString(ubest.dri.sizeBoundBytes).c_str(),
                static_cast<unsigned long long>(
                    ubest.dri.missBound));
    std::printf("  relative energy-delay %.3f, slowdown %.2f%%\n",
                ubest.cmp.relativeEnergyDelay(),
                ubest.cmp.slowdownPercent());
    return 0;
}
