/**
 * @file
 * Multi-level DRI study — the scenario the paper defers: gated-Vdd
 * resizing applied to the L2 as well as the L1 i-cache, evaluated
 * with per-level leakage/dynamic accounting and a hierarchy-total
 * figure of merit (after Bai et al., "Power-Performance Trade-Offs
 * in Nanometer-Scale Multi-Level Caches Considering Total Leakage";
 * see docs/REPRODUCTION.md, Multi-level study).
 *
 * For every benchmark the (L1 size-bound x L2 size-bound) grid is
 * searched under the paper's 4% slowdown constraint, every cell on
 * the detailed core — the fast model carries no d-cache traffic,
 * so L2 behaviour is wrong there (see harness/multilevel.hh) — and
 * the winner's energy is reported split by level; the per-level
 * rows sum to the printed hierarchy total by construction (locked
 * by tests).
 */

#include <iostream>

#include "bench_common.hh"
#include "harness/multilevel.hh"
#include "util/str.hh"

using namespace drisim;
using namespace drisim::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    if (const int rc = startBench(argc, argv, kSweepBench, ctx); rc >= 0)
        return rc;

    printHeader("Multi-level DRI: per-level leakage accounting",
                "extension of Section 5 after Bai et al. "
                "(PAPERS.md)");
    std::cout << "grid: (L1 size-bound x L2 size-bound), <=4% "
                 "slowdown, hierarchy energy-delay objective\n\n";
    std::cout << "run length: " << ctx.opts.run.maxInstrs
              << " instructions, sense interval "
              << ctx.opts.dri.senseInterval << ", "
              << workerBanner(ctx) << "\n";

    const MultiLevelConstants constants = MultiLevelConstants::paper();
    const MultiLevelSpace space;
    DriParams l2Template = HierarchyParams::defaultL2DriParams();
    l2Template.senseInterval = ctx.opts.dri.senseInterval;

    const std::vector<std::string> cols{
        "benchmark", "L1-bound", "L1-mb",   "L2-bound", "L2-mb",
        "rel-ED",    "L1-size",  "L2-size", "slowdown"};
    Table summary(cols);
    // JSON rows additionally carry the winner's canonical config
    // hash (harness/runner.hh runKey of its DRI L1I over the
    // multi-level run config), joinable with the --result-cache
    // sidecar.
    std::vector<std::string> jsonCols = cols;
    jsonCols.push_back("config_hash");
    SweepDriver drv(ctx, "bench_multilevel", "multilevel", jsonCols);

    const auto &suite = specSuite();
    // Index-addressed per-unit slots; units run concurrently.
    std::vector<MultiLevelCandidate> best(suite.size());
    const auto computeUnit = [&](std::size_t i) -> UnitRows {
        const auto &b = suite[i];
        const RunOutput conv = run(b, ctx.opts.run);
        const MultiLevelSearchResult sr = searchMultiLevel(
            b, ctx.opts.run, ctx.opts.dri, l2Template, space, constants,
            ctx.maxSlowdownPct, conv, &benchExecutor(ctx));
        best[i] = sr.best;
        std::vector<std::string> row =
            multiLevelRowCells(b.name, sr.best);
        RunConfig ml = ctx.opts.run;
        ml.hier.l2Dri = true;
        ml.hier.l2DriParams = sr.best.l2;
        row.push_back(runKey(b, ml, {sr.best.l1}).hashHex());
        std::cerr << "  [multilevel] " + b.name + " done\n";
        return {std::move(row)};
    };

    // Cross-unit pass in plan order: identical stdout at any --jobs.
    const std::vector<std::size_t> ran = drv.run(computeUnit);
    double sum_ed = 0.0;
    double sum_l1_size = 0.0;
    double sum_l2_size = 0.0;
    for (const std::size_t i : ran) {
        summary.addRow(multiLevelRowCells(suite[i].name, best[i]));
        sum_ed += best[i].cmp.relativeEnergyDelay();
        sum_l1_size += best[i].cmp.l1AverageSizeFraction();
        sum_l2_size += best[i].cmp.l2AverageSizeFraction();
    }

    std::cout << "\n-- best configurations (<=4% slowdown) --\n";
    summary.print(std::cout);

    std::cout << "\n-- per-level energy of each winner (nJ; rows sum "
                 "to the hierarchy total) --\n";
    for (const std::size_t i : ran) {
        std::cout << "\n" << suite[i].name << ":\n";
        Table t({"level", "leakage", "dynamic", "total"});
        addHierarchyEnergyRows(t, best[i].cmp.dri);
        t.print(std::cout);
    }

    // Means cover the units this process ran (all of them
    // unsharded; this shard's subset under --shard).
    const double n = static_cast<double>(ran.empty() ? 1 : ran.size());
    std::cout << "\n== headline ==\n";
    std::cout << "mean hierarchy energy-delay reduction: "
              << fmtReduction(sum_ed / n) << "\n";
    std::cout << "mean L1 active size: "
              << fmtDouble(sum_l1_size / n, 3)
              << ", mean L2 active size: "
              << fmtDouble(sum_l2_size / n, 3) << "\n";
    drv.finish();
    reportFastSim(ctx);
    return 0;
}
