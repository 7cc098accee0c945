/**
 * @file
 * Leakage-policy head-to-head — the study the paper's related-work
 * section sketches and Bai et al. motivate (docs/REPRODUCTION.md,
 * Policy comparison study): DRI resizing vs Cache Decay vs Drowsy
 * vs static Selective-Ways on the same workloads, same geometry,
 * same energy accounting.
 *
 * The L1 i-cache runs 64 KB 4-way here (not the paper's
 * direct-mapped Table 1 base): selective-ways gating needs
 * associativity to have anything to gate, and a shared geometry is
 * what makes the comparison head-to-head. For every benchmark the
 * (policy x parameter) grid is searched under the paper's 4%
 * slowdown constraint (harness/policies.hh) and each policy's
 * winner is reported with its state-preserving/state-destroying
 * leakage split.
 *
 *   ./bench_policies [--jobs N] [--short] [--json PATH] [--list]
 *
 * --short restricts to compress+li (the CI smoke); --json writes
 * the winner rows + wall-clock machine-readably.
 */

#include <iostream>
#include <map>

#include "bench_common.hh"
#include "harness/policies.hh"
#include "util/str.hh"

using namespace drisim;
using namespace drisim::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    if (const int rc = startBench(argc, argv, kShortBench, ctx); rc >= 0)
        return rc;

    // Shared head-to-head geometry: 64 KB / 4-way / 32 B.
    ctx.opts.run.hier.l1i.assoc = 4;

    printHeader("Leakage-policy head-to-head: DRI vs Decay vs "
                "Drowsy vs StaticWays",
                "design-space study after the paper's related work "
                "and Bai et al. (PAPERS.md)");
    std::cout << "L1I: 64K 4-way; <=4% slowdown; policy "
                 "energy-delay objective\n";
    std::cout << "run length: " << ctx.opts.run.maxInstrs
              << " instructions, sense interval "
              << ctx.opts.dri.senseInterval << ", "
              << workerBanner(ctx) << "\n";

    const PolicyEnergyConstants constants =
        PolicyEnergyConstants::paper();
    const PolicySpace space;
    PolicyConfig tmpl;
    tmpl.dri = ctx.opts.dri;

    const std::vector<std::string> cols{
        "benchmark", "policy", "params",  "rel-ED",
        "active",    "drowsy", "wakes",   "slowdown"};
    Table summary(cols);
    // JSON rows additionally carry the winner's canonical config
    // hash (harness/runner.hh runKey), joinable with the
    // --result-cache sidecar and the checkpoint store.
    std::vector<std::string> jsonCols = cols;
    jsonCols.push_back("config_hash");
    SweepDriver drv(ctx, "bench_policies", "policies", jsonCols);

    std::vector<BenchmarkInfo> benches;
    for (const auto &b : specSuite()) {
        if (ctx.opts.shortRun && b.name != "compress" && b.name != "li")
            continue;
        benches.push_back(b);
    }

    // Index-addressed per-unit slots; units run concurrently.
    struct UnitResult
    {
        std::vector<std::vector<std::string>> rows;
        /** (policy, rel-ED) of each feasible winner, in kind order. */
        std::vector<std::pair<std::string, double>> feasible;
        std::string winner; ///< empty when no policy was feasible
    };
    std::vector<UnitResult> results(benches.size());
    const auto computeUnit = [&](std::size_t i) -> UnitRows {
        const auto &b = benches[i];
        const RunOutput conv = run(b, ctx.opts.run);
        const PolicySearchResult sr = searchPolicies(
            b, ctx.opts.run, tmpl, space, constants, ctx.maxSlowdownPct,
            conv, &benchExecutor(ctx));

        UnitResult &r = results[i];
        UnitRows unitRows;
        double best_ed = 0.0;
        for (const PolicyCandidate &cand : sr.bestPerKind) {
            if (cand.cmp.run.meas.cycles == 0)
                continue; // kind had no cells in this grid
            std::vector<std::string> row =
                policyRowCells(b.name, cand);
            if (!cand.feasible)
                row.back() += " (infeasible)";
            r.rows.push_back(row);
            row.push_back(runKey(b, ctx.opts.run, {cand.config}).hashHex());
            unitRows.push_back(std::move(row));
            const double ed = cand.cmp.relativeEnergyDelay();
            const char *name = policyKindName(cand.config.kind);
            if (cand.feasible) {
                r.feasible.emplace_back(name, ed);
                if (r.winner.empty() || ed < best_ed) {
                    best_ed = ed;
                    r.winner = name;
                }
            }
        }
        std::cerr << "  [policies] " + b.name + " done (" +
                         (r.winner.empty() ? "none" : r.winner) +
                         " wins)\n";
        return unitRows;
    };

    // Cross-unit pass in plan order: identical stdout at any --jobs.
    std::map<std::string, unsigned> wins;
    // Means are over *feasible* winners only, matching the <=4%
    // banner (an infeasible fallback's ED is not achievable under
    // the constraint).
    std::map<std::string, double> edSums;
    std::map<std::string, unsigned> edCounts;
    for (const std::size_t i : drv.run(computeUnit)) {
        const UnitResult &r = results[i];
        for (const std::vector<std::string> &row : r.rows)
            summary.addRow(row);
        for (const auto &[name, ed] : r.feasible) {
            edSums[name] += ed;
            ++edCounts[name];
        }
        if (!r.winner.empty())
            ++wins[r.winner];
    }

    std::cout << "\n-- per-policy winners (<=4% slowdown) --\n";
    summary.print(std::cout);

    std::cout << "\n== headline (feasible winners only) ==\n";
    for (const auto &[policy, sum] : edSums)
        std::cout << "  " << policy
                  << ": mean energy-delay reduction "
                  << fmtReduction(
                         sum / static_cast<double>(
                                   edCounts[policy]))
                  << " over " << edCounts[policy] << " workloads, "
                  << "wins " << wins[policy] << "/"
                  << benches.size() << "\n";

    drv.finish();
    reportFastSim(ctx);
    return 0;
}
