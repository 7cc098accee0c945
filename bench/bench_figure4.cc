/**
 * @file
 * Figure 4 — "Impact of varying the miss-bound": each benchmark's
 * base performance-constrained configuration re-run with the
 * miss-bound halved and doubled (0.5x / 1x / 2x), reporting the
 * normalized energy-delay and slowdown. The paper's claim: the
 * scheme is robust — most energy-delay products barely move over a
 * 4x miss-bound range.
 */

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hh"

using namespace drisim;
using namespace drisim::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    if (const int rc = startBench(argc, argv, kShortBench, ctx); rc >= 0)
        return rc;

    printHeader("Figure 4: impact of varying the miss-bound",
                "Section 5.4.1, Figure 4");
    std::cout << workerBanner(ctx) << "\n";

    const std::vector<std::string> cols{
        "benchmark", "ED 0.5x", "ED 1x (base)", "ED 2x",
        "slow 0.5x", "slow 1x",  "slow 2x",     "max ED spread"};
    Table t(cols);
    // JSON rows additionally carry the unit's canonical config hash
    // (runKey + the sweep tag), the farm's shard/merge
    // join key.
    std::vector<std::string> jsonCols = cols;
    jsonCols.push_back("config_hash");
    SweepDriver drv(ctx, "bench_figure4", "figure4", jsonCols);

    // --short keeps compress+li, the same filter the sweep registry
    // applies, so unit indices keep matching the plan.
    std::vector<BenchmarkInfo> suite;
    for (const auto &b : specSuite()) {
        if (ctx.opts.shortRun && b.name != "compress" && b.name != "li")
            continue;
        suite.push_back(b);
    }
    // Index-addressed per-unit slots; units run concurrently.
    std::vector<std::vector<std::string>> rows(suite.size());
    std::vector<double> spreads(suite.size(), 0.0);
    const auto computeUnit = [&](std::size_t i) -> UnitRows {
        const auto &b = suite[i];
        const BaseResult base = computeBase(b, ctx);
        const DriParams &bp = base.constrained.dri;

        // The 0.5x and 2x re-runs are independent detailed
        // simulations; batch them through the executor.
        std::vector<DriParams> variants;
        for (const double f : {0.5, 2.0}) {
            DriParams p = bp;
            p.missBound = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       f * static_cast<double>(bp.missBound)));
            variants.push_back(p);
        }
        const std::vector<ComparisonResult> batch =
            evaluateDetailedBatch(b, ctx.opts.run, variants,
                                  ctx.constants, base.conv,
                                  &benchExecutor(ctx));

        double ed[3];
        double slow[3];
        const ComparisonResult *cmps[3] = {
            &batch[0], &base.constrained.cmp, &batch[1]};
        for (int k = 0; k < 3; ++k) {
            ed[k] = cmps[k]->relativeEnergyDelay();
            slow[k] = cmps[k]->slowdownPercent();
        }
        spreads[i] = std::max({ed[0], ed[1], ed[2]}) -
                     std::min({ed[0], ed[1], ed[2]});
        rows[i] = {b.name,
                   fmtDouble(ed[0], 3),
                   fmtDouble(ed[1], 3),
                   fmtDouble(ed[2], 3),
                   fmtDouble(slow[0], 1) + "%",
                   fmtDouble(slow[1], 1) + "%",
                   fmtDouble(slow[2], 1) + "%",
                   fmtDouble(spreads[i], 3)};
        std::vector<std::string> row = rows[i];
        row.push_back(drv.unit(i).hashHex);
        std::cerr << "  [figure4] " + b.name + " done\n";
        return {std::move(row)};
    };

    // Cross-unit pass in plan order: identical stdout at any --jobs.
    double worst_spread = 0.0;
    std::string worst_name;
    for (const std::size_t i : drv.run(computeUnit)) {
        t.addRow(rows[i]);
        if (spreads[i] > worst_spread) {
            worst_spread = spreads[i];
            worst_name = suite[i].name;
        }
    }
    t.print(std::cout);
    std::cout << "\nlargest energy-delay spread over the 4x "
                 "miss-bound range: "
              << fmtDouble(worst_spread, 3) << " (" << worst_name
              << ")\n";
    std::cout << "paper: most benchmarks move little; gcc, go, "
                 "perl, tomcatv downsize more at high miss-bounds "
                 "at 5-8% slowdown\n";
    drv.finish();
    reportFastSim(ctx);
    return 0;
}
