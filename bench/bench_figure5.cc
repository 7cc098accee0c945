/**
 * @file
 * Figure 5 — "Impact of varying the size-bound": each benchmark's
 * base performance-constrained configuration re-run with the
 * size-bound doubled and halved (2x / 1x / 0.5x). Doubling wastes
 * leakage for class 1; halving thrashes class 2 (fpppp's 2x row is
 * "not applicable" because its base size-bound is already 64K).
 */

#include <iostream>

#include "bench_common.hh"
#include "util/str.hh"

using namespace drisim;
using namespace drisim::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    if (const int rc = startBench(argc, argv, kSweepBench, ctx); rc >= 0)
        return rc;

    printHeader("Figure 5: impact of varying the size-bound",
                "Section 5.4.2, Figure 5");
    std::cout << workerBanner(ctx) << "\n";

    const std::vector<std::string> cols{
        "benchmark", "base sb", "ED 2x",   "ED 1x (base)",
        "ED 0.5x",   "slow 2x", "slow 1x", "slow 0.5x"};
    Table t(cols);
    SweepDriver drv(ctx, "bench_figure5", "figure5", cols);

    const auto &suite = specSuite();
    // Index-addressed per-unit slots; units run concurrently.
    std::vector<std::vector<std::string>> rows(suite.size());
    const auto computeUnit = [&](std::size_t i) -> UnitRows {
        const auto &b = suite[i];
        const SearchResult base = computeBase(b, ctx);
        const DriParams &bp = base.best.dri;

        // Collect the applicable off-base size-bounds, batch the
        // detailed re-runs through the executor (each served from the
        // winner's run when its decisions match), then map back.
        std::string ed[3];
        std::string slow[3];
        const double factors[3] = {2.0, 1.0, 0.5};
        std::vector<DriParams> variants;
        std::vector<int> variantSlot;
        for (int k = 0; k < 3; ++k) {
            std::uint64_t sb = static_cast<std::uint64_t>(
                factors[k] *
                static_cast<double>(bp.sizeBoundBytes));
            if (!bp.sizeBoundFits(sb)) {
                ed[k] = "N/A";
                slow[k] = "N/A";
                continue;
            }
            if (k == 1)
                continue; // base result already in hand
            DriParams p = bp;
            p.sizeBoundBytes = sb;
            variants.push_back(p);
            variantSlot.push_back(k);
        }
        const std::vector<SearchCandidate> batch =
            evaluateDetailedBatch(b, ctx.opts.run, variants,
                                  ctx.constants, base.convDetailed,
                                  &benchExecutor(ctx), &base.best);
        ed[1] = fmtDouble(base.best.cmp.relativeEnergyDelay(), 3);
        slow[1] = fmtDouble(base.best.cmp.slowdownPercent(), 1) + "%";
        for (std::size_t k = 0; k < batch.size(); ++k) {
            ed[variantSlot[k]] =
                fmtDouble(batch[k].cmp.relativeEnergyDelay(), 3);
            slow[variantSlot[k]] =
                fmtDouble(batch[k].cmp.slowdownPercent(), 1) + "%";
        }
        rows[i] = {b.name, bytesToString(bp.sizeBoundBytes),
                   ed[0],  ed[1],
                   ed[2],  slow[0],
                   slow[1], slow[2]};
        std::vector<std::string> row = rows[i];
        row.push_back(drv.unit(i).hashHex);
        std::cerr << "  [figure5] " + b.name + " done\n";
        return {std::move(row)};
    };
    for (const std::size_t i : drv.run(computeUnit))
        t.addRow(rows[i]);
    t.print(std::cout);
    std::cout << "\npaper: class 1 pays for a doubled size-bound "
                 "(leakage) and for a halved one (extra L2 "
                 "traffic); class 2 thrashes when pushed below its "
                 "working set; fpppp's 2x case is not applicable\n";
    drv.finish();
    reportFastSim(ctx);
    return 0;
}
