/**
 * @file
 * Figure 6 — "Varying conventional cache parameters": the DRI
 * i-cache evaluated as (A) 64K 4-way, (B) 64K direct-mapped and
 * (C) 128K direct-mapped, each normalized against a conventional
 * i-cache of the same geometry. Miss-bound and size-bound come from
 * the 64K direct-mapped constrained base; the 128K cache uses one
 * extra resizing tag bit so its size-bound matches (Section 5.5).
 */

#include <iostream>

#include "bench_common.hh"

using namespace drisim;
using namespace drisim::bench;

namespace
{

struct GeometryCase
{
    const char *label;
    std::uint64_t sizeBytes;
    unsigned assoc;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    if (const int rc = startBench(argc, argv, kSweepBench, ctx); rc >= 0)
        return rc;

    printHeader("Figure 6: varying conventional cache parameters",
                "Section 5.5, Figure 6");
    std::cout << "A = 64K 4-way, B = 64K direct-mapped (base), "
                 "C = 128K direct-mapped; each vs a conventional "
                 "cache of equal geometry\n"
              << workerBanner(ctx) << "\n\n";
    const GeometryCase cases[] = {
        {"A 64K/4w", 64 * 1024, 4},
        {"B 64K/dm", 64 * 1024, 1},
        {"C 128K/dm", 128 * 1024, 1},
    };

    const std::vector<std::string> cols{
        "benchmark", "ED A",   "ED B",   "ED C",   "size A",
        "size B",    "size C", "slow A", "slow B", "slow C"};
    Table t(cols);
    // JSON rows additionally carry the unit's canonical config hash
    // (runKey + the sweep tag), the farm's shard/merge
    // join key.
    std::vector<std::string> jsonCols = cols;
    jsonCols.push_back("config_hash");
    SweepDriver drv(ctx, "bench_figure6", "figure6", jsonCols);

    const auto &suite = specSuite();
    // Index-addressed per-unit slots; units run concurrently.
    std::vector<std::vector<std::string>> rows(suite.size());
    const auto computeUnit = [&](std::size_t i) -> UnitRows {
        const auto &b = suite[i];
        // The base 64K direct-mapped search supplies the bounds.
        const BaseResult base = computeBase(b, ctx);
        const DriParams &bp = base.constrained.dri;

        // Cases A and C each need their own conventional baseline
        // plus a DRI re-run — four detailed simulations. Run both
        // cases as executor jobs; case B reuses the base result.
        ComparisonResult offBase[2];
        benchExecutor(ctx).forEachIndex(
            b.name + "/geometry", 2,
            [&](std::size_t k, const JobContext &) {
                const GeometryCase &g = cases[k == 0 ? 0 : 2];

                RunConfig cfg = ctx.opts.run;
                cfg.hier.l1i.sizeBytes = g.sizeBytes;
                cfg.hier.l1i.assoc = g.assoc;

                DriParams p = bp;
                p.sizeBytes = g.sizeBytes;
                p.assoc = g.assoc;
                // Keep the size-bound's absolute magnitude; the
                // 128K cache just gains one resizing bit (Section
                // 5.5). A 4-way set needs at least one full set.
                if (p.sizeBoundBytes <
                    static_cast<std::uint64_t>(p.blockBytes) *
                        p.assoc)
                    p.sizeBoundBytes =
                        static_cast<std::uint64_t>(p.blockBytes) *
                        p.assoc;

                const RunOutput conv = run(b, cfg);
                offBase[k] = evaluateDetailed(b, cfg, p,
                                              ctx.constants, conv);
            });

        std::string ed[3];
        std::string size[3];
        std::string slow[3];
        const ComparisonResult *cmps[3] = {
            &offBase[0], &base.constrained.cmp, &offBase[1]};
        for (int k = 0; k < 3; ++k) {
            ed[k] = fmtDouble(cmps[k]->relativeEnergyDelay(), 3);
            size[k] = fmtDouble(cmps[k]->averageSizeFraction(), 3);
            slow[k] = fmtDouble(cmps[k]->slowdownPercent(), 1) + "%";
        }
        rows[i] = {b.name,  ed[0],   ed[1],   ed[2],   size[0],
                   size[1], size[2], slow[0], slow[1], slow[2]};
        std::vector<std::string> row = rows[i];
        row.push_back(drv.unit(i).hashHex);
        std::cerr << "  [figure6] " + b.name + " done\n";
        return {std::move(row)};
    };
    for (const std::size_t i : drv.run(computeUnit))
        t.addRow(rows[i]);
    t.print(std::cout);
    std::cout
        << "\npaper: capacity-bound codes (applu, apsi, compress, "
           "fpppp, ijpeg, li, mgrid) match across A and B; "
           "conflict-prone codes (gcc, go, hydro2d, su2cor, swim, "
           "tomcatv) downsize further at 4 ways; the 128K cache "
           "gives a smaller *fraction* (bigger standby share) where "
           "the working set still fits\n";
    drv.finish();
    reportFastSim(ctx);
    return 0;
}
