/**
 * @file
 * Section 5.6 — "Varying sense-interval length and divisibility",
 * plus a throttle on/off ablation (docs/DESIGN.md, Throttling).
 *
 * Paper claims: energy-delay varies by < 1% across a 16x interval
 * range for all but go (< 5%); divisibility 4 or 8 coarsens
 * resizing and hurts.
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"

using namespace drisim;
using namespace drisim::bench;

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    if (const int rc = startBench(argc, argv, kSweepBench, ctx); rc >= 0)
        return rc;

    printHeader("Section 5.6: sense interval, divisibility, throttle",
                "Section 5.6 (text)");
    std::cout << workerBanner(ctx) << "\n";

    // Paper sweeps 250K..4M around a 1M base (scaled here 4x down
    // around the 100K base, same 16x dynamic range).
    const InstCount intervals[] = {25000, 50000, 100000, 200000,
                                   400000};
    Table ti({"benchmark", "ED 0.25x", "ED 0.5x", "ED 1x", "ED 2x",
              "ED 4x", "max dev"});
    Table td({"benchmark", "ED div2 (base)", "ED div4", "ED div8"});
    Table tt({"benchmark", "ED throttled (base)", "ED no-throttle",
              "resizes base", "resizes no-throttle"});

    // JSON rows: the interval sweep's cells plus the unit's
    // canonical config hash (runKey + the sweep tag),
    // the farm's shard/merge join key.
    const std::vector<std::string> jsonCols{
        "benchmark", "ED 0.25x", "ED 0.5x", "ED 1x",
        "ED 2x",     "ED 4x",    "max dev", "config_hash"};
    SweepDriver drv(ctx, "bench_section56", "section56", jsonCols);

    const auto &suite = specSuite();
    // Index-addressed per-unit slots (one row per table plus the
    // interval sweep's deviation); units run concurrently.
    struct UnitResult
    {
        std::vector<std::string> interval, divisibility, throttle;
        double dev = 0.0;
    };
    std::vector<UnitResult> results(suite.size());
    const auto computeUnit = [&](std::size_t i) -> UnitRows {
        const auto &b = suite[i];
        const BaseResult base = computeBase(b, ctx);
        const DriParams &bp = base.constrained.dri;
        UnitResult &r = results[i];

        // --- interval sweep + divisibility ----------------------
        // All off-base variants of both ablations are independent
        // detailed runs; batch them through one executor pass.
        double base_ed = base.constrained.cmp.relativeEnergyDelay();
        std::vector<DriParams> variants;
        std::vector<const ComparisonResult *> ivCmp;
        for (InstCount iv : intervals) {
            if (iv == bp.senseInterval) {
                ivCmp.push_back(&base.constrained.cmp);
                continue;
            }
            DriParams p = bp;
            p.senseInterval = iv;
            // Miss-bound is per interval: scale it with the length.
            p.missBound = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       std::llround(static_cast<double>(bp.missBound) *
                                    static_cast<double>(iv) /
                                    static_cast<double>(
                                        bp.senseInterval))));
            variants.push_back(p);
            ivCmp.push_back(nullptr); // filled from the batch below
        }
        const std::size_t divFirst = variants.size();
        for (unsigned div : {4u, 8u}) {
            DriParams p = bp;
            p.divisibility = div;
            variants.push_back(p);
        }
        const std::vector<ComparisonResult> batch =
            evaluateDetailedBatch(b, ctx.opts.run, variants,
                                  ctx.constants, base.conv,
                                  &benchExecutor(ctx));

        r.interval = {b.name};
        std::size_t next = 0;
        for (const ComparisonResult *&slot : ivCmp) {
            if (!slot)
                slot = &batch[next++];
            r.interval.push_back(
                fmtDouble(slot->relativeEnergyDelay(), 3));
            r.dev = std::max(r.dev,
                             std::abs(slot->relativeEnergyDelay() -
                                      base_ed));
        }
        r.interval.push_back(fmtDouble(r.dev, 3));

        r.divisibility = {b.name, fmtDouble(base_ed, 3)};
        for (std::size_t k = divFirst; k < variants.size(); ++k)
            r.divisibility.push_back(
                fmtDouble(batch[k].relativeEnergyDelay(), 3));

        // --- throttle ablation ----------------------------------
        DriParams p = bp;
        p.throttleHoldIntervals = 0; // trigger becomes a no-op
        RunOutput no_thr;
        RunOutput with_thr;
        benchExecutor(ctx).forEachIndex(
            b.name + "/throttle", 2,
            [&](std::size_t k, const JobContext &) {
                if (k == 0)
                    no_thr = run(b, ctx.opts.run, {p});
                else
                    with_thr = run(b, ctx.opts.run, {bp});
            });
        const ComparisonResult c = compareRuns(
            ctx.constants, base.conv.meas, no_thr.meas);
        r.throttle = {b.name, fmtDouble(base_ed, 3),
                      fmtDouble(c.relativeEnergyDelay(), 3),
                      std::to_string(with_thr.resizes),
                      std::to_string(no_thr.resizes)};

        std::vector<std::string> jsonRow = r.interval;
        jsonRow.push_back(drv.unit(i).hashHex);
        std::cerr << "  [section56] " + b.name + " done\n";
        return {std::move(jsonRow)};
    };

    // Cross-unit pass in plan order: identical stdout at any --jobs.
    double worst_dev = 0.0;
    std::string worst_name;
    for (const std::size_t i : drv.run(computeUnit)) {
        const UnitResult &r = results[i];
        ti.addRow(r.interval);
        td.addRow(r.divisibility);
        tt.addRow(r.throttle);
        if (r.dev > worst_dev) {
            worst_dev = r.dev;
            worst_name = suite[i].name;
        }
    }

    std::cout << "\n-- sense-interval sweep (miss-bound scaled "
                 "proportionally) --\n";
    ti.print(std::cout);
    std::cout << "largest deviation: " << fmtDouble(worst_dev, 3)
              << " (" << worst_name
              << "); paper: <0.01 for all but go (<0.05)\n";

    std::cout << "\n-- divisibility --\n";
    td.print(std::cout);
    std::cout << "paper: divisibility 4/8 'prohibitively increases "
                 "the resizing granularity'\n";

    std::cout << "\n-- throttle ablation (not plotted in the paper; "
                 "docs/DESIGN.md, Throttling) --\n";
    tt.print(std::cout);
    drv.finish();
    reportFastSim(ctx);
    return 0;
}
