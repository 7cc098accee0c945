/**
 * @file
 * Figure 3 — "Base energy-delay and average cache size
 * measurements": for every benchmark, the best-case DRI i-cache
 * energy-delay (normalized to the conventional i-cache), split into
 * its leakage and extra-dynamic components, plus the average active
 * cache size — for both the performance-constrained (<= 4%
 * slowdown) and performance-unconstrained design points.
 */

#include <iostream>

#include "bench_common.hh"
#include "util/str.hh"

using namespace drisim;
using namespace drisim::bench;

namespace
{

std::vector<std::string>
rowCells(const std::string &name, int cls,
         const SearchCandidate &cand)
{
    const ComparisonResult &c = cand.cmp;
    return {name, std::to_string(cls),
            bytesToString(cand.dri.sizeBoundBytes),
            std::to_string(cand.dri.missBound),
            fmtDouble(c.relativeEnergyDelay(), 3),
            fmtDouble(c.relativeEdLeakage(), 3),
            fmtDouble(c.relativeEdDynamic(), 3),
            fmtDouble(c.averageSizeFraction(), 3),
            fmtDouble(c.slowdownPercent(), 2) + "%",
            fmtPercent(c.driRun.missRate(), 2)};
}

/** @p name padded to the bar charts' 10-column label field (a
 *  longer name keeps one separating space). */
std::string
barLabel(const std::string &name)
{
    return name +
           std::string(name.size() < 10 ? 10 - name.size() : 1, ' ');
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    if (const int rc = startBench(argc, argv, kSweepBench, ctx); rc >= 0)
        return rc;

    printHeader("Figure 3: base energy-delay and average cache size",
                "Section 5.3, Figure 3 (64K direct-mapped DRI)");
    std::cout << "C = performance-constrained (<=4% slowdown), "
                 "U = unconstrained\n\n";

    std::cout << "run length: " << ctx.opts.run.maxInstrs
              << " instructions, sense interval "
              << ctx.opts.dri.senseInterval << ", "
              << workerBanner(ctx) << "\n";

    const std::vector<std::string> cols{
        "benchmark", "class",  "size-bound", "miss-bound",
        "rel-ED",    "ED-leak", "ED-dyn",    "avg-size",
        "slowdown",  "miss-rate"};
    Table tc(cols);
    Table tu = tc;
    // JSON rows additionally carry the winner's canonical config
    // hash (harness/runner.hh runKey), joinable with the
    // --result-cache sidecar and the checkpoint store.
    std::vector<std::string> jsonCols = cols;
    jsonCols.push_back("config_hash");
    SweepDriver drv(ctx, "bench_figure3", "figure3", jsonCols);

    const auto &suite = specSuite();
    // Index-addressed per-unit slots; units run concurrently.
    std::vector<BaseResult> bases(suite.size());
    const auto computeUnit = [&](std::size_t i) -> UnitRows {
        const auto &b = suite[i];
        bases[i] = computeBase(b, ctx);
        std::vector<std::string> rc =
            rowCells(b.name, b.benchClass, bases[i].constrained);
        rc.push_back(
            runKey(b, ctx.opts.run, {bases[i].constrained.dri}).hashHex());
        std::cerr << "  [figure3] " + b.name + " done\n";
        return {std::move(rc)};
    };

    // Cross-unit pass in plan order: identical stdout at any --jobs.
    double sum_ed_c = 0.0;
    double sum_ed_u = 0.0;
    double sum_size_c = 0.0;
    std::vector<std::pair<std::string, double>> bars_c;
    std::vector<std::pair<std::string, double>> bars_size;
    for (const std::size_t i : drv.run(computeUnit)) {
        const auto &b = suite[i];
        const BaseResult &base = bases[i];
        tc.addRow(rowCells(b.name, b.benchClass, base.constrained));
        tu.addRow(rowCells(b.name, b.benchClass,
                           base.unconstrained));
        sum_ed_c += base.constrained.cmp.relativeEnergyDelay();
        sum_ed_u += base.unconstrained.cmp.relativeEnergyDelay();
        sum_size_c += base.constrained.cmp.averageSizeFraction();
        bars_c.emplace_back(
            b.name, base.constrained.cmp.relativeEnergyDelay());
        bars_size.emplace_back(
            b.name, base.constrained.cmp.averageSizeFraction());
    }

    std::cout << "\n-- performance-constrained (left bars) --\n";
    tc.print(std::cout);
    std::cout << "\n-- performance-unconstrained (right bars) --\n";
    tu.print(std::cout);

    // Means cover the units this process ran (all of them
    // unsharded; this shard's subset under --shard).
    const double n = static_cast<double>(
        bars_c.empty() ? 1 : bars_c.size());
    std::cout << "\nrelative energy-delay (constrained), 0..1:\n";
    for (const auto &[name, v] : bars_c)
        std::cout << "  " << barLabel(name) << "|" << asciiBar(v)
                  << "| " << fmtDouble(v, 3) << "\n";
    std::cout << "\naverage cache size (constrained), 0..1:\n";
    for (const auto &[name, v] : bars_size)
        std::cout << "  " << barLabel(name) << "|" << asciiBar(v)
                  << "| " << fmtDouble(v, 3) << "\n";

    std::cout << "\n== headline ==\n";
    std::cout << "mean energy-delay reduction, constrained:   "
              << fmtReduction(sum_ed_c / n) << "  (paper: ~62%)\n";
    std::cout << "mean energy-delay reduction, unconstrained: "
              << fmtReduction(sum_ed_u / n) << "  (paper: ~67%)\n";
    std::cout << "mean cache size reduction, constrained:     "
              << fmtReduction(sum_size_c / n) << "  (paper: ~62%)\n";
    drv.finish();
    reportFastSim(ctx);
    return 0;
}
