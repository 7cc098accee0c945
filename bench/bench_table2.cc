/**
 * @file
 * Table 2 — "Energy, speed, and area trade-off of varying threshold
 * voltage and gated-Vdd": regenerated from the circuit substrate and
 * printed next to the paper's published values.
 */

#include <iostream>
#include <iterator>
#include <utility>

#include "bench_common.hh"
#include "circuit/area_model.hh"
#include "circuit/gated_vdd.hh"
#include "circuit/sram_cell.hh"

using namespace drisim;
using namespace drisim::circuit;

int
main(int argc, char **argv)
{
    bench::BenchContext ctx = bench::defaultContext();
    if (const int rc = bench::startBench(argc, argv, kTableBench, ctx);
        rc >= 0)
        return rc;

    bench::printHeader(
        "Table 2: threshold voltage and gated-Vdd trade-offs",
        "Section 5.1, Table 2 (0.18um, Vdd = 1.0 V, 110 C)");

    const Technology tech = Technology::scaled018();
    const SramCell high_vt(tech, tech.vtHigh);
    const SramCell low_vt(tech, tech.vtLow);
    const GatedVddConfig cfg; // the paper's preferred NMOS dual-Vt
    const GatedVdd gated(tech, low_vt, cfg);

    auto nj = [](double e) { return fmtDouble(e * 1e9, 1); };

    Table t({"row", "base high-Vt", "base low-Vt",
             "NMOS gated-Vdd", "paper (hi/lo/gated)"});
    t.addRow({"gated-Vdd Vt (V)", "n/a", "n/a",
              fmtDouble(tech.vtHigh, 2), "-/-/0.40"});
    t.addRow({"SRAM Vt (V)", fmtDouble(tech.vtHigh, 2),
              fmtDouble(tech.vtLow, 2), fmtDouble(tech.vtLow, 2),
              "0.40/0.20/0.20"});
    t.addRow({"relative read time",
              fmtDouble(high_vt.relativeReadTime(), 2),
              fmtDouble(low_vt.relativeReadTime(), 2),
              fmtDouble(gated.relativeReadTime(), 2),
              "2.22/1.00/1.08"});
    t.addRow({"active leakage energy (x1e-9 nJ/cycle)",
              nj(high_vt.activeLeakagePerCycle()),
              nj(low_vt.activeLeakagePerCycle()),
              nj(low_vt.activeLeakagePerCycle()), "50/1740/1740"});
    t.addRow({"standby leakage energy (x1e-9 nJ/cycle)", "n/a",
              "n/a", nj(gated.standbyLeakagePerCycle()),
              "-/-/53"});
    t.addRow({"energy savings (%)", "n/a", "n/a",
              fmtDouble(100.0 * gated.leakageSavingsFraction(), 1),
              "-/-/97"});
    t.addRow({"area increase (%)", "n/a", "n/a",
              fmtDouble(100.0 * gated.areaOverheadFraction(), 1),
              "-/-/5"});
    t.print(std::cout);

    std::cout << "\nGated-Vdd variants (model extension; "
                 "Section 3 discussion):\n";
    Table v({"variant", "standby (x1e-9 nJ)", "savings",
             "rel. read time", "area"});
    // Evaluated as executor jobs filling index-addressed row slots:
    // the rendered table is identical at any --jobs value.
    const std::pair<GatingKind, const char *> variants[] = {
        {GatingKind::NmosDualVt, "NMOS dual-Vt + pump"},
        {GatingKind::NmosLowVt, "NMOS low-Vt"},
        {GatingKind::PmosDualVt, "PMOS dual-Vt"}};
    v.reserveRows(std::size(variants));
    bench::benchExecutor(ctx).forEachIndex(
        "table2/variant", std::size(variants),
        [&](std::size_t i, const JobContext &) {
            const auto &[kind, name] = variants[i];
            GatedVddConfig c;
            c.kind = kind;
            const GatedVdd g(tech, low_vt, c);
            v.setRow(i, {name, nj(g.standbyLeakagePerCycle()),
                         fmtPercent(g.leakageSavingsFraction(), 1),
                         fmtDouble(g.relativeReadTime(), 2),
                         fmtPercent(g.areaOverheadFraction(), 1)});
        });
    v.print(std::cout);

    std::cout << "\nDerived Section 5.2 constants "
                 "(model vs paper):\n";
    Table c({"constant", "model", "paper"});
    const EnergyConstants derived = EnergyConstants::derived(
        tech, l1Geometry(), l2Geometry());
    c.addRow({"64K L1 leakage (nJ/cycle)",
              fmtDouble(derived.l1LeakPerCycleNJ, 3), "0.91"});
    c.addRow({"resizing bitline (nJ/access)",
              fmtDouble(derived.bitlinePerAccessNJ, 5), "0.0022"});
    c.addRow({"L2 access (nJ)", fmtDouble(derived.l2PerAccessNJ, 2),
              "3.6"});
    c.print(std::cout);
    reportFastSim(ctx);
    return 0;
}
