/**
 * @file
 * The per-level energy ledger and the paired comparison.
 */

#include "energy/ledger.hh"

#include "circuit/drowsy_cell.hh"
#include "circuit/gated_vdd.hh"
#include "circuit/hierarchy_energy.hh"

namespace drisim
{

namespace
{

/** num / denom, or 0 when the baseline's energy-delay is not
 *  positive. */
double
ratioOrZero(double num, double denom)
{
    return denom <= 0.0 ? 0.0 : num / denom;
}

/** Leakage per cycle of @p bytes at @p tier (scales linearly with
 *  the array; memory has no leakage row). */
double
leakPerCycleNJ(const EnergyConstants &c, LevelInput::Tier tier,
               std::uint64_t bytes)
{
    switch (tier) {
      case LevelInput::Tier::L1:
        return c.l1LeakPerCycleNJ * static_cast<double>(bytes) /
               static_cast<double>(c.l1BaseBytes);
      case LevelInput::Tier::L2:
        return c.l2LeakPerCycleNJ * static_cast<double>(bytes) /
               static_cast<double>(c.l2BaseBytes);
      case LevelInput::Tier::Mem:
        break;
    }
    return 0.0;
}

double
bitlineNJ(const EnergyConstants &c, LevelInput::Tier tier)
{
    return tier == LevelInput::Tier::L1   ? c.l1BitlinePerAccessNJ
           : tier == LevelInput::Tier::L2 ? c.l2BitlinePerAccessNJ
                                          : 0.0;
}

/** Energy of one access arriving at @p tier (nothing sits above
 *  an L1). */
double
receivedNJ(const EnergyConstants &c, LevelInput::Tier tier)
{
    return tier == LevelInput::Tier::L2    ? c.l2PerAccessNJ
           : tier == LevelInput::Tier::Mem ? c.memPerAccessNJ
                                           : 0.0;
}

} // namespace

EnergyConstants
EnergyConstants::derived(const circuit::LevelCircuit &l1,
                         const circuit::LevelCircuit &l2)
{
    const circuit::LevelEnergyFigures f1 = circuit::levelFigures(l1);
    const circuit::LevelEnergyFigures f2 = circuit::levelFigures(l2);
    EnergyConstants c;
    c.l1LeakPerCycleNJ = f1.leakPerCycleNJ;
    c.l1BaseBytes = l1.geom.sizeBytes;
    c.l1BitlinePerAccessNJ = f1.bitlineEnergyNJ;
    c.l2LeakPerCycleNJ = f2.leakPerCycleNJ;
    c.l2BaseBytes = l2.geom.sizeBytes;
    c.l2BitlinePerAccessNJ = f2.bitlineEnergyNJ;
    c.l2PerAccessNJ = f2.accessEnergyNJ;

    const circuit::SramCell cell(l1.tech, l1.dataCellVt);
    const circuit::GatedVdd gated(l1.tech, cell,
                                  circuit::GatedVddConfig{});
    c.gatedLeakFraction = 1.0 - gated.leakageSavingsFraction();
    const circuit::DrowsyCell drowsy(l1.tech, cell,
                                     circuit::DrowsyCellConfig{});
    c.drowsyLeakFraction = drowsy.standbyLeakageFraction();
    c.wakePerTransitionNJ =
        drowsy.wakeEnergyPerLineNJ(l1.geom.blockBytes * 8);
    return c;
}

double
Ledger::leakageNJ() const
{
    double sum = 0.0;
    for (const Row &r : rows)
        sum += r.leakageNJ();
    return sum;
}

double
Ledger::dynamicNJ() const
{
    double sum = 0.0;
    for (const Row &r : rows)
        sum += r.dynamicNJ();
    return sum;
}

double
Ledger::totalNJ() const
{
    double sum = 0.0;
    for (const Row &r : rows)
        sum += r.totalNJ();
    return sum;
}

Ledger
ledger(const EnergyConstants &constants, Cycles cycles,
       const std::vector<LevelInput> &run,
       const std::vector<LevelInput> &baseline)
{
    const double c = static_cast<double>(cycles);
    Ledger l;
    l.cycles = cycles;
    l.rows.reserve(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
        const LevelInput &in = run[i];
        const double leak = leakPerCycleNJ(constants, in.tier, in.bytes);
        const std::uint64_t base =
            i < baseline.size() ? baseline[i].received : 0;
        const std::uint64_t extra =
            in.received > base ? in.received - base : 0;

        Ledger::Row r;
        r.level = in.name;
        r.activeNJ = in.active * leak * c;
        r.gatedNJ = in.gated * constants.gatedLeakFraction * leak * c;
        r.drowsyNJ =
            in.drowsy * constants.drowsyLeakFraction * leak * c;
        r.tagNJ = static_cast<double>(in.tagBits) *
                  bitlineNJ(constants, in.tier) *
                  static_cast<double>(in.lookups);
        r.wakeNJ = constants.wakePerTransitionNJ *
                   static_cast<double>(in.wakes);
        r.trafficNJ = receivedNJ(constants, in.tier) *
                      static_cast<double>(extra);
        r.probeNJ = constants.l2PerAccessNJ *
                    static_cast<double>(in.probes);
        l.rows.push_back(std::move(r));
    }
    return l;
}

double
Comparison::relativeEnergyDelay() const
{
    return ratioOrZero(run.energyDelay(), baseline.energyDelay());
}

double
Comparison::relativeEdLeakage() const
{
    return ratioOrZero(run.leakageNJ() * static_cast<double>(run.cycles),
                       baseline.energyDelay());
}

double
Comparison::relativeEdDynamic() const
{
    return ratioOrZero(run.dynamicNJ() * static_cast<double>(run.cycles),
                       baseline.energyDelay());
}

double
Comparison::slowdownPercent() const
{
    if (baseline.cycles == 0)
        return 0.0;
    return 100.0 * (static_cast<double>(run.cycles) /
                        static_cast<double>(baseline.cycles) -
                    1.0);
}

Comparison
compare(const EnergyConstants &constants, Cycles baseCycles,
        const std::vector<LevelInput> &baseline, Cycles runCycles,
        const std::vector<LevelInput> &run)
{
    return {ledger(constants, runCycles, run, baseline),
            ledger(constants, baseCycles, baseline, baseline)};
}

} // namespace drisim
