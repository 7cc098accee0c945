/**
 * @file
 * The energy ledger: the paper's Section 5.2 accounting, one row per
 * cache level.
 *
 *   effective leakage = L1 leakage + extra L1 dynamic + extra L2 dynamic
 *   L1 leakage        = active fraction x leak/cycle x cycles
 *                       (standby term ~ 0 with gated-Vdd)
 *   extra L1 dynamic  = resizing bits x bitline energy x L1 accesses
 *   extra L2 dynamic  = L2 energy/access x extra L2 accesses
 *
 * Each level reports what it did (LevelInput) and gets one ledger
 * row: leakage split by supply state (active, gated, drowsy) and
 * dynamic energy split by cause (resizing tags, wakes, traffic it
 * received beyond the baseline's, coherence probes). The paper's
 * figures are the L1I row plus an L2 row that carries only the
 * extra-miss traffic; Bai et al.'s total leakage across levels
 * (PAPERS.md) is the same ledger with the L2's own leakage and a
 * memory row; a CMP has one L1I row per core. The harness builds
 * these views from a run's output (harness/runner.hh).
 */

#ifndef DRISIM_ENERGY_LEDGER_HH
#define DRISIM_ENERGY_LEDGER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace drisim
{

namespace circuit
{
struct LevelCircuit; // circuit/hierarchy_energy.hh
}

/** Raw L1I measurements from one simulation run. */
struct RunMeasurement
{
    Cycles cycles = 0;
    InstCount instructions = 0;
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    /** Time-averaged powered fraction of the L1I (1.0 = fixed). */
    double avgActiveFraction = 1.0;
    /** Resizing tag bits in use (0 for a conventional cache). */
    unsigned resizingTagBits = 0;
    /** L1I capacity in bytes (base size). */
    std::uint64_t l1iBytes = 64 * 1024;

    double missRate() const
    {
        return l1iAccesses == 0
                   ? 0.0
                   : static_cast<double>(l1iMisses) /
                         static_cast<double>(l1iAccesses);
    }
};

/**
 * Every level's energy figures plus the standby residuals. The
 * defaults are the published constants: the paper's L1 figures
 * (0.91 nJ, 0.0022 nJ, 3.6 nJ per L2 access), an L2 at the same
 * linear leakage scaling (16x for the 1 MB array) with a
 * circuit-derived tag bitline, a main-memory access (not in the
 * paper, whose accounting stops at the L2; see docs/DESIGN.md,
 * Multi-level substitutions), Table 2's gated-Vdd residual and the
 * default drowsy cell's residual and wake energy
 * (circuit/drowsy_cell.hh).
 */
struct EnergyConstants
{
    /** Full-size L1 leakage per cycle (nJ) at l1BaseBytes. */
    double l1LeakPerCycleNJ = 0.91;
    std::uint64_t l1BaseBytes = 64 * 1024;
    /** Dynamic energy of one L1 resizing-tag bitline per access. */
    double l1BitlinePerAccessNJ = 0.0022;

    /** Full-size L2 leakage per cycle (nJ) at l2BaseBytes. */
    double l2LeakPerCycleNJ = 14.56;
    std::uint64_t l2BaseBytes = 1024 * 1024;
    /** Dynamic energy of one L2 resizing-tag bitline per access. */
    double l2BitlinePerAccessNJ = 0.0018;
    /** Dynamic energy of one L2 access or coherence probe (nJ). */
    double l2PerAccessNJ = 3.6;

    /** Dynamic energy per main-memory access (nJ). */
    double memPerAccessNJ = 32.0;

    /**
     * Gated (state-destroying) standby leakage as a fraction of
     * active leakage: Table 2's preferred gated-Vdd scheme saves
     * 97%. The paper's Section 5.2 rounds it to zero, and so do the
     * views of a DRI L1I (a LevelInput with no gated share).
     */
    double gatedLeakFraction = 0.03;
    /** Drowsy (state-preserving) standby leakage as a fraction of
     *  active leakage: the default drowsy cell's ~6.4x reduction. */
    double drowsyLeakFraction = 0.155;
    /** Energy to wake one line's rail from drowsy to active, nJ. */
    double wakePerTransitionNJ = 0.00045;

    /**
     * Everything derived from per-level circuit points: each level's
     * leakage, tag bitline and (L2) access energy from its
     * CacheEnergyModel, the gated residual from the preferred
     * gated-Vdd scheme and the drowsy pair from the drowsy cell on
     * the L1's cell and line. Memory keeps its default.
     */
    static EnergyConstants derived(const circuit::LevelCircuit &l1,
                                   const circuit::LevelCircuit &l2);
};

/** What one cache level did during a run: a ledger row's input. */
struct LevelInput
{
    /** Which of EnergyConstants' figures price the level. */
    enum class Tier { L1, L2, Mem };

    std::string name;
    Tier tier = Tier::L1;
    /** Leaking capacity (0: the row carries no leakage). */
    std::uint64_t bytes = 0;
    /** Time-averaged fractions of the array by supply state; the
     *  gated share leaks at the gated residual, the drowsy share at
     *  the drowsy one. */
    double active = 1.0;
    double drowsy = 0.0;
    double gated = 0.0;
    /** Resizing tag bits and the lookups that read them. */
    unsigned tagBits = 0;
    std::uint64_t lookups = 0;
    /** Drowsy->active (or gated->powered) wake transitions. */
    std::uint64_t wakes = 0;
    /** Accesses received from the level above. Only those beyond
     *  the baseline's (clamped at zero) are charged, to this level:
     *  the traffic a technique induces lands where it arrives. */
    std::uint64_t received = 0;
    /** Coherence probes routed through the level, each charged one
     *  L2-tier access. */
    std::uint64_t probes = 0;
};

/**
 * One run's energy, a row per level in input order. The totals are
 * defined as the row sums, so "rows sum to the total" holds by
 * construction.
 */
struct Ledger
{
    struct Row
    {
        std::string level;
        /** Leakage by supply state. */
        double activeNJ = 0.0;
        double gatedNJ = 0.0;
        double drowsyNJ = 0.0;
        /** Dynamic energy by cause. */
        double tagNJ = 0.0;
        double wakeNJ = 0.0;
        double trafficNJ = 0.0;
        double probeNJ = 0.0;

        double leakageNJ() const { return activeNJ + gatedNJ + drowsyNJ; }
        double dynamicNJ() const
        {
            return tagNJ + wakeNJ + trafficNJ + probeNJ;
        }
        double totalNJ() const { return leakageNJ() + dynamicNJ(); }
    };

    /** The run's length: the leakage integrals and the delay. */
    Cycles cycles = 0;
    std::vector<Row> rows;

    double leakageNJ() const;
    double dynamicNJ() const;
    double totalNJ() const;

    /** Energy-delay product in nJ x cycles. */
    double energyDelay() const
    {
        return totalNJ() * static_cast<double>(cycles);
    }
};

/**
 * The ledger of a run of @p cycles whose levels did @p run, with
 * received traffic charged against @p baseline's level of the same
 * position (pass @p run itself for the baseline's own ledger).
 */
Ledger ledger(const EnergyConstants &constants, Cycles cycles,
              const std::vector<LevelInput> &run,
              const std::vector<LevelInput> &baseline);

/** A run's ledger next to its conventional baseline's. */
struct Comparison
{
    Ledger run;
    Ledger baseline;

    /** Run energy-delay / baseline energy-delay. */
    double relativeEnergyDelay() const;
    /** Leakage-only component of the relative energy-delay. */
    double relativeEdLeakage() const;
    /** Dynamic (overhead) component of the relative energy-delay. */
    double relativeEdDynamic() const;
    /** Execution-time increase, percent (positive = slower). */
    double slowdownPercent() const;

    /** The searches' performance constraint (Section 5.3): slowdown
     *  within @p maxSlowdownPct, where <= 0 means unconstrained. */
    bool meetsSlowdown(double maxSlowdownPct) const
    {
        return maxSlowdownPct <= 0.0 ||
               slowdownPercent() <= maxSlowdownPct;
    }
};

/** Compare a run of @p runCycles against its baseline. */
Comparison compare(const EnergyConstants &constants,
                   Cycles baseCycles,
                   const std::vector<LevelInput> &baseline,
                   Cycles runCycles, const std::vector<LevelInput> &run);

} // namespace drisim

#endif // DRISIM_ENERGY_LEDGER_HH
