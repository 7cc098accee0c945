/**
 * @file
 * The head-to-head leakage-policy search: a (policy x parameter)
 * grid evaluated per benchmark, answering "which leakage technique
 * wins, where?" (Bai et al.'s state-preserving vs state-destroying
 * trade-off; see docs/REPRODUCTION.md, Policy comparison study).
 *
 * A list of cells over the grid engine (harness/sweep.hh): every
 * cell is one PolicyConfig run on the *detailed* core and scored by
 * the paper view's energy-delay against the shared conventional
 * baseline (energy/ledger.hh), so results are byte-identical at any
 * --jobs value (locked by golden tests). The selection keeps one
 * winner per policy kind — the point of the study is the
 * comparison, not a single champion.
 */

#ifndef DRISIM_HARNESS_POLICIES_HH
#define DRISIM_HARNESS_POLICIES_HH

#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hh"
#include "policy/leakage_policy.hh"

namespace drisim
{

/** Search-space definition for the policy grid. */
struct PolicySpace
{
    /** Policies to compare, in report order. */
    std::vector<PolicyKind> kinds{
        PolicyKind::Dri, PolicyKind::Decay, PolicyKind::Drowsy,
        PolicyKind::StaticWays};

    // Dri: size-bounds crossed with one miss-bound factor over the
    // conventional misses per sense interval (the single-level
    // search's best-performing factor).
    std::vector<std::uint64_t> driSizeBounds{1024, 4096, 16384};
    double driMissBoundFactor = 32.0;
    std::uint64_t missBoundFloor = 16;

    /** Decay: generations to gate are fixed by the config template;
     *  the grid sweeps the generation length (instructions). */
    std::vector<InstCount> decayIntervals{25 * 1000, 100 * 1000,
                                          400 * 1000};

    /** Drowsy: episode lengths (instructions) x wake latencies. */
    std::vector<InstCount> drowsyIntervals{25 * 1000, 100 * 1000,
                                           400 * 1000};
    std::vector<Cycles> drowsyWakeLatencies{1};

    /** StaticWays: powered-way counts (filtered to [1, assoc]). */
    std::vector<unsigned> waysActive{1, 2};
};

/** One evaluated policy configuration. When the kind had no cells
 *  the run reads zero cycles and the hash is empty. */
struct PolicyCandidate : Scored<RunOutput>
{
    PolicyConfig config;
};

/** Outcome of a policy head-to-head search. */
struct PolicySearchResult
{
    /**
     * The winner of each policy kind, in space.kinds order: the
     * lowest feasible energy-delay, or (when nothing met the
     * slowdown constraint) the lowest-slowdown cell with
     * feasible == false.
     */
    std::vector<PolicyCandidate> bestPerKind;

    /** All candidates in grid order (reporting/tests). */
    std::vector<PolicyCandidate> evaluated;

    /** Detailed conventional baseline used throughout. */
    RunOutput convDetailed;
};

/**
 * Search the (policy x parameter) grid for each policy's best
 * energy-delay.
 *
 * @param bench          the benchmark
 * @param config         run configuration (conventional L2)
 * @param tmpl           policy knobs not being searched; tmpl.dri
 *                       carries the shared geometry (resolved
 *                       against config.hier.l1i) and the Dri
 *                       interval/divisibility/throttle knobs
 * @param space          the grid
 * @param constants      energy constants
 * @param maxSlowdownPct constraint; <= 0 means unconstrained
 * @param convDetailed   pre-computed detailed conventional run
 * @param exec           optional executor to reuse; otherwise one
 *                       is created with config.jobs workers
 */
PolicySearchResult searchPolicies(
    const BenchmarkInfo &bench, const RunConfig &config,
    const PolicyConfig &tmpl, const PolicySpace &space,
    const EnergyConstants &constants, double maxSlowdownPct,
    const RunOutput &convDetailed, Executor *exec = nullptr);

/**
 * The summary cells bench_policies prints for one candidate (shared
 * with the golden tests so the rendered rows cannot drift):
 * benchmark, policy, params, rel-ED, active fraction, drowsy
 * fraction, wake transitions, slowdown.
 */
std::vector<std::string>
policyRowCells(const std::string &bench, const PolicyCandidate &cand);

/**
 * The policy study's energy rows (nJ) of a paper-view ledger, in
 * fixed order: the L1I's leakage by supply state (leak-active,
 * leak-gated, leak-drowsy), its wake and resizing-tag energy (wake,
 * l1-dynamic) and the L2's extra-miss traffic (l2-dynamic).
 */
std::vector<std::pair<std::string, double>>
policyEnergyRows(const Ledger &paper);

} // namespace drisim

#endif // DRISIM_HARNESS_POLICIES_HH
