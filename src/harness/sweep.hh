/**
 * @file
 * Best-case parameter search (paper Section 5.3): "we show the
 * best-case energy savings achieved under various combinations of
 * [miss-bound and size-bound] ... determined via simulation by
 * empirically searching the combination space."
 *
 * The search evaluates a (size-bound x miss-bound) grid with the
 * fast model, keeps the best energy-delay subject to an optional
 * slowdown constraint, and re-runs the winner on the detailed model.
 */

#ifndef DRISIM_HARNESS_SWEEP_HH
#define DRISIM_HARNESS_SWEEP_HH

#include <vector>

#include "harness/runner.hh"

namespace drisim
{

/** Search-space definition. */
struct SearchSpace
{
    /** Candidate size-bounds (bytes); filtered to <= cache size. */
    std::vector<std::uint64_t> sizeBounds{
        1024, 2048, 4096, 8192, 16384, 32768, 65536};
    /**
     * Candidate miss-bounds as multiples of the conventional
     * cache's misses per sense interval (the paper notes workable
     * miss-bounds sit one to two orders of magnitude above the
     * conventional miss rate).
     */
    std::vector<double> missBoundFactors{2.0, 8.0, 32.0, 128.0};
    /** Absolute floor for the miss-bound (misses per interval). */
    std::uint64_t missBoundFloor = 16;
};

/** One evaluated configuration. */
struct SearchCandidate
{
    DriParams dri;
    /** The DRI run (fast model in the grid, detailed otherwise). */
    RunOutput out;
    /** Its paper view against the conventional run. */
    Comparison cmp;
    bool feasible = true;
};

/** Outcome of a best-case search. */
struct SearchResult
{
    /** The winning configuration (detailed-model comparison). */
    SearchCandidate best;
    /** All fast-model candidates (for reporting/tests). */
    std::vector<SearchCandidate> evaluated;
    /** Detailed conventional baseline used for the final numbers. */
    RunOutput convDetailed;
};

/**
 * Search the grid for the lowest energy-delay.
 *
 * @param bench            the benchmark
 * @param config           run configuration (defines the base cache)
 * @param driTemplate      DRI knobs not being searched (interval,
 *                         divisibility, throttle, latency)
 * @param space            the grid
 * @param constants        energy constants
 * @param maxSlowdownPct   constraint; <= 0 means unconstrained
 * @param convDetailed     pre-computed detailed conventional run
 */
SearchResult searchBestEnergyDelay(
    const BenchmarkInfo &bench, const RunConfig &config,
    const DriParams &driTemplate, const SearchSpace &space,
    const EnergyConstants &constants, double maxSlowdownPct,
    const RunOutput &convDetailed);

/** Detailed paired evaluation of one explicit configuration
 *  (feasible stays true: the caller owns the constraint). */
SearchCandidate evaluateDetailed(const BenchmarkInfo &bench,
                                 const RunConfig &config,
                                 const DriParams &dri,
                                 const EnergyConstants &constants,
                                 const RunOutput &convDetailed);

class Executor; // harness/executor.hh

/**
 * Detailed paired evaluation of several configurations, run as
 * independent executor jobs. Results come back in the order of
 * @p variants regardless of completion order. Pass an @p exec to
 * reuse an existing pool; otherwise one is created with config.jobs
 * workers for the call.
 */
std::vector<SearchCandidate> evaluateDetailedBatch(
    const BenchmarkInfo &bench, const RunConfig &config,
    const std::vector<DriParams> &variants,
    const EnergyConstants &constants, const RunOutput &convDetailed,
    Executor *exec = nullptr);

} // namespace drisim

#endif // DRISIM_HARNESS_SWEEP_HH
