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
 *
 * The rules every grid search shares are stated here once: the
 * conventional misses per sense interval, the cell rule that scales
 * them into a miss-bound, the least-harm fallback when no cell meets
 * the constraint, and the index-order scan that picks a winner. The
 * policy, multi-level and CMP searches (harness/policies,
 * harness/multilevel) call them too.
 */

#ifndef DRISIM_HARNESS_SWEEP_HH
#define DRISIM_HARNESS_SWEEP_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace drisim
{

class Executor; // harness/executor.hh

/**
 * Conventional misses per sense interval: @p misses over the
 * @p instructions / @p senseInterval intervals of a run, 0 when the
 * run spans no interval.
 */
double missesPerInterval(std::uint64_t misses, double instructions,
                         InstCount senseInterval);

/**
 * The cell rule: @p base with size-bound @p sizeBound and a
 * miss-bound of @p factor times the conventional misses per interval
 * @p convMpi, truncated, and at least @p floor (the paper notes
 * workable miss-bounds sit one to two orders of magnitude above the
 * conventional miss rate).
 */
DriParams cellParams(const DriParams &base, std::uint64_t sizeBound,
                     std::uint64_t floor, double factor,
                     double convMpi);

/**
 * The least-harm fallback when no cell meets the constraint: the
 * cell rule at @p base's full size, so it never downsizes, and
 * factor 2.
 */
DriParams leastHarm(const DriParams &base, std::uint64_t floor,
                    double convMpi);

/**
 * Index-order scan: the i in [0, @p n) with the lowest key(i) among
 * those keep(i) accepts, the first of equal keys winning; nothing
 * when none is accepted. Searches scan their index-addressed slots
 * with it, so a winner never depends on completion order.
 */
template <typename Key, typename Keep>
std::optional<std::size_t>
lowestKey(std::size_t n, Key key, Keep keep)
{
    std::optional<std::size_t> best;
    double bestKey = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!keep(i))
            continue;
        const double k = key(i);
        if (!best || k < bestKey) {
            best = i;
            bestKey = k;
        }
    }
    return best;
}

/** The lowest-energy-delay candidate of @p cands that keep(i)
 *  accepts (lowestKey over the candidates' relative ED). */
template <typename Candidate, typename Keep>
std::optional<std::size_t>
lowestEd(const std::vector<Candidate> &cands, Keep keep)
{
    return lowestKey(
        cands.size(),
        [&](std::size_t i) {
            return cands[i].cmp.relativeEnergyDelay();
        },
        keep);
}

/** The lowest-energy-delay feasible candidate of @p cands. */
template <typename Candidate>
std::optional<std::size_t>
lowestFeasibleEd(const std::vector<Candidate> &cands)
{
    return lowestEd(cands,
                    [&](std::size_t i) { return cands[i].feasible; });
}

/** Search-space definition. */
struct SearchSpace
{
    /** Candidate size-bounds (bytes); kept when they fit the cache
     *  (DriParams::sizeBoundFits). */
    std::vector<std::uint64_t> sizeBounds{
        1024, 2048, 4096, 8192, 16384, 32768, 65536};
    /** Candidate miss-bounds as cellParams() factors. */
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
    /** runKey hash of the run in out: the row identity a report
     *  prints beside it. */
    std::string configHash;
    /** Its paper view against the conventional run. */
    Comparison cmp;
    bool feasible = true;
};

/** Outcome of a best-case search. */
struct SearchResult
{
    /** The winning configuration (detailed-model comparison). */
    SearchCandidate best;
    /** All fast-model candidates in grid order. */
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
 * @param exec             optional executor to reuse; otherwise one
 *                         is created with config.jobs workers
 */
SearchResult searchBestEnergyDelay(
    const BenchmarkInfo &bench, const RunConfig &config,
    const DriParams &driTemplate, const SearchSpace &space,
    const EnergyConstants &constants, double maxSlowdownPct,
    const RunOutput &convDetailed, Executor *exec = nullptr);

/**
 * The unconstrained winner of a finished search @p sr: the
 * lowest-energy-delay cell of sr.evaluated whatever its slowdown,
 * re-run on the detailed core only when its bounds differ from
 * sr.best's (sr.best otherwise, and when the grid was empty). The
 * result is marked feasible.
 */
SearchCandidate unconstrainedWinner(const SearchResult &sr,
                                    const BenchmarkInfo &bench,
                                    const RunConfig &config,
                                    const EnergyConstants &constants);

/** Detailed paired evaluation of one explicit configuration
 *  (feasible stays true: the caller owns the constraint). */
SearchCandidate evaluateDetailed(const BenchmarkInfo &bench,
                                 const RunConfig &config,
                                 const DriParams &dri,
                                 const EnergyConstants &constants,
                                 const RunOutput &convDetailed);

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
