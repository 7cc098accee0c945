/**
 * @file
 * The grid-search engine, and the paper's best-case search (Section
 * 5.3): "we show the best-case energy savings achieved under various
 * combinations of [miss-bound and size-bound] ... determined via
 * simulation by empirically searching the combination space."
 *
 * Every grid search is a list of cells over the pieces stated here
 * once: the cell rule that scales the conventional misses per sense
 * interval into a miss-bound, the least-harm fallback when no cell
 * meets the constraint, the scored candidate (Scored) and its
 * scoring step (Scorer), the grid runner (runGrid) and the
 * index-order scan that picks a winner. The paper's search runs a
 * (size-bound x miss-bound) grid on the fast model, keeps the best
 * energy-delay subject to an optional slowdown constraint, and
 * re-runs the winner on the detailed model; the policy, multi-level
 * and CMP searches (harness/policies, harness/multilevel) are the
 * others.
 *
 * A cell may name earlier cells as its leaders (runGrid's
 * GridLeaders): they run first, and the cell is served from the
 * first whose run it is a sibling of and whose boundary history its
 * own controller reproduces (RunSpec::leaders, harness/runner.hh). In
 * the paper's grid, cell (s, f) lists the cell of the smallest
 * size-bound at factor f and cell (s, f') at the previous factor f';
 * a served cell hands its leader's lead on. The detailed re-runs of a
 * winner (evaluateDetailed*, unconstrainedWinner) list the winner.
 */

#ifndef DRISIM_HARNESS_SWEEP_HH
#define DRISIM_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/executor.hh"
#include "harness/runner.hh"

namespace drisim
{

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

/**
 * What a search records of one cell, whatever its knobs: the run
 * (a RunOutput, or a CmpRunOutput in the CMP search), the hash of
 * its run key (the row identity a report prints beside it), its
 * ledger view against the conventional run, and whether it met the
 * slowdown constraint. Each search's candidate adds its cell's
 * knobs.
 */
template <typename RunOut>
struct Scored
{
    using Output = RunOut;

    Output out;
    std::string configHash;
    Comparison cmp;
    bool feasible = true;
    /** What the cell's siblings may be served from; null when the run
     *  offers nothing, as in the CMP search. */
    std::shared_ptr<const RunLead> lead;
};

/**
 * The scoring step every search shares: run a cell, hash its run
 * key, compare it with the conventional run @p conv through one
 * ledger view, then check the slowdown constraint (<= 0 means
 * unconstrained).
 */
template <typename Candidate>
struct Scorer
{
    using Output = typename Candidate::Output;

    const EnergyConstants &constants;
    const Output &conv;
    std::vector<LevelInput> (*view)(const Output &);
    double maxSlowdownPct;

    /** @p cand (its knobs filled) scored on the run @p args name:
     *  run()'s arguments, or runCmp()'s in the CMP search. */
    template <typename... Args>
    Candidate
    operator()(Candidate cand, const Args &...args) const
    {
        if constexpr (std::is_same_v<Output, CmpRunOutput>) {
            cand.out = runCmp(args...);
            cand.configHash = runKeyCmp(args...).hashHex();
            cand.cmp = compare(constants, conv.systemCycles, view(conv),
                               cand.out.systemCycles, view(cand.out));
        } else {
            cand.out = run(args..., cand.lead);
            cand.configHash = runKey(args...).hashHex();
            cand.cmp = compare(constants, conv.meas.cycles, view(conv),
                               cand.out.meas.cycles, view(cand.out));
        }
        cand.feasible = cand.cmp.meetsSlowdown(maxSlowdownPct);
        return cand;
    }
};

/** What a search returns: its winner, every cell, and the detailed
 *  conventional baseline. */
template <typename Candidate>
struct GridResult
{
    /** The lowest feasible energy-delay cell, or the least-harm
     *  configuration when no cell met the constraint. */
    Candidate best;
    /** Every cell in grid order (reporting/tests). */
    std::vector<Candidate> evaluated;
    /** The detailed conventional run the winner is compared with. */
    typename Candidate::Output convDetailed;
};

/** A job a grid runs beside its cells: its key and its body. */
struct GridStep
{
    std::string key;
    std::function<void()> body;
};

/** Per cell of a grid, the earlier cells it may be served from. */
using GridLeaders = std::vector<std::vector<std::size_t>>;

/** The leads of the cells of @p slots that @p leaders names, for
 *  RunSpec::leaders. */
template <typename Candidate>
std::vector<std::shared_ptr<const RunLead>>
leadsOf(const std::vector<Candidate> &slots,
        const std::vector<std::size_t> &leaders)
{
    std::vector<std::shared_ptr<const RunLead>> leads;
    for (const std::size_t l : leaders)
        leads.push_back(slots[l].lead);
    return leads;
}

/**
 * The grid runner every search shares. Runs cell(i) for each key i
 * of @p cellKeys as a job under that key and stores the candidate
 * it returns in slot i of @p slots; then @p select, as one job
 * after every cell. A @p prepare step runs before all of them. A
 * step without a body is left out. Cell i also waits for the cells
 * @p leaders[i] lists, each before it, so that it can be served from
 * their runs (leadsOf). Slots are index-addressed and select scans
 * them in index order, so a search's result never depends on the
 * worker count. Runs on @p exec, or on a local pool of @p jobs
 * workers when it is null.
 */
template <typename Candidate, typename Cell>
void
runGrid(Executor *exec, unsigned jobs, std::vector<Candidate> &slots,
        const std::vector<std::string> &cellKeys, const Cell &cell,
        const GridStep &select = {}, const GridStep &prepare = {},
        const GridLeaders &leaders = {})
{
    std::optional<Executor> local;
    if (!exec)
        exec = &local.emplace(jobs);
    const auto job = [](const GridStep &step) {
        return [&step](const JobContext &) { step.body(); };
    };
    JobGraph graph;
    std::vector<JobId> first;
    if (prepare.body)
        first.push_back(graph.add(prepare.key, job(prepare)));
    std::vector<JobId> all = first;
    slots.resize(cellKeys.size());
    for (std::size_t i = 0; i < cellKeys.size(); ++i) {
        std::vector<JobId> deps = first;
        if (i < leaders.size())
            for (const std::size_t l : leaders[i])
                deps.push_back(all[first.size() + l]);
        all.push_back(graph.add(
            cellKeys[i],
            [&, i](const JobContext &) { slots[i] = cell(i); },
            std::move(deps)));
    }
    if (select.body)
        graph.add(select.key, job(select), std::move(all));
    exec->run(graph);
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

/** One evaluated configuration. The run is the fast model's in the
 *  grid, the detailed core's otherwise. */
struct SearchCandidate : Scored<RunOutput>
{
    DriParams dri;
};

/** Outcome of a best-case search: best is the winner re-run on the
 *  detailed core, evaluated the fast-model grid. */
using SearchResult = GridResult<SearchCandidate>;

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
 * sr.best's (sr.best otherwise, and when the grid was empty), and
 * served from sr.best's run when it can be. The result is marked
 * feasible.
 */
SearchCandidate unconstrainedWinner(const SearchResult &sr,
                                    const BenchmarkInfo &bench,
                                    const RunConfig &config,
                                    const EnergyConstants &constants);

/** Detailed paired evaluation of one explicit configuration
 *  (feasible stays true: the caller owns the constraint), served from
 *  @p leader's run (a search's winner) when it can be. */
SearchCandidate evaluateDetailed(const BenchmarkInfo &bench,
                                 const RunConfig &config,
                                 const DriParams &dri,
                                 const EnergyConstants &constants,
                                 const RunOutput &convDetailed,
                                 const SearchCandidate *leader = nullptr);

/**
 * Detailed paired evaluation of several configurations, run as
 * independent executor jobs, each served from @p leader's run when
 * it can be. Results come back in the order of @p variants
 * regardless of completion order. Pass an @p exec to reuse an
 * existing pool; otherwise one is created with config.jobs workers
 * for the call.
 */
std::vector<SearchCandidate> evaluateDetailedBatch(
    const BenchmarkInfo &bench, const RunConfig &config,
    const std::vector<DriParams> &variants,
    const EnergyConstants &constants, const RunOutput &convDetailed,
    Executor *exec = nullptr, const SearchCandidate *leader = nullptr);

} // namespace drisim

#endif // DRISIM_HARNESS_SWEEP_HH
