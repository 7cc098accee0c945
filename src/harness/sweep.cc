/**
 * @file
 * The search rules every grid search shares, and the best-case
 * (miss-bound x size-bound) search on runGrid: calibrate ->
 * fast-model grid -> select and detailed re-run of the winner.
 */

#include "harness/sweep.hh"

#include <algorithm>

#include "util/str.hh"

namespace drisim
{

double
missesPerInterval(std::uint64_t misses, double instructions,
                  InstCount senseInterval)
{
    const double intervals =
        instructions / static_cast<double>(senseInterval);
    return intervals > 0.0 ? static_cast<double>(misses) / intervals
                           : 0.0;
}

DriParams
cellParams(const DriParams &base, std::uint64_t sizeBound,
           std::uint64_t floor, double factor, double convMpi)
{
    DriParams p = base;
    p.sizeBoundBytes = sizeBound;
    p.missBound = std::max<std::uint64_t>(
        floor, static_cast<std::uint64_t>(factor * convMpi));
    return p;
}

DriParams
leastHarm(const DriParams &base, std::uint64_t floor, double convMpi)
{
    return cellParams(base, base.sizeBytes, floor, 2.0, convMpi);
}

SearchCandidate
evaluateDetailed(const BenchmarkInfo &bench, const RunConfig &config,
                 const DriParams &dri, const EnergyConstants &constants,
                 const RunOutput &convDetailed,
                 const SearchCandidate *leader)
{
    const Scorer<SearchCandidate> detailed{constants, convDetailed,
                                           paperView, 0.0};
    RunSpec spec{dri};
    if (leader)
        spec.leaders = {leader->lead};
    return detailed({{}, dri}, bench, config, spec);
}

std::vector<SearchCandidate>
evaluateDetailedBatch(const BenchmarkInfo &bench,
                      const RunConfig &config,
                      const std::vector<DriParams> &variants,
                      const EnergyConstants &constants,
                      const RunOutput &convDetailed, Executor *exec,
                      const SearchCandidate *leader)
{
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < variants.size(); ++i)
        keys.push_back(
            strFormat("%s/detailed/%zu", bench.name.c_str(), i));
    std::vector<SearchCandidate> out;
    runGrid(exec, config.jobs, out, keys, [&](std::size_t i) {
        return evaluateDetailed(bench, config, variants[i], constants,
                                convDetailed, leader);
    });
    return out;
}

SearchResult
searchBestEnergyDelay(const BenchmarkInfo &bench, const RunConfig &config,
                      const DriParams &driTemplate,
                      const SearchSpace &space,
                      const EnergyConstants &constants,
                      double maxSlowdownPct,
                      const RunOutput &convDetailed, Executor *exec)
{
    SearchResult result;
    result.convDetailed = convDetailed;

    // Grid cells are fixed up front (the filter depends only on the
    // template); each cell's miss-bound is resolved inside its job
    // once the calibration step has produced the conventional
    // misses per interval. Content-addressed job keys: the
    // base-config hash keeps job-keyed artifacts (seeds, traces)
    // distinct across differently-configured sweeps.
    struct Cell
    {
        std::uint64_t sizeBound;
        double factor;
    };
    std::vector<Cell> cells;
    std::vector<std::string> keys;
    const std::string cfgHash = runKey(bench, config).hashHex();
    for (std::uint64_t size_bound : space.sizeBounds)
        if (driTemplate.sizeBoundFits(size_bound))
            for (double factor : space.missBoundFactors) {
                cells.push_back({size_bound, factor});
                keys.push_back(strFormat(
                    "%s/sb=%llu/mbf=%g#%s", bench.name.c_str(),
                    static_cast<unsigned long long>(size_bound), factor,
                    cfgHash.c_str()));
            }

    // Cell (s, f) may be served from the cell of the smallest
    // size-bound at factor f and from (s, previous factor), when they
    // come before it in the grid.
    const std::size_t factors = space.missBoundFactors.size();
    std::size_t smallest = 0;
    for (std::size_t i = 0; i < cells.size(); i += factors)
        if (cells[i].sizeBound < cells[smallest].sizeBound)
            smallest = i;
    GridLeaders leaders(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t column = i % factors;
        if (smallest < i - column)
            leaders[i].push_back(smallest + column);
        if (column > 0)
            leaders[i].push_back(i - 1);
    }

    FastCalibration cal;
    RunOutput conv_fast;
    double conv_mpi = 0.0;
    const Scorer<SearchCandidate> fast{constants, conv_fast, paperView,
                                       maxSlowdownPct};
    const Scorer<SearchCandidate> detailed{constants, convDetailed,
                                           paperView, maxSlowdownPct};
    const GridStep calibrate{bench.name + "/calibrate", [&] {
        cal = calibrateFast(bench, config, convDetailed);
        conv_fast = run(bench, config, {ConventionalL1i{}, &cal});
        conv_mpi = missesPerInterval(
            conv_fast.meas.l1iMisses,
            static_cast<double>(config.maxInstrs),
            driTemplate.senseInterval);
    }};
    const GridStep winner{bench.name + "/winner-detailed", [&] {
        const std::optional<std::size_t> w =
            lowestFeasibleEd(result.evaluated);
        const DriParams p =
            w ? result.evaluated[*w].dri
              : leastHarm(driTemplate, space.missBoundFloor, conv_mpi);
        result.best = detailed({{}, p}, bench, config, RunSpec{p});
    }};
    runGrid(
        exec, config.jobs, result.evaluated, keys,
        [&](std::size_t i) {
            const DriParams p =
                cellParams(driTemplate, cells[i].sizeBound,
                           space.missBoundFloor, cells[i].factor,
                           conv_mpi);
            return fast({{}, p}, bench, config,
                        RunSpec{p, &cal,
                                leadsOf(result.evaluated, leaders[i])});
        },
        winner, calibrate, leaders);
    return result;
}

SearchCandidate
unconstrainedWinner(const SearchResult &sr, const BenchmarkInfo &bench,
                    const RunConfig &config,
                    const EnergyConstants &constants)
{
    const std::optional<std::size_t> u =
        lowestEd(sr.evaluated, [](std::size_t) { return true; });
    SearchCandidate cand = sr.best;
    if (u) {
        const DriParams &p = sr.evaluated[*u].dri;
        if (p.sizeBoundBytes != sr.best.dri.sizeBoundBytes ||
            p.missBound != sr.best.dri.missBound)
            cand = evaluateDetailed(bench, config, p, constants,
                                    sr.convDetailed, &sr.best);
    }
    cand.feasible = true;
    return cand;
}

} // namespace drisim
