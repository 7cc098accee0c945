/**
 * @file
 * The search rules every grid search shares, and the best-case
 * (miss-bound x size-bound) search with fast-model calibration and
 * detailed re-run of the winner, executed as a JobGraph: calibrate
 * -> fast-model grid -> select and detailed winner. Grid cells land
 * in index-addressed slots and the selection scans them in grid
 * order, so results are bit-identical at any worker count.
 */

#include "harness/sweep.hh"

#include <algorithm>

#include "harness/executor.hh"
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

namespace
{

/** @p dri run on @p spec's core model, paper view against @p conv. */
SearchCandidate
evaluate(const BenchmarkInfo &bench, const RunConfig &config,
         const DriParams &dri, const FastCalibration *fast,
         const EnergyConstants &constants, const RunOutput &conv)
{
    SearchCandidate cand;
    cand.dri = dri;
    cand.out = run(bench, config, {dri, fast});
    cand.configHash = runKey(bench, config, {dri, fast}).hashHex();
    cand.cmp = compare(constants, conv.meas.cycles, paperView(conv),
                       cand.out.meas.cycles, paperView(cand.out));
    return cand;
}

} // namespace

SearchCandidate
evaluateDetailed(const BenchmarkInfo &bench, const RunConfig &config,
                 const DriParams &dri, const EnergyConstants &constants,
                 const RunOutput &convDetailed)
{
    return evaluate(bench, config, dri, nullptr, constants,
                    convDetailed);
}

std::vector<SearchCandidate>
evaluateDetailedBatch(const BenchmarkInfo &bench,
                      const RunConfig &config,
                      const std::vector<DriParams> &variants,
                      const EnergyConstants &constants,
                      const RunOutput &convDetailed, Executor *exec)
{
    std::vector<SearchCandidate> out(variants.size());
    std::optional<Executor> local;
    if (!exec)
        exec = &local.emplace(config.jobs);
    exec->forEachIndex(
        bench.name + "/detailed", variants.size(),
        [&](std::size_t i, const JobContext &) {
            out[i] = evaluateDetailed(bench, config, variants[i],
                                      constants, convDetailed);
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
    // once the calibration stage has produced the conventional
    // misses-per-interval.
    struct Cell
    {
        std::uint64_t sizeBound;
        double factor;
    };
    std::vector<Cell> cells;
    for (std::uint64_t size_bound : space.sizeBounds)
        if (driTemplate.sizeBoundFits(size_bound))
            for (double factor : space.missBoundFactors)
                cells.push_back({size_bound, factor});

    std::optional<Executor> local;
    if (!exec)
        exec = &local.emplace(config.jobs);
    JobGraph graph;

    // Content-addressed job keys: the base-config hash keeps
    // job-keyed artifacts (seeds, traces) distinct across
    // differently-configured sweeps.
    const std::string cfgHash = runKey(bench, config).hashHex();

    FastCalibration cal;
    RunOutput conv_fast;
    double conv_mpi = 0.0;
    const JobId calibrate = graph.add(
        bench.name + "/calibrate", [&](const JobContext &) {
            cal = calibrateFast(bench, config, convDetailed);
            conv_fast = run(bench, config, {ConventionalL1i{}, &cal});
            conv_mpi = missesPerInterval(
                conv_fast.meas.l1iMisses,
                static_cast<double>(config.maxInstrs),
                driTemplate.senseInterval);
        });

    // The winner needs every grid slot and the calibration output
    // (listing calibrate also covers the empty-grid case, where the
    // winner would otherwise run unordered).
    std::vector<JobId> winnerDeps{calibrate};
    result.evaluated.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        winnerDeps.push_back(graph.add(
            strFormat("%s/sb=%llu/mbf=%g#%s", bench.name.c_str(),
                      static_cast<unsigned long long>(
                          cells[i].sizeBound),
                      cells[i].factor, cfgHash.c_str()),
            [&, i](const JobContext &) {
                SearchCandidate cand = evaluate(
                    bench, config,
                    cellParams(driTemplate, cells[i].sizeBound,
                               space.missBoundFloor, cells[i].factor,
                               conv_mpi),
                    &cal, constants, conv_fast);
                cand.feasible = cand.cmp.meetsSlowdown(maxSlowdownPct);
                result.evaluated[i] = std::move(cand);
            },
            {calibrate}));
    }

    graph.add(
        bench.name + "/winner-detailed",
        [&](const JobContext &) {
            const std::optional<std::size_t> w =
                lowestFeasibleEd(result.evaluated);
            result.best = evaluateDetailed(
                bench, config,
                w ? result.evaluated[*w].dri
                  : leastHarm(driTemplate, space.missBoundFloor,
                              conv_mpi),
                constants, convDetailed);
            result.best.feasible =
                result.best.cmp.meetsSlowdown(maxSlowdownPct);
        },
        winnerDeps);

    exec->run(graph);
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
                                    sr.convDetailed);
    }
    cand.feasible = true;
    return cand;
}

} // namespace drisim
