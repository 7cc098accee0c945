/**
 * @file
 * Best-case (miss-bound x size-bound) search with fast-model
 * calibration and detailed re-run of the winner, executed as a
 * JobGraph: calibrate -> fast-model grid -> select -> detailed
 * winner. Grid cells land in index-addressed slots and the selection
 * scans them in grid order, so results are bit-identical at any
 * worker count.
 */

#include "harness/sweep.hh"

#include <algorithm>
#include <optional>

#include "harness/executor.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace drisim
{

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
                      const RunOutput &convDetailed)
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
    for (std::uint64_t size_bound : space.sizeBounds) {
        if (size_bound > driTemplate.sizeBytes)
            continue;
        if (size_bound < static_cast<std::uint64_t>(
                             driTemplate.blockBytes) *
                             driTemplate.assoc)
            continue;
        for (double factor : space.missBoundFactors)
            cells.push_back({size_bound, factor});
    }

    Executor exec(config.jobs);
    JobGraph graph;

    // Content-addressed job keys (see bench_common::computeBase):
    // the base-config hash keeps job-keyed artifacts distinct
    // across differently-configured sweeps.
    const std::string cfgHash = runKey(bench, config).hashHex();

    FastCalibration cal;
    RunOutput conv_fast;
    double conv_misses_per_interval = 0.0;
    const JobId calibrate = graph.add(
        bench.name + "/calibrate", [&](const JobContext &) {
            cal = calibrateFast(bench, config, convDetailed);
            conv_fast = run(bench, config, {ConventionalL1i{}, &cal});
            const double intervals =
                static_cast<double>(config.maxInstrs) /
                static_cast<double>(driTemplate.senseInterval);
            conv_misses_per_interval =
                intervals > 0.0
                    ? static_cast<double>(conv_fast.meas.l1iMisses) /
                          intervals
                    : 0.0;
        });

    result.evaluated.resize(cells.size());
    std::vector<JobId> grid;
    grid.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        grid.push_back(graph.add(
            strFormat("%s/sb=%llu/mbf=%g#%s", bench.name.c_str(),
                      static_cast<unsigned long long>(
                          cells[i].sizeBound),
                      cells[i].factor, cfgHash.c_str()),
            [&, i](const JobContext &) {
                DriParams p = driTemplate;
                p.sizeBoundBytes = cells[i].sizeBound;
                p.missBound = std::max<std::uint64_t>(
                    space.missBoundFloor,
                    static_cast<std::uint64_t>(
                        cells[i].factor *
                        conv_misses_per_interval));

                SearchCandidate cand =
                    evaluate(bench, config, p, &cal, constants,
                             conv_fast);
                cand.feasible = cand.cmp.meetsSlowdown(maxSlowdownPct);
                result.evaluated[i] = std::move(cand);
            },
            {calibrate}));
    }

    // The selection needs every grid slot AND the calibration
    // outputs (listing calibrate explicitly also covers the
    // empty-grid case, where it would otherwise run unordered).
    std::vector<JobId> selectDeps = grid;
    selectDeps.push_back(calibrate);

    DriParams best_params = driTemplate;
    const JobId select = graph.add(
        bench.name + "/select",
        [&](const JobContext &) {
            bool have_best = false;
            double best_ed = 0.0;
            for (const SearchCandidate &cand : result.evaluated) {
                if (!cand.feasible)
                    continue;
                const double ed = cand.cmp.relativeEnergyDelay();
                if (!have_best || ed < best_ed) {
                    have_best = true;
                    best_ed = ed;
                    best_params = cand.dri;
                }
            }
            if (!have_best) {
                // Nothing met the constraint: fall back to the
                // least-harm configuration (full-size size-bound
                // disables downsizing).
                best_params = driTemplate;
                best_params.sizeBoundBytes = driTemplate.sizeBytes;
                best_params.missBound = std::max<std::uint64_t>(
                    space.missBoundFloor,
                    static_cast<std::uint64_t>(
                        2.0 * conv_misses_per_interval));
            }
        },
        selectDeps);

    graph.add(
        bench.name + "/winner-detailed",
        [&](const JobContext &) {
            result.best = evaluateDetailed(bench, config, best_params,
                                           constants, convDetailed);
            result.best.feasible =
                result.best.cmp.meetsSlowdown(maxSlowdownPct);
        },
        {select});

    exec.run(graph);
    return result;
}

} // namespace drisim
