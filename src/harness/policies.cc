/**
 * @file
 * The (policy x parameter) head-to-head search, executed as a
 * JobGraph: every cell is a detailed run() of its policy landing
 * in an index-addressed slot; per-kind winners are selected by an
 * index-order scan, so results are bit-identical at any worker
 * count.
 */

#include "harness/policies.hh"

#include <optional>

#include "harness/executor.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "mem/hierarchy.hh"
#include "util/str.hh"

namespace drisim
{

namespace
{

/** One grid cell: a full policy configuration. */
struct PolicyCell
{
    PolicyConfig config;
    std::size_t kindIndex; ///< index into space.kinds
};

/** Enumerate the grid in deterministic kind-major order. */
std::vector<PolicyCell>
enumerateCells(const PolicyConfig &base, const PolicySpace &space,
               double convMissesPerInterval)
{
    std::vector<PolicyCell> cells;
    for (std::size_t ki = 0; ki < space.kinds.size(); ++ki) {
        const PolicyKind kind = space.kinds[ki];
        PolicyConfig c = base;
        c.kind = kind;
        switch (kind) {
          case PolicyKind::Dri:
            for (std::uint64_t sb : space.driSizeBounds) {
                if (!c.dri.sizeBoundFits(sb))
                    continue;
                PolicyCell cell{c, ki};
                cell.config.dri = cellParams(
                    c.dri, sb, space.missBoundFloor,
                    space.driMissBoundFactor, convMissesPerInterval);
                cells.push_back(std::move(cell));
            }
            break;
          case PolicyKind::Decay:
            for (InstCount iv : space.decayIntervals) {
                PolicyCell cell{c, ki};
                cell.config.decay.decayInterval = iv;
                cells.push_back(std::move(cell));
            }
            break;
          case PolicyKind::Drowsy:
            for (InstCount iv : space.drowsyIntervals) {
                for (Cycles wake : space.drowsyWakeLatencies) {
                    PolicyCell cell{c, ki};
                    cell.config.drowsy.drowsyInterval = iv;
                    cell.config.drowsy.wakeLatency = wake;
                    cells.push_back(std::move(cell));
                }
            }
            break;
          case PolicyKind::StaticWays:
            for (unsigned ways : space.waysActive) {
                if (ways < 1 || ways > c.dri.assoc)
                    continue;
                PolicyCell cell{c, ki};
                cell.config.ways.activeWays = ways;
                cells.push_back(std::move(cell));
            }
            break;
        }
    }
    return cells;
}

} // namespace

PolicySearchResult
searchPolicies(const BenchmarkInfo &bench, const RunConfig &config,
               const PolicyConfig &tmpl, const PolicySpace &space,
               const EnergyConstants &constants,
               double maxSlowdownPct, const RunOutput &convDetailed,
               Executor *exec)
{
    PolicySearchResult result;
    result.convDetailed = convDetailed;

    // Resolve the template against the configured geometry once;
    // cells then vary only their own policy's knobs.
    PolicyConfig base = tmpl;
    base.dri = driParamsForLevel(config.hier.l1i, tmpl.dri);

    const double conv_mpi = missesPerInterval(
        convDetailed.meas.l1iMisses,
        static_cast<double>(config.maxInstrs), base.dri.senseInterval);

    const std::vector<PolicyCell> cells =
        enumerateCells(base, space, conv_mpi);

    const std::vector<LevelInput> conv_view = paperView(convDetailed);
    auto evaluate = [&](const PolicyConfig &pc, std::string hash) {
        PolicyCandidate cand;
        cand.config = pc;
        cand.out = run(bench, config, {pc});
        cand.configHash = std::move(hash);
        cand.cmp = compare(constants, convDetailed.meas.cycles,
                           conv_view, cand.out.meas.cycles,
                           paperView(cand.out));
        cand.feasible = cand.cmp.meetsSlowdown(maxSlowdownPct);
        return cand;
    };

    std::optional<Executor> local;
    if (!exec)
        exec = &local.emplace(config.jobs);
    JobGraph graph;

    // Every cell runs on the detailed core (same reasoning as the
    // multi-level search: cells are few, coarse and independent, so
    // detail parallelizes instead of approximating).
    result.evaluated.resize(cells.size());
    std::vector<JobId> grid;
    grid.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        // Content-addressed job key: the cell's full run-key hash,
        // the same identity its result is memoized under and its
        // candidate reports.
        std::string hash =
            runKey(bench, config, {cells[i].config}).hashHex();
        std::string key = strFormat(
            "%s/policy=%s/%s#%s", bench.name.c_str(),
            policyKindName(cells[i].config.kind),
            cells[i].config.paramSummary().c_str(), hash.c_str());
        grid.push_back(graph.add(
            std::move(key),
            [&, i, hash = std::move(hash)](const JobContext &) {
                result.evaluated[i] = evaluate(cells[i].config, hash);
            }));
    }

    graph.add(
        bench.name + "/policy-select",
        [&](const JobContext &) {
            // One winner per kind, by index-order scans over that
            // kind's cells.
            result.bestPerKind.resize(space.kinds.size());
            for (std::size_t ki = 0; ki < space.kinds.size();
                 ++ki) {
                const auto of_kind = [&](std::size_t i) {
                    return cells[i].kindIndex == ki;
                };
                PolicyCandidate &best = result.bestPerKind[ki];
                if (const auto w = lowestEd(
                        result.evaluated, [&](std::size_t i) {
                            return of_kind(i) &&
                                   result.evaluated[i].feasible;
                        })) {
                    best = result.evaluated[*w];
                } else if (const auto f = lowestKey(
                               cells.size(),
                               [&](std::size_t i) {
                                   return result.evaluated[i]
                                       .cmp.slowdownPercent();
                               },
                               of_kind)) {
                    // Nothing met the constraint: report the
                    // least-slowdown cell, marked infeasible.
                    best = result.evaluated[*f];
                    best.feasible = false;
                } else {
                    // The grid filtered this kind down to zero
                    // cells (e.g. every waysActive value outside
                    // [1, assoc]): leave an explicit empty marker
                    // — correct kind, infeasible, zero cycles —
                    // so reports can skip it instead of showing a
                    // default-constructed "perfect" winner.
                    best.config.kind = space.kinds[ki];
                    best.feasible = false;
                }
            }
        },
        grid);

    exec->run(graph);
    return result;
}

std::vector<std::string>
policyRowCells(const std::string &bench, const PolicyCandidate &cand)
{
    return {bench,
            policyKindName(cand.config.kind),
            cand.config.paramSummary(),
            fmtDouble(cand.cmp.relativeEnergyDelay(), 3),
            fmtDouble(cand.out.meas.avgActiveFraction, 3),
            fmtDouble(cand.out.l1DrowsyFraction, 3),
            std::to_string(cand.out.wakeTransitions),
            fmtDouble(cand.cmp.slowdownPercent(), 2) + "%"};
}

std::vector<std::pair<std::string, double>>
policyEnergyRows(const Ledger &paper)
{
    const Ledger::Row &l1 = paper.rows.at(0);
    return {{"leak-active", l1.activeNJ}, {"leak-gated", l1.gatedNJ},
            {"leak-drowsy", l1.drowsyNJ}, {"wake", l1.wakeNJ},
            {"l1-dynamic", l1.tagNJ},
            {"l2-dynamic", paper.rows.at(1).trafficNJ}};
}

} // namespace drisim
