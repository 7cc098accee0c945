/**
 * @file
 * The (policy x parameter) head-to-head search, executed as a
 * JobGraph: every cell is a detailed run() of its policy landing
 * in an index-addressed slot; per-kind winners are selected by an
 * index-order scan, so results are bit-identical at any worker
 * count.
 */

#include "harness/policies.hh"

#include <algorithm>
#include <optional>

#include "harness/executor.hh"
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
                const std::uint64_t set_bytes =
                    static_cast<std::uint64_t>(c.dri.blockBytes) *
                    c.dri.assoc;
                if (sb > c.dri.sizeBytes || sb < set_bytes)
                    continue;
                PolicyCell cell{c, ki};
                cell.config.dri.sizeBoundBytes = sb;
                cell.config.dri.missBound =
                    std::max<std::uint64_t>(
                        space.missBoundFloor,
                        static_cast<std::uint64_t>(
                            space.driMissBoundFactor *
                            convMissesPerInterval));
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

    const double intervals =
        static_cast<double>(config.maxInstrs) /
        static_cast<double>(base.dri.senseInterval);
    const double conv_mpi =
        intervals > 0.0
            ? static_cast<double>(convDetailed.meas.l1iMisses) /
                  intervals
            : 0.0;

    const std::vector<PolicyCell> cells =
        enumerateCells(base, space, conv_mpi);

    const std::vector<LevelInput> conv_view = paperView(convDetailed);
    auto evaluate = [&](const PolicyConfig &pc) {
        PolicyCandidate cand;
        cand.config = pc;
        cand.out = run(bench, config, {pc});
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
        // the same identity its result is memoized under.
        grid.push_back(graph.add(
            strFormat("%s/policy=%s/%s#%s", bench.name.c_str(),
                      policyKindName(cells[i].config.kind),
                      cells[i].config.paramSummary().c_str(),
                      runKey(bench, config, {cells[i].config})
                          .hashHex()
                          .c_str()),
            [&, i](const JobContext &) {
                result.evaluated[i] = evaluate(cells[i].config);
            }));
    }

    graph.add(
        bench.name + "/policy-select",
        [&](const JobContext &) {
            // Index-order scans, one winner per kind: independent
            // of which worker finished which cell first.
            result.bestPerKind.resize(space.kinds.size());
            for (std::size_t ki = 0; ki < space.kinds.size();
                 ++ki) {
                bool have_best = false;
                double best_ed = 0.0;
                bool have_fallback = false;
                double best_slow = 0.0;
                std::size_t fallback = 0;
                for (std::size_t i = 0; i < cells.size(); ++i) {
                    if (cells[i].kindIndex != ki)
                        continue;
                    const PolicyCandidate &cand =
                        result.evaluated[i];
                    const double slow =
                        cand.cmp.slowdownPercent();
                    if (!have_fallback || slow < best_slow) {
                        have_fallback = true;
                        best_slow = slow;
                        fallback = i;
                    }
                    if (!cand.feasible)
                        continue;
                    const double ed =
                        cand.cmp.relativeEnergyDelay();
                    if (!have_best || ed < best_ed) {
                        have_best = true;
                        best_ed = ed;
                        result.bestPerKind[ki] = cand;
                    }
                }
                if (!have_best && have_fallback) {
                    // Nothing met the constraint: report the
                    // least-harm cell, marked infeasible.
                    result.bestPerKind[ki] =
                        result.evaluated[fallback];
                    result.bestPerKind[ki].feasible = false;
                } else if (!have_best && !have_fallback) {
                    // The grid filtered this kind down to zero
                    // cells (e.g. every waysActive value outside
                    // [1, assoc]): leave an explicit empty marker
                    // — correct kind, infeasible, zero cycles —
                    // so reports can skip it instead of showing a
                    // default-constructed "perfect" winner.
                    result.bestPerKind[ki].config.kind =
                        space.kinds[ki];
                    result.bestPerKind[ki].feasible = false;
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
