/**
 * @file
 * The (policy x parameter) head-to-head search on runGrid: every
 * cell is a detailed run() of its policy; per-kind winners are
 * picked by index-order scans.
 */

#include "harness/policies.hh"

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

    // Every cell runs on the detailed core (same reasoning as the
    // multi-level search: cells are few, coarse and independent, so
    // detail parallelizes instead of approximating). Content-
    // addressed job keys: each cell's full run-key hash, the same
    // identity its result is memoized under and its candidate
    // reports.
    std::vector<std::string> keys;
    for (const PolicyCell &cell : cells)
        keys.push_back(strFormat(
            "%s/policy=%s/%s#%s", bench.name.c_str(),
            policyKindName(cell.config.kind),
            cell.config.paramSummary().c_str(),
            runKey(bench, config, {cell.config}).hashHex().c_str()));
    // Every Dri cell after the one of the smallest size-bound may be
    // served from it: the Dri cells share one miss-bound factor.
    const auto isDri = [&](std::size_t i) {
        return cells[i].config.kind == PolicyKind::Dri;
    };
    const std::optional<std::size_t> smallest = lowestKey(
        cells.size(),
        [&](std::size_t i) {
            return static_cast<double>(cells[i].config.dri.sizeBoundBytes);
        },
        isDri);
    GridLeaders leaders(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (smallest && isDri(i) && i > *smallest)
            leaders[i] = {*smallest};
    const Scorer<PolicyCandidate> score{constants, convDetailed,
                                        paperView, maxSlowdownPct};
    const GridStep select{bench.name + "/policy-select", [&] {
        // One winner per kind, by index-order scans over that
        // kind's cells.
        result.bestPerKind.resize(space.kinds.size());
        for (std::size_t ki = 0; ki < space.kinds.size(); ++ki) {
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
    }};
    runGrid(exec, config.jobs, result.evaluated, keys,
            [&](std::size_t i) {
                return score({{}, cells[i].config}, bench, config,
                             RunSpec{cells[i].config, nullptr,
                                     leadsOf(result.evaluated,
                                             leaders[i])});
            },
            select, {}, leaders);
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
