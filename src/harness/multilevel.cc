/**
 * @file
 * The (L1 size-bound x L2 size-bound) multi-level search and the
 * CMP search, each executed as a JobGraph: detailed grid -> select.
 * Grid cells land in index-addressed slots and the selection scans
 * them in grid order, so results are bit-identical at any worker
 * count.
 */

#include "harness/multilevel.hh"

#include <optional>

#include "harness/executor.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "mem/hierarchy.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace drisim
{

MultiLevelSearchResult
searchMultiLevel(const BenchmarkInfo &bench, const RunConfig &config,
                 const DriParams &l1Template,
                 const DriParams &l2Template,
                 const MultiLevelSpace &space,
                 const EnergyConstants &constants,
                 double maxSlowdownPct, const RunOutput &convDetailed,
                 Executor *exec)
{
    MultiLevelSearchResult result;
    result.convDetailed = convDetailed;

    // Resolve the templates against the configured geometry once;
    // the cells then vary only the bounds.
    const DriParams l1_base =
        driParamsForLevel(config.hier.l1i, l1Template);
    const DriParams l2_base =
        driParamsForLevel(config.hier.l2, l2Template);
    const double instrs = static_cast<double>(config.maxInstrs);
    const double conv_l1_mpi = missesPerInterval(
        convDetailed.meas.l1iMisses, instrs, l1_base.senseInterval);
    const double conv_l2_mpi = missesPerInterval(
        convDetailed.l2Misses, instrs, l2_base.senseInterval);

    // A cell's run config (the L2 resizing with p2) and its run-key
    // hash are built once: the hash is the job key, the memo key and
    // the candidate's reported identity.
    struct Cell
    {
        DriParams l1;
        DriParams l2;
        RunConfig config;
        std::string hash;
    };
    const auto make_cell = [&](const DriParams &p1,
                               const DriParams &p2) {
        Cell cell{p1, p2, config, {}};
        cell.config.hier.l2Dri = true;
        cell.config.hier.l2DriParams = p2;
        cell.hash = runKey(bench, cell.config, {p1}).hashHex();
        return cell;
    };
    std::vector<Cell> cells;
    for (std::uint64_t b1 : space.l1SizeBounds) {
        if (!l1_base.sizeBoundFits(b1))
            continue;
        for (std::uint64_t b2 : space.l2SizeBounds) {
            if (!l2_base.sizeBoundFits(b2))
                continue;
            cells.push_back(make_cell(
                cellParams(l1_base, b1, space.missBoundFloor,
                           space.l1MissBoundFactor, conv_l1_mpi),
                cellParams(l2_base, b2, space.missBoundFloor,
                           space.l2MissBoundFactor, conv_l2_mpi)));
        }
    }

    // Every cell is evaluated on the *detailed* core. The paper's
    // single-level search can lean on the fast fetch-driven model
    // because the L1 i-cache's behaviour is exact there; the L2's
    // is not — the fast model carries no d-cache traffic, so the
    // L2's miss flow, resize behaviour and slowdown are all wrong
    // there. The grid is small (|L1 bounds| x |L2 bounds|) and the
    // cells are independent executor jobs, so detailed evaluation
    // parallelizes instead of approximating.
    const std::vector<LevelInput> conv_view =
        hierarchyView(convDetailed);
    const auto evaluate = [&](const Cell &cell) {
        MultiLevelCandidate cand;
        cand.l1 = cell.l1;
        cand.l2 = cell.l2;
        cand.out = run(bench, cell.config, {cell.l1});
        cand.configHash = cell.hash;
        cand.cmp = compare(constants, convDetailed.meas.cycles,
                           conv_view, cand.out.meas.cycles,
                           hierarchyView(cand.out));
        cand.feasible = cand.cmp.meetsSlowdown(maxSlowdownPct);
        return cand;
    };

    std::optional<Executor> local;
    if (!exec)
        exec = &local.emplace(config.jobs);
    JobGraph graph;
    result.evaluated.resize(cells.size());
    std::vector<JobId> grid;
    grid.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        grid.push_back(graph.add(
            strFormat("%s/ml-sb1=%llu/sb2=%llu#%s",
                      bench.name.c_str(),
                      static_cast<unsigned long long>(
                          cells[i].l1.sizeBoundBytes),
                      static_cast<unsigned long long>(
                          cells[i].l2.sizeBoundBytes),
                      cells[i].hash.c_str()),
            [&, i](const JobContext &) {
                result.evaluated[i] = evaluate(cells[i]);
            }));

    graph.add(
        bench.name + "/ml-select",
        [&](const JobContext &) {
            // When nothing met the constraint, the least-harm
            // configuration at both levels is evaluated so the report
            // carries real numbers.
            const std::optional<std::size_t> w =
                lowestFeasibleEd(result.evaluated);
            result.best =
                w ? result.evaluated[*w]
                  : evaluate(make_cell(
                        leastHarm(l1_base, space.missBoundFloor,
                                  conv_l1_mpi),
                        leastHarm(l2_base, space.missBoundFloor,
                                  conv_l2_mpi)));
        },
        grid);

    exec->run(graph);
    return result;
}

std::vector<std::string>
multiLevelRowCells(const std::string &bench,
                   const MultiLevelCandidate &cand)
{
    return {bench,
            bytesToString(cand.l1.sizeBoundBytes),
            std::to_string(cand.l1.missBound),
            bytesToString(cand.l2.sizeBoundBytes),
            std::to_string(cand.l2.missBound),
            fmtDouble(cand.cmp.relativeEnergyDelay(), 3),
            fmtDouble(cand.out.meas.avgActiveFraction, 3),
            fmtDouble(cand.out.l2AvgActiveFraction, 3),
            fmtDouble(cand.cmp.slowdownPercent(), 2) + "%"};
}

void
addHierarchyEnergyRows(Table &t, const Ledger &l)
{
    for (const Ledger::Row &r : l.rows)
        t.addRow({r.level, fmtDouble(r.leakageNJ(), 1),
                  fmtDouble(r.dynamicNJ(), 1),
                  fmtDouble(r.totalNJ(), 1)});
    t.addRow({"hierarchy", fmtDouble(l.leakageNJ(), 1),
              fmtDouble(l.dynamicNJ(), 1), fmtDouble(l.totalNJ(), 1)});
}

// ---------------------------------------------------------------------
// CMP search
// ---------------------------------------------------------------------

std::string
cmpMixName(const std::vector<std::string> &benches)
{
    std::string mix;
    for (const std::string &b : benches) {
        if (!mix.empty())
            mix += '+';
        mix += b;
    }
    return mix;
}

namespace
{

/** "x/y/z" rendering of one per-core column. */
std::string
joinCells(const std::vector<std::string> &cells)
{
    std::string out;
    for (const std::string &c : cells) {
        if (!out.empty())
            out += '/';
        out += c;
    }
    return out;
}

} // namespace

CmpSearchResult
searchCmp(const RunConfig &config, const CmpConfig &cmp,
          const std::string &defaultBench, const DriParams &l1Template,
          const DriParams &l2Template, const CmpSpace &space,
          const EnergyConstants &constants, double maxSlowdownPct,
          const CmpRunOutput &convDetailed, Executor *exec)
{
    CmpSearchResult result;
    result.convDetailed = convDetailed;

    const unsigned n = cmp.cores;
    drisim_assert(convDetailed.cores.size() == n,
                  "searchCmp: conventional baseline has %zu cores, "
                  "config asks for %u",
                  convDetailed.cores.size(), n);
    const std::vector<std::string> names =
        cmpBenchNames(cmp, defaultBench);
    const std::string mix = cmpMixName(names);

    // Resolve the templates against the configured geometry once;
    // the cells then vary only the bounds.
    const DriParams l1_base =
        driParamsForLevel(config.hier.l1i, l1Template);
    const DriParams l2_base =
        driParamsForLevel(config.hier.l2, l2Template);

    // Per-core conventional misses per sense interval: each core's
    // miss-bound is scaled to its *own* workload, which is the point
    // of per-core controllers in a heterogeneous mix.
    const std::vector<LevelInput> conv_view = cmpView(convDetailed);
    std::vector<double> conv_l1_mpi(n, 0.0);
    for (unsigned k = 0; k < n; ++k)
        conv_l1_mpi[k] = missesPerInterval(
            convDetailed.cores[k].meas.l1iMisses,
            static_cast<double>(config.maxInstrs),
            l1_base.senseInterval);
    // The shared L2 senses system-wide retirement (system/cmp.hh),
    // so its interval count runs over the sum of all cores'
    // instructions.
    double total_instrs = 0.0;
    for (const CmpCoreOutput &c : convDetailed.cores)
        total_instrs +=
            static_cast<double>(c.meas.instructions);
    const double conv_l2_mpi = missesPerInterval(
        convDetailed.l2Misses, total_instrs, l2_base.senseInterval);

    // The grid: shared L2 size-bound (outer) x one miss-bound-factor
    // choice per core (mixed-radix inner, core 0 most significant).
    // The full cross product is |factors|^cores, which explodes —
    // and overflows size_t — at high core counts; past a sanity cap
    // the sweep degrades to one *shared* factor index (all cores
    // move together), keeping the cell count |factors| x |bounds|.
    struct Cell
    {
        std::uint64_t l2Bound;
        std::vector<unsigned> factorIdx; ///< one index per core
    };
    std::vector<Cell> cells;
    const std::size_t nfactors = space.l1MissBoundFactors.size();
    constexpr std::size_t kMaxFactorCombos = 1024;
    std::size_t combos = 1;
    bool uniform = nfactors < 2;
    if (!uniform) {
        for (unsigned k = 0; k < n; ++k) {
            if (combos > kMaxFactorCombos / nfactors) {
                uniform = true;
                result.sharedFactorSweep = true;
                warn("searchCmp: %zu^%u miss-bound combinations "
                     "exceed the %zu-cell cap; sweeping one shared "
                     "factor index across all cores instead",
                     nfactors, n, kMaxFactorCombos);
                break;
            }
            combos *= nfactors;
        }
    }
    if (uniform)
        combos = nfactors; // 0 factors -> no cells -> fallback
    for (std::uint64_t b2 : space.l2SizeBounds) {
        if (!l2_base.sizeBoundFits(b2))
            continue;
        for (std::size_t c = 0; c < combos; ++c) {
            Cell cell;
            cell.l2Bound = b2;
            cell.factorIdx.resize(n);
            std::size_t rem = c;
            for (unsigned k = n; k-- > 0;) {
                cell.factorIdx[k] = static_cast<unsigned>(
                    uniform ? c : rem % nfactors);
                rem /= nfactors;
            }
            cells.push_back(std::move(cell));
        }
    }

    auto evaluate = [&](const std::vector<DriParams> &p1,
                        const DriParams &p2) {
        RunConfig ml = config;
        ml.hier.l2Dri = true;
        ml.hier.l2DriParams = p2;
        CmpConfig cc = cmp;
        cc.coreConfigs.clear();
        for (unsigned k = 0; k < n; ++k)
            cc.coreConfigs.push_back(
                {names[k], PolicyConfig{.dri = p1[k]}});
        CmpCandidate cand;
        cand.l1 = p1;
        cand.l2 = p2;
        cand.out = runCmp(ml, cc, defaultBench);
        cand.configHash = runKeyCmp(ml, cc, defaultBench).hashHex();
        cand.cmp = compare(constants, convDetailed.systemCycles,
                           conv_view, cand.out.systemCycles,
                           cmpView(cand.out));
        cand.feasible = cand.cmp.meetsSlowdown(maxSlowdownPct);
        return cand;
    };

    // The L1 size-bound is not searched: each core keeps the
    // template's and takes its own factor's miss-bound.
    auto cell_l1_params = [&](const Cell &cell) {
        std::vector<DriParams> p1;
        p1.reserve(n);
        for (unsigned k = 0; k < n; ++k)
            p1.push_back(cellParams(
                l1_base, l1_base.sizeBoundBytes, space.missBoundFloor,
                space.l1MissBoundFactors[cell.factorIdx[k]],
                conv_l1_mpi[k]));
        return p1;
    };

    std::optional<Executor> local;
    if (!exec)
        exec = &local.emplace(config.jobs);
    JobGraph graph;

    // Every cell is a detailed CmpSystem run: the fast model carries
    // no d-cache traffic, so shared-L2 behaviour would be wrong
    // there (same reasoning as searchMultiLevel), and a CMP cell is
    // exactly the kind of coarse, independent work the executor
    // parallelizes well.
    result.evaluated.resize(cells.size());
    std::vector<JobId> grid;
    grid.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string key = strFormat(
            "%s/cmp-l2b=%llu/f=", mix.c_str(),
            static_cast<unsigned long long>(cells[i].l2Bound));
        for (unsigned k = 0; k < n; ++k)
            key += strFormat("%s%u", k ? "-" : "",
                             cells[i].factorIdx[k]);
        grid.push_back(graph.add(
            std::move(key), [&, i](const JobContext &) {
                result.evaluated[i] = evaluate(
                    cell_l1_params(cells[i]),
                    cellParams(l2_base, cells[i].l2Bound,
                               space.missBoundFloor,
                               space.l2MissBoundFactor, conv_l2_mpi));
            }));
    }

    graph.add(
        mix + "/cmp-select",
        [&](const JobContext &) {
            // When nothing met the constraint, the least-harm
            // configuration on every core and the L2 is evaluated so
            // the report carries real numbers.
            if (const auto w = lowestFeasibleEd(result.evaluated)) {
                result.best = result.evaluated[*w];
                return;
            }
            std::vector<DriParams> p1;
            for (unsigned k = 0; k < n; ++k)
                p1.push_back(leastHarm(l1_base, space.missBoundFloor,
                                       conv_l1_mpi[k]));
            result.best = evaluate(
                p1, leastHarm(l2_base, space.missBoundFloor,
                              conv_l2_mpi));
        },
        grid);

    exec->run(graph);
    return result;
}

std::vector<std::string>
cmpRowCells(const std::string &mix, const CmpCandidate &cand)
{
    std::vector<std::string> mbs;
    std::vector<std::string> sizes;
    for (std::size_t k = 0; k < cand.l1.size(); ++k) {
        mbs.push_back(std::to_string(cand.l1[k].missBound));
        sizes.push_back(
            fmtDouble(cand.out.cores[k].meas.avgActiveFraction, 3));
    }
    return {mix,
            joinCells(mbs),
            bytesToString(cand.l2.sizeBoundBytes),
            std::to_string(cand.l2.missBound),
            fmtDouble(cand.cmp.relativeEnergyDelay(), 3),
            joinCells(sizes),
            fmtDouble(cand.out.l2AvgActiveFraction, 3),
            fmtDouble(cand.cmp.slowdownPercent(), 2) + "%"};
}

} // namespace drisim
