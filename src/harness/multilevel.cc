/**
 * @file
 * The (L1 size-bound x L2 size-bound) multi-level search, executed
 * as a JobGraph: calibrate -> fast grid -> select -> detailed
 * winner. Grid cells land in index-addressed slots and the
 * selection scans them in grid order, so results are bit-identical
 * at any worker count.
 */

#include "harness/multilevel.hh"

#include <algorithm>
#include <optional>

#include "harness/executor.hh"
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

    struct Cell
    {
        std::uint64_t l1Bound;
        std::uint64_t l2Bound;
    };
    std::vector<Cell> cells;
    const std::uint64_t l1_set_bytes =
        static_cast<std::uint64_t>(l1_base.blockBytes) *
        l1_base.assoc;
    const std::uint64_t l2_set_bytes =
        static_cast<std::uint64_t>(l2_base.blockBytes) *
        l2_base.assoc;
    for (std::uint64_t b1 : space.l1SizeBounds) {
        if (b1 > l1_base.sizeBytes || b1 < l1_set_bytes)
            continue;
        for (std::uint64_t b2 : space.l2SizeBounds) {
            if (b2 > l2_base.sizeBytes || b2 < l2_set_bytes)
                continue;
            cells.push_back({b1, b2});
        }
    }

    std::optional<Executor> local;
    if (!exec)
        exec = &local.emplace(config.jobs);
    JobGraph graph;

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
    const double l1_intervals =
        static_cast<double>(config.maxInstrs) /
        static_cast<double>(l1_base.senseInterval);
    const double l2_intervals =
        static_cast<double>(config.maxInstrs) /
        static_cast<double>(l2_base.senseInterval);
    const double conv_l1_mpi =
        l1_intervals > 0.0
            ? static_cast<double>(convDetailed.meas.l1iMisses) /
                  l1_intervals
            : 0.0;
    const double conv_l2_mpi =
        l2_intervals > 0.0
            ? static_cast<double>(convDetailed.l2Misses) /
                  l2_intervals
            : 0.0;

    auto cell_params = [&](const Cell &cell) {
        std::pair<DriParams, DriParams> p{l1_base, l2_base};
        p.first.sizeBoundBytes = cell.l1Bound;
        p.first.missBound = std::max<std::uint64_t>(
            space.missBoundFloor,
            static_cast<std::uint64_t>(space.l1MissBoundFactor *
                                       conv_l1_mpi));
        p.second.sizeBoundBytes = cell.l2Bound;
        p.second.missBound = std::max<std::uint64_t>(
            space.missBoundFloor,
            static_cast<std::uint64_t>(space.l2MissBoundFactor *
                                       conv_l2_mpi));
        return p;
    };

    auto evaluate = [&](const DriParams &p1, const DriParams &p2) {
        RunConfig ml = config;
        ml.hier.l2Dri = true;
        ml.hier.l2DriParams = p2;
        MultiLevelCandidate cand;
        cand.l1 = p1;
        cand.l2 = p2;
        cand.out = run(bench, ml, {p1});
        cand.cmp = compare(constants, convDetailed.meas.cycles,
                           conv_view, cand.out.meas.cycles,
                           hierarchyView(cand.out));
        cand.feasible = cand.cmp.meetsSlowdown(maxSlowdownPct);
        return cand;
    };

    result.evaluated.resize(cells.size());
    std::vector<JobId> grid;
    grid.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        // Content-addressed job key: the cell's full run-key hash,
        // the same identity its result is memoized under.
        const auto [kp1, kp2] = cell_params(cells[i]);
        RunConfig kml = config;
        kml.hier.l2Dri = true;
        kml.hier.l2DriParams = kp2;
        grid.push_back(graph.add(
            strFormat("%s/ml-sb1=%llu/sb2=%llu#%s",
                      bench.name.c_str(),
                      static_cast<unsigned long long>(
                          cells[i].l1Bound),
                      static_cast<unsigned long long>(
                          cells[i].l2Bound),
                      runKey(bench, kml, {kp1}).hashHex().c_str()),
            [&, i](const JobContext &) {
                const auto [p1, p2] = cell_params(cells[i]);
                result.evaluated[i] = evaluate(p1, p2);
            }));
    }

    graph.add(
        bench.name + "/ml-select",
        [&](const JobContext &) {
            // Index-order scan: independent of which worker
            // finished which cell first.
            bool have_best = false;
            double best_ed = 0.0;
            for (const MultiLevelCandidate &cand : result.evaluated) {
                if (!cand.feasible)
                    continue;
                const double ed = cand.cmp.relativeEnergyDelay();
                if (!have_best || ed < best_ed) {
                    have_best = true;
                    best_ed = ed;
                    result.best = cand;
                }
            }
            if (!have_best) {
                // Nothing met the constraint: fall back to the
                // least-harm configuration (full-size size-bounds
                // disable downsizing at both levels) and evaluate
                // it so the report carries real numbers.
                DriParams p1 = l1_base;
                p1.sizeBoundBytes = l1_base.sizeBytes;
                p1.missBound = std::max<std::uint64_t>(
                    space.missBoundFloor,
                    static_cast<std::uint64_t>(2.0 * conv_l1_mpi));
                DriParams p2 = l2_base;
                p2.sizeBoundBytes = l2_base.sizeBytes;
                p2.missBound = std::max<std::uint64_t>(
                    space.missBoundFloor,
                    static_cast<std::uint64_t>(2.0 * conv_l2_mpi));
                result.best = evaluate(p1, p2);
            }
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
    const double l1_intervals =
        static_cast<double>(config.maxInstrs) /
        static_cast<double>(l1_base.senseInterval);
    std::vector<double> conv_l1_mpi(n, 0.0);
    for (unsigned k = 0; k < n; ++k)
        conv_l1_mpi[k] =
            l1_intervals > 0.0
                ? static_cast<double>(
                      convDetailed.cores[k].meas.l1iMisses) /
                      l1_intervals
                : 0.0;
    // The shared L2 senses system-wide retirement (system/cmp.hh),
    // so its interval count runs over the sum of all cores'
    // instructions.
    double total_instrs = 0.0;
    for (const CmpCoreOutput &c : convDetailed.cores)
        total_instrs +=
            static_cast<double>(c.meas.instructions);
    const double l2_intervals =
        total_instrs / static_cast<double>(l2_base.senseInterval);
    const double conv_l2_mpi =
        l2_intervals > 0.0
            ? static_cast<double>(convDetailed.l2Misses) /
                  l2_intervals
            : 0.0;

    auto l1_params = [&](unsigned core, double factor) {
        DriParams p = l1_base;
        p.missBound = std::max<std::uint64_t>(
            space.missBoundFloor,
            static_cast<std::uint64_t>(factor *
                                       conv_l1_mpi[core]));
        return p;
    };
    auto l2_params = [&](std::uint64_t bound) {
        DriParams p = l2_base;
        p.sizeBoundBytes = bound;
        p.missBound = std::max<std::uint64_t>(
            space.missBoundFloor,
            static_cast<std::uint64_t>(space.l2MissBoundFactor *
                                       conv_l2_mpi));
        return p;
    };

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
    const std::uint64_t l2_set_bytes =
        static_cast<std::uint64_t>(l2_base.blockBytes) *
        l2_base.assoc;
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
        if (b2 > l2_base.sizeBytes || b2 < l2_set_bytes)
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
        for (unsigned k = 0; k < n; ++k) {
            CmpCoreConfig core;
            core.bench = names[k];
            core.dri = true;
            core.driParams = p1[k];
            cc.coreConfigs.push_back(std::move(core));
        }
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

    auto cell_l1_params = [&](const Cell &cell) {
        std::vector<DriParams> p1;
        p1.reserve(n);
        for (unsigned k = 0; k < n; ++k)
            p1.push_back(l1_params(
                k,
                space.l1MissBoundFactors[cell.factorIdx[k]]));
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
                result.evaluated[i] =
                    evaluate(cell_l1_params(cells[i]),
                             l2_params(cells[i].l2Bound));
            }));
    }

    graph.add(
        mix + "/cmp-select",
        [&](const JobContext &) {
            // Index-order scan: independent of which worker
            // finished which cell first.
            bool have_best = false;
            double best_ed = 0.0;
            for (const CmpCandidate &cand : result.evaluated) {
                if (!cand.feasible)
                    continue;
                const double ed =
                    cand.cmp.relativeEnergyDelay();
                if (!have_best || ed < best_ed) {
                    have_best = true;
                    best_ed = ed;
                    result.best = cand;
                }
            }
            if (!have_best) {
                // Nothing met the constraint: fall back to the
                // least-harm configuration (full-size size-bounds
                // disable downsizing everywhere) and evaluate it so
                // the report carries real numbers.
                std::vector<DriParams> p1;
                for (unsigned k = 0; k < n; ++k) {
                    DriParams p = l1_base;
                    p.sizeBoundBytes = l1_base.sizeBytes;
                    p.missBound = std::max<std::uint64_t>(
                        space.missBoundFloor,
                        static_cast<std::uint64_t>(
                            2.0 * conv_l1_mpi[k]));
                    p1.push_back(p);
                }
                DriParams p2 = l2_base;
                p2.sizeBoundBytes = l2_base.sizeBytes;
                p2.missBound = std::max<std::uint64_t>(
                    space.missBoundFloor,
                    static_cast<std::uint64_t>(2.0 *
                                               conv_l2_mpi));
                result.best = evaluate(p1, p2);
            }
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
