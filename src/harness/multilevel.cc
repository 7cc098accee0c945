/**
 * @file
 * The (L1 size-bound x L2 size-bound) multi-level search and the
 * CMP search on runGrid: detailed grid -> select.
 */

#include "harness/multilevel.hh"

#include "harness/table.hh"
#include "mem/hierarchy.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace drisim
{

namespace
{

/** @p config with its L2 resizing under @p l2. */
RunConfig
withDriL2(const RunConfig &config, const DriParams &l2)
{
    RunConfig c = config;
    c.hier.l2Dri = true;
    c.hier.l2DriParams = l2;
    return c;
}

} // namespace

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

    // Every cell runs on the *detailed* core (see the file comment
    // of harness/multilevel.hh). A cell's job key ends in its
    // run-key hash, the identity its result is memoized under and
    // its candidate reports.
    const Scorer<MultiLevelCandidate> score{constants, convDetailed,
                                            hierarchyView,
                                            maxSlowdownPct};
    const auto evaluate = [&](const MultiLevelCandidate &cell) {
        return score(cell, bench, withDriL2(config, cell.l2),
                     RunSpec{cell.l1});
    };
    std::vector<MultiLevelCandidate> cells;
    std::vector<std::string> keys;
    for (std::uint64_t b1 : space.l1SizeBounds) {
        if (!l1_base.sizeBoundFits(b1))
            continue;
        for (std::uint64_t b2 : space.l2SizeBounds) {
            if (!l2_base.sizeBoundFits(b2))
                continue;
            const MultiLevelCandidate &cell = cells.emplace_back(
                MultiLevelCandidate{
                    {},
                    cellParams(l1_base, b1, space.missBoundFloor,
                               space.l1MissBoundFactor, conv_l1_mpi),
                    cellParams(l2_base, b2, space.missBoundFloor,
                               space.l2MissBoundFactor, conv_l2_mpi)});
            keys.push_back(strFormat(
                "%s/ml-sb1=%llu/sb2=%llu#%s", bench.name.c_str(),
                static_cast<unsigned long long>(b1),
                static_cast<unsigned long long>(b2),
                runKey(bench, withDriL2(config, cell.l2), {cell.l1})
                    .hashHex()
                    .c_str()));
        }
    }

    // When nothing met the constraint, the least-harm configuration
    // at both levels is evaluated so the report carries real
    // numbers.
    const GridStep select{bench.name + "/ml-select", [&] {
        const std::optional<std::size_t> w =
            lowestFeasibleEd(result.evaluated);
        result.best =
            w ? result.evaluated[*w]
              : evaluate({{},
                          leastHarm(l1_base, space.missBoundFloor,
                                    conv_l1_mpi),
                          leastHarm(l2_base, space.missBoundFloor,
                                    conv_l2_mpi)});
    }};
    runGrid(exec, config.jobs, result.evaluated, keys,
            [&](std::size_t i) { return evaluate(cells[i]); }, select);
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

    // Every cell is a detailed CmpSystem run (see the file comment
    // of harness/multilevel.hh). The L1 size-bound is not searched:
    // each core keeps the template's and takes its own factor's
    // miss-bound.
    const Scorer<CmpCandidate> score{constants, convDetailed, cmpView,
                                     maxSlowdownPct};
    const auto evaluate = [&](const CmpCandidate &cell) {
        CmpConfig cc = cmp;
        cc.coreConfigs.clear();
        for (unsigned k = 0; k < n; ++k)
            cc.coreConfigs.push_back(
                {names[k], PolicyConfig{.dri = cell.l1[k]}});
        return score(cell, withDriL2(config, cell.l2), cc,
                     defaultBench);
    };
    std::vector<CmpCandidate> cells;
    std::vector<std::string> keys;
    for (std::uint64_t b2 : space.l2SizeBounds) {
        if (!l2_base.sizeBoundFits(b2))
            continue;
        for (std::size_t c = 0; c < combos; ++c) {
            std::vector<std::size_t> factor(n);
            std::size_t rem = c;
            for (unsigned k = n; k-- > 0;) {
                factor[k] = uniform ? c : rem % nfactors;
                rem /= nfactors;
            }
            CmpCandidate &cell = cells.emplace_back();
            cell.l2 = cellParams(l2_base, b2, space.missBoundFloor,
                                 space.l2MissBoundFactor, conv_l2_mpi);
            std::string key = strFormat(
                "%s/cmp-l2b=%llu/f=", mix.c_str(),
                static_cast<unsigned long long>(b2));
            for (unsigned k = 0; k < n; ++k) {
                cell.l1.push_back(cellParams(
                    l1_base, l1_base.sizeBoundBytes,
                    space.missBoundFloor,
                    space.l1MissBoundFactors[factor[k]],
                    conv_l1_mpi[k]));
                key += strFormat("%s%zu", k ? "-" : "", factor[k]);
            }
            keys.push_back(std::move(key));
        }
    }

    // When nothing met the constraint, the least-harm configuration
    // on every core and the L2 is evaluated so the report carries
    // real numbers.
    const GridStep select{mix + "/cmp-select", [&] {
        if (const auto w = lowestFeasibleEd(result.evaluated)) {
            result.best = result.evaluated[*w];
            return;
        }
        CmpCandidate fallback;
        for (unsigned k = 0; k < n; ++k)
            fallback.l1.push_back(leastHarm(
                l1_base, space.missBoundFloor, conv_l1_mpi[k]));
        fallback.l2 =
            leastHarm(l2_base, space.missBoundFloor, conv_l2_mpi);
        result.best = evaluate(fallback);
    }};
    runGrid(exec, config.jobs, result.evaluated, keys,
            [&](std::size_t i) { return evaluate(cells[i]); }, select);
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
