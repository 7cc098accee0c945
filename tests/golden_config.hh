/**
 * @file
 * The golden-test harness configuration, shared between
 * tests/golden_test.cc (which asserts against pinned expectations)
 * and tools/golden_baseline.cc (which regenerates those
 * expectations via tools/rebaseline.sh). Keeping the run
 * definitions in one header guarantees the re-baseline tool can
 * never drift from what the tests actually execute.
 */

#ifndef DRISIM_TESTS_GOLDEN_CONFIG_HH
#define DRISIM_TESTS_GOLDEN_CONFIG_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/ooo_core.hh"
#include "harness/multilevel.hh"
#include "harness/policies.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "mem/hierarchy.hh"
#include "util/str.hh"
#include "workload/generator.hh"

namespace drisim::golden
{

/** Pinned expectations for one single-level search benchmark. */
struct GoldenCase
{
    const char *benchmark;
    // Winner identity.
    std::uint64_t sizeBoundBytes;
    std::uint64_t missBound;
    bool feasible;
    // Winner detailed comparison.
    double relativeEnergyDelay;
    double slowdownPercent;
    double averageSizeFraction;
    // Detailed conventional baseline.
    std::uint64_t convCycles;
    std::uint64_t convMisses;
    // Rendered figure-3-style table row.
    const char *row;
};

/** Pinned expectations for one multi-level search benchmark. */
struct MultiLevelGoldenCase
{
    const char *benchmark;
    // Winner identity.
    std::uint64_t l1SizeBound;
    std::uint64_t l1MissBound;
    std::uint64_t l2SizeBound;
    std::uint64_t l2MissBound;
    bool feasible;
    // Winner comparison.
    double relativeEnergyDelay;
    double slowdownPercent;
    double l1AvgSize;
    double l2AvgSize;
    // Detailed conventional baseline.
    std::uint64_t convCycles;
    std::uint64_t convL2Misses;
    // Rendered bench_multilevel-style summary row.
    const char *row;
};

/** Pinned expectations for the cores=2 (compress+li) CMP search. */
struct CmpGoldenCase
{
    const char *mix;
    // Winner identity (per-core L1 miss-bounds + shared L2 bound).
    std::uint64_t l1MissBound0;
    std::uint64_t l1MissBound1;
    std::uint64_t l2SizeBound;
    std::uint64_t l2MissBound;
    bool feasible;
    // Winner comparison.
    double relativeEnergyDelay;
    double slowdownPercent;
    double l1AvgSize0;
    double l1AvgSize1;
    double l2AvgSize;
    // Detailed conventional CMP baseline.
    std::uint64_t convSystemCycles;
    std::uint64_t convL2Misses;
    std::uint64_t convContentionEvents;
    // Rendered bench_cmp-style summary row.
    const char *row;
};

/**
 * Pinned expectations for the coherent cores=2 shared_image run:
 * both cores walk one shared window under MSI, core 0's L1I is
 * drowsy and core 1's is decay, so invalidation-induced wakes and
 * refetches both appear (system/cmp.hh, mem/directory.hh).
 */
struct CoherentCmpGoldenCase
{
    const char *mix;
    std::uint64_t systemCycles;
    // Coherence totals (leakage-managed run).
    std::uint64_t invalidations;
    std::uint64_t downgrades;
    std::uint64_t writebacks;
    std::uint64_t msgCycles;
    std::uint64_t directoryEvictions;
    // Per-core attribution — nonzero on both cores by design.
    std::uint64_t invalRecv0;
    std::uint64_t invalRecv1;
    // Policy-visible effects: drowsy core 0 wakes and refetches,
    // decay core 1 refetches only (no wakeable state).
    std::uint64_t wakes0;
    std::uint64_t refetches0;
    std::uint64_t refetches1;
    // Winner comparison vs the coherent conventional baseline.
    double relativeEnergyDelay;
    // Rendered bench_cmp --coherent summary row.
    const char *row;
};

/**
 * Pinned expectations for one benchmark's policy head-to-head: one
 * entry per policy kind in search order (dri, decay, drowsy, ways).
 */
struct PolicyGoldenCase
{
    const char *benchmark;
    /** Per-kind winner relative energy-delay (distinct by design —
     *  the head-to-head is meaningless otherwise; asserted). */
    double driEd;
    double decayEd;
    double drowsyEd;
    double waysEd;
    /** Detailed conventional baseline (64K 4-way L1I). */
    std::uint64_t convCycles;
    std::uint64_t convMisses;
    /** Rendered bench_policies-style winner rows, one per kind. */
    const char *driRow;
    const char *decayRow;
    const char *drowsyRow;
    const char *waysRow;
};

/**
 * Pinned OooCore counters for one benchmark on one L1I geometry:
 * the direct view of the detailed core's timing model, so a change
 * to how the core schedules work cannot move any of them unnoticed.
 */
struct CoreCounterGoldenCase
{
    const char *benchmark;
    unsigned l1iAssoc;
    std::uint64_t cycles;
    std::uint64_t committed;
    std::uint64_t mispredicts;
    std::uint64_t loadForwards;
    std::uint64_t robFullStalls;
    std::uint64_t icacheStallCycles;
    std::uint64_t branchStallCycles;
};

/** The L1I associativities the core-counter golden covers: the
 *  Table 1 direct-mapped L1I and bench_policies' 4-way one. */
inline const std::vector<unsigned> &
goldenCoreAssocs()
{
    static const std::vector<unsigned> assocs{1, 4};
    return assocs;
}

/** The counters of @p core, which ran @p name on an
 *  @p l1iAssoc-way L1I. */
inline CoreCounterGoldenCase
coreCounters(const char *name, unsigned l1iAssoc, const OooCore &core)
{
    return CoreCounterGoldenCase{
        name,
        l1iAssoc,
        core.cycles(),
        core.committed(),
        core.mispredicts(),
        core.loadForwards(),
        core.robFullStalls(),
        core.icacheStallCycles(),
        core.branchStallCycles()};
}

/**
 * The fixed core-counter golden run: 200 K instructions of @p name
 * through an OooCore on the Table 1 hierarchy with an
 * @p l1iAssoc-way L1I.
 */
inline CoreCounterGoldenCase
runGoldenCoreCounters(const char *name, unsigned l1iAssoc)
{
    RunConfig cfg;
    cfg.hier.l1i.assoc = l1iAssoc;
    stats::StatGroup root("sim");
    Hierarchy hier(cfg.hier, &root, true);
    OooCore core(cfg.core, hier.l1i(), &hier.l1d(), &root);
    TraceGenerator gen(programImageFor(findBenchmark(name)));
    core.run(gen, 200 * 1000);
    return coreCounters(name, l1iAssoc, core);
}

/**
 * A d-side without cache state whose latency depends only on the
 * 64-byte line: every value from 1 to 1024 cycles, so completion
 * events fall both on OooCore's 256-cycle timing wheel and past it.
 */
class SlowDataSide : public MemoryLevel
{
  public:
    AccessResult
    access(Addr addr, AccessType) override
    {
        const Cycles latency =
            1 + ((addr / 64) * 0x9e3779b97f4a7c15ull >> 54);
        if (latency >= 256)
            ++longAccesses_;
        return AccessResult{latency == 1, latency};
    }

    /** Accesses that took 256 cycles or more. */
    std::uint64_t longAccesses() const { return longAccesses_; }

  private:
    std::uint64_t longAccesses_ = 0;
};

/** Instructions of li the slow-d-side golden run commits. */
constexpr InstCount kSlowDataSideInstrs = 100 * 1000;

/**
 * The slow-d-side golden run (tests/ooo_core_test.cc): li through an
 * OooCore with the Table 1 L1I and a SlowDataSide for loads and
 * stores.
 */
inline CoreCounterGoldenCase
runSlowDataSideCoreCounters()
{
    RunConfig cfg;
    stats::StatGroup root("sim");
    Hierarchy hier(cfg.hier, &root, true);
    SlowDataSide dside;
    OooCore core(cfg.core, hier.l1i(), &dside, &root);
    TraceGenerator gen(programImageFor(findBenchmark("li")));
    core.run(gen, kSlowDataSideInstrs);
    return coreCounters("li", cfg.hier.l1i.assoc, core);
}

/** The fixed single-level golden run (Section 5.3 search). */
inline SearchResult
runGoldenSearch(const std::string &name)
{
    const auto &b = findBenchmark(name);
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    const RunOutput conv = run(b, cfg);

    SearchSpace space;
    space.sizeBounds = {1024, 4096, 65536};
    space.missBoundFactors = {2.0, 32.0};
    DriParams tmpl;
    tmpl.senseInterval = 50000;
    return searchBestEnergyDelay(b, cfg, tmpl, space,
                                 EnergyConstants{}, 4.0, conv);
}

/** The fixed multi-level golden run ((L1 x L2) bound grid). */
inline MultiLevelSearchResult
runGoldenMultiSearch(const std::string &name, unsigned jobs)
{
    const auto &b = findBenchmark(name);
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    cfg.jobs = jobs;
    const RunOutput conv = run(b, cfg);

    MultiLevelSpace space;
    space.l1SizeBounds = {1024, 4096, 65536};
    space.l2SizeBounds = {64 * 1024, 1024 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 50000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 50000;
    return searchMultiLevel(b, cfg, l1Tmpl, l2Tmpl, space,
                            EnergyConstants{}, 4.0, conv);
}

/**
 * The fixed policy head-to-head golden run: one cell per policy
 * kind over the shared 64K 4-way geometry bench_policies uses.
 */
inline PolicySearchResult
runGoldenPolicySearch(const std::string &name, unsigned jobs)
{
    const auto &b = findBenchmark(name);
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    cfg.jobs = jobs;
    cfg.hier.l1i.assoc = 4;
    const RunOutput conv = run(b, cfg);

    PolicyConfig tmpl;
    tmpl.dri.senseInterval = 50000;
    PolicySpace space;
    space.driSizeBounds = {4096};
    space.decayIntervals = {50000};
    space.drowsyIntervals = {50000};
    space.waysActive = {1};
    return searchPolicies(b, cfg, tmpl, space,
                          EnergyConstants{}, 4.0, conv);
}
inline const std::vector<std::string> &
goldenCmpBenches()
{
    static const std::vector<std::string> benches{"compress", "li"};
    return benches;
}

/** The fixed CMP golden run (per-core L1 mb x shared L2 bound). */
inline CmpSearchResult
runGoldenCmpSearch(unsigned jobs)
{
    RunConfig cfg;
    cfg.maxInstrs = 300 * 1000;
    cfg.jobs = jobs;

    CmpConfig cmp;
    cmp.cores = 2;
    for (const std::string &b : goldenCmpBenches()) {
        CmpCoreConfig core;
        core.bench = b;
        cmp.coreConfigs.push_back(std::move(core));
    }
    const CmpRunOutput conv =
        runCmp(cfg, cmp, goldenCmpBenches()[0]);

    CmpSpace space;
    space.l1MissBoundFactors = {2.0, 32.0};
    space.l2SizeBounds = {64 * 1024, 1024 * 1024};
    DriParams l1Tmpl;
    l1Tmpl.senseInterval = 50000;
    DriParams l2Tmpl = HierarchyParams::defaultL2DriParams();
    l2Tmpl.senseInterval = 50000;
    return searchCmp(cfg, cmp, goldenCmpBenches()[0], l1Tmpl,
                     l2Tmpl, space, EnergyConstants{}, 4.0, conv);
}

/** One CSV line from a Table (the row after the header). */
inline std::string
csvRow(Table &t)
{
    std::ostringstream os;
    t.printCsv(os);
    const std::string out = os.str();
    const std::size_t nl = out.find('\n');
    return out.substr(nl + 1, out.find('\n', nl + 1) - nl - 1);
}

/** The cells bench_figure3 prints for a winner, as CSV. */
inline std::string
renderGoldenRow(const std::string &name, const SearchResult &sr)
{
    Table t({"benchmark", "size-bound", "miss-bound", "rel-ED",
             "avg-size", "slowdown"});
    const SearchCandidate &c = sr.best;
    t.addRow({name, bytesToString(c.dri.sizeBoundBytes),
              std::to_string(c.dri.missBound),
              fmtDouble(c.cmp.relativeEnergyDelay(), 3),
              fmtDouble(c.out.meas.avgActiveFraction, 3),
              fmtDouble(c.cmp.slowdownPercent(), 2) + "%"});
    return csvRow(t);
}

/** The cells bench_multilevel prints for a winner, as CSV. */
inline std::string
renderMultiLevelGoldenRow(const std::string &name,
                          const MultiLevelSearchResult &sr)
{
    Table t({"benchmark", "L1-bound", "L1-mb", "L2-bound", "L2-mb",
             "rel-ED", "L1-size", "L2-size", "slowdown"});
    t.addRow(multiLevelRowCells(name, sr.best));
    return csvRow(t);
}

/** One bench_policies-style winner row for kind index @p k, as
 *  CSV. */
inline std::string
renderPolicyGoldenRow(const std::string &name,
                      const PolicySearchResult &sr, std::size_t k)
{
    Table t({"benchmark", "policy", "params", "rel-ED", "active",
             "drowsy", "wakes", "slowdown"});
    t.addRow(policyRowCells(name, sr.bestPerKind.at(k)));
    return csvRow(t);
}

/**
 * Full-precision serialization of every observable of a policy
 * search result — the --jobs determinism contract for
 * searchPolicies (two runs at different --jobs values must be
 * byte-identical).
 */
inline std::string
serializePolicyResult(const PolicySearchResult &sr)
{
    std::ostringstream os;
    auto cand = [&](const PolicyCandidate &c) {
        os << strFormat(
            "%s %s feasible=%d ed=%.17g slow=%.17g active=%.17g "
            "drowsy=%.17g wakes=%llu",
            policyKindName(c.config.kind),
            c.config.paramSummary().c_str(), c.feasible ? 1 : 0,
            c.cmp.relativeEnergyDelay(), c.cmp.slowdownPercent(),
            c.out.meas.avgActiveFraction, c.out.l1DrowsyFraction,
            static_cast<unsigned long long>(c.out.wakeTransitions));
        for (const auto &[label, nj] : policyEnergyRows(c.cmp.run))
            os << strFormat(" %s=%.17g", label.c_str(), nj);
        os << "\n";
    };
    os << "conv cycles=" << sr.convDetailed.meas.cycles
       << " misses=" << sr.convDetailed.meas.l1iMisses << "\n";
    for (const PolicyCandidate &c : sr.evaluated)
        cand(c);
    os << "best:\n";
    for (const PolicyCandidate &c : sr.bestPerKind)
        cand(c);
    return os.str();
}

/** The cells bench_cmp prints for a winner, as CSV. */
inline std::string
renderCmpGoldenRow(const CmpSearchResult &sr)
{
    Table t({"mix", "L1-mb", "L2-bound", "L2-mb", "rel-ED",
             "L1-sizes", "L2-size", "slowdown"});
    t.addRow(cmpRowCells(cmpMixName(goldenCmpBenches()), sr.best));
    return csvRow(t);
}

/**
 * Full-precision serialization of every observable of a CMP search
 * result — the --jobs determinism contract for searchCmp (two runs
 * at different --jobs values must be byte-identical).
 */
inline std::string
serializeCmpResult(const CmpSearchResult &sr)
{
    std::ostringstream os;
    auto cand = [&](const CmpCandidate &c) {
        for (const DriParams &p : c.l1)
            os << strFormat(
                "l1=%llu/%llu ",
                static_cast<unsigned long long>(p.sizeBoundBytes),
                static_cast<unsigned long long>(p.missBound));
        os << strFormat(
            "l2=%llu/%llu feasible=%d ed=%.17g slow=%.17g",
            static_cast<unsigned long long>(c.l2.sizeBoundBytes),
            static_cast<unsigned long long>(c.l2.missBound),
            c.feasible ? 1 : 0, c.cmp.relativeEnergyDelay(),
            c.cmp.slowdownPercent());
        for (std::size_t k = 0; k < c.l1.size(); ++k)
            os << strFormat(" sz%zu=%.17g", k,
                            c.out.cores[k].meas.avgActiveFraction);
        for (const Ledger::Row &r : c.cmp.run.rows)
            os << strFormat(" %s=%.17g+%.17g", r.level.c_str(),
                            r.leakageNJ(), r.dynamicNJ());
        os << "\n";
    };
    os << "conv cycles=" << sr.convDetailed.systemCycles
       << " l2misses=" << sr.convDetailed.l2Misses
       << " contention=" << sr.convDetailed.l2ContentionEvents
       << " mem=" << sr.convDetailed.memAccesses << "\n";
    for (const CmpCandidate &c : sr.evaluated)
        cand(c);
    os << "best: ";
    cand(sr.best);
    return os.str();
}

/** Both halves of the fixed coherent CMP golden run. */
struct CoherentCmpGoldenRun
{
    CmpRunOutput conv; ///< conventional L1Is, protocol on
    CmpRunOutput pol;  ///< drowsy/decay L1Is, protocol on
};

/**
 * The fixed coherent CMP golden run — the same pairing bench_cmp
 * --coherent evaluates for the all-shared_image mix: MSI enabled in
 * both runs, the leakage-managed build alternating drowsy (core 0)
 * and decay (core 1) L1Is. A direct paired run, not a searchCmp
 * grid: the DRI-bound search varies knobs drowsy/decay cores never
 * consume, so a search golden would pin nothing coherent.
 */
inline CoherentCmpGoldenRun
runGoldenCoherentCmp()
{
    RunConfig cfg;
    cfg.maxInstrs = 300 * 1000;

    CmpConfig conv;
    conv.cores = 2;
    conv.coherence.enabled = true;
    for (unsigned k = 0; k < conv.cores; ++k) {
        CmpCoreConfig core;
        core.bench = "shared_image";
        conv.coreConfigs.push_back(std::move(core));
    }

    CmpConfig pol = conv;
    for (unsigned k = 0; k < pol.cores; ++k)
        pol.coreConfigs[k].l1i = PolicyConfig{
            .kind = k % 2 == 0 ? PolicyKind::Drowsy : PolicyKind::Decay};

    CoherentCmpGoldenRun out;
    out.conv = runCmp(cfg, conv, "shared_image");
    out.pol = runCmp(cfg, pol, "shared_image");
    return out;
}

/** The cells bench_cmp --coherent prints for a mix, as CSV. */
inline std::string
renderCoherentCmpGoldenRow(const CoherentCmpGoldenRun &run)
{
    const Comparison cc =
        compare(EnergyConstants{}, run.conv.systemCycles,
                cmpView(run.conv), run.pol.systemCycles,
                cmpView(run.pol));
    std::uint64_t wakes = 0;
    std::uint64_t refetches = 0;
    for (const CmpCoreOutput &c : run.pol.cores) {
        wakes += c.coherenceWakes;
        refetches += c.coherenceRefetches;
    }
    Table t({"mix", "sys-cycles", "inval", "downgr", "coh-wb",
             "msg-cyc", "dir-ev", "wakes", "refetches", "rel-ED"});
    t.addRow({"shared_image+shared_image",
              std::to_string(run.pol.systemCycles),
              std::to_string(run.pol.coherenceInvalidations),
              std::to_string(run.pol.coherenceDowngrades),
              std::to_string(run.pol.coherenceWritebacks),
              std::to_string(run.pol.coherenceMsgCycles),
              std::to_string(run.pol.directoryEvictions),
              std::to_string(wakes), std::to_string(refetches),
              fmtDouble(cc.relativeEnergyDelay(), 3)});
    return csvRow(t);
}

/**
 * Full-precision serialization of every observable of one coherent
 * CMP run pair — the replay-determinism contract for the coherent
 * path (any two executions, including ones racing on different
 * threads, must be byte-identical).
 */
inline std::string
serializeCoherentCmp(const CoherentCmpGoldenRun &run)
{
    std::ostringstream os;
    auto half = [&](const char *tag, const CmpRunOutput &o) {
        os << strFormat(
            "%s sys=%llu inval=%llu downgr=%llu wb=%llu msg=%llu "
            "dirEv=%llu l2acc=%llu l2miss=%llu mem=%llu\n",
            tag, static_cast<unsigned long long>(o.systemCycles),
            static_cast<unsigned long long>(
                o.coherenceInvalidations),
            static_cast<unsigned long long>(o.coherenceDowngrades),
            static_cast<unsigned long long>(o.coherenceWritebacks),
            static_cast<unsigned long long>(o.coherenceMsgCycles),
            static_cast<unsigned long long>(o.directoryEvictions),
            static_cast<unsigned long long>(o.l2Accesses),
            static_cast<unsigned long long>(o.l2Misses),
            static_cast<unsigned long long>(o.memAccesses));
        for (const CmpCoreOutput &c : o.cores)
            os << strFormat(
                "  core cyc=%llu recv=%llu caused=%llu downgr=%llu "
                "wb=%llu msg=%llu wakes=%llu refetch=%llu "
                "drowsy=%.17g gated=%.17g\n",
                static_cast<unsigned long long>(c.meas.cycles),
                static_cast<unsigned long long>(
                    c.coherenceInvalidationsReceived),
                static_cast<unsigned long long>(
                    c.coherenceInvalidationsCaused),
                static_cast<unsigned long long>(
                    c.coherenceDowngrades),
                static_cast<unsigned long long>(
                    c.coherenceWritebacks),
                static_cast<unsigned long long>(
                    c.coherenceMsgCycles),
                static_cast<unsigned long long>(c.coherenceWakes),
                static_cast<unsigned long long>(
                    c.coherenceRefetches),
                c.l1DrowsyFraction, c.l1GatedFraction);
    };
    half("conv", run.conv);
    half("pol", run.pol);
    return os.str();
}

/**
 * Full-precision serialization of every observable of a multi-level
 * search result. Two runs at different --jobs values must produce
 * byte-identical serializations (the determinism contract of the
 * executor, harness/executor.hh).
 */
inline std::string
serializeMultiLevelResult(const MultiLevelSearchResult &sr)
{
    std::ostringstream os;
    auto cand = [&](const MultiLevelCandidate &c) {
        os << strFormat(
            "l1=%llu/%llu l2=%llu/%llu feasible=%d "
            "ed=%.17g slow=%.17g l1sz=%.17g l2sz=%.17g",
            static_cast<unsigned long long>(c.l1.sizeBoundBytes),
            static_cast<unsigned long long>(c.l1.missBound),
            static_cast<unsigned long long>(c.l2.sizeBoundBytes),
            static_cast<unsigned long long>(c.l2.missBound),
            c.feasible ? 1 : 0, c.cmp.relativeEnergyDelay(),
            c.cmp.slowdownPercent(), c.out.meas.avgActiveFraction,
            c.out.l2AvgActiveFraction);
        for (const Ledger::Row &r : c.cmp.run.rows)
            os << strFormat(" %s=%.17g+%.17g", r.level.c_str(),
                            r.leakageNJ(), r.dynamicNJ());
        os << "\n";
    };
    os << "conv cycles=" << sr.convDetailed.meas.cycles
       << " l2misses=" << sr.convDetailed.l2Misses
       << " mem=" << sr.convDetailed.memAccesses << "\n";
    for (const MultiLevelCandidate &c : sr.evaluated)
        cand(c);
    os << "best: ";
    cand(sr.best);
    return os.str();
}

} // namespace drisim::golden

#endif // DRISIM_TESTS_GOLDEN_CONFIG_HH
