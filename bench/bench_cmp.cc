/**
 * @file
 * Multiprogrammed CMP study — the scale-out scenario the paper's
 * single-core evaluation leaves open: N cores with private DRI L1
 * i-caches competing for one shared resizable L2 (after Safayenikoo
 * et al. on CMP last-level-cache leakage and Bai et al. on
 * multi-level leakage trade-offs; see docs/REPRODUCTION.md,
 * Multiprogrammed CMP study).
 *
 * For each benchmark mix the (per-core L1 miss-bound x shared L2
 * size-bound) grid is searched under the paper's 4% slowdown
 * constraint applied to *system* time, every cell a detailed
 * CmpSystem run dispatched as an independent executor job
 * (byte-identical results at any --jobs; locked by golden tests).
 * The winner's energy is reported split into per-core l1i[k] rows
 * plus shared l2/mem rows whose sums define the system total.
 *
 * With --coherent the study switches from multiprogrammed private
 * data to the class-4 sharing workloads under the MSI protocol
 * (mem/directory.hh): every core touches one shared window, stores
 * invalidate remote copies, and the leakage policies pay
 * coherence-induced wakes (drowsy) and refetches (decay/DRI) that
 * the 2001 single-core paper never modelled.
 *
 *   ./bench_cmp [--cores N] [--jobs N] [--dram-banked] [--coherent]
 *               [--shard K/N] [--part PATH] [--json PATH] [--list]
 */

#include <iostream>

#include "bench_common.hh"
#include "harness/multilevel.hh"
#include "util/str.hh"

using namespace drisim;
using namespace drisim::bench;

namespace
{

/**
 * The --coherent study: sharing mixes under MSI, a conventional
 * baseline against a leakage-managed build whose L1Is alternate
 * drowsy and decay, so both coherence-induced wakes and refetches
 * appear in one run.
 */
int
runCoherentStudy(BenchContext &ctx, unsigned n)
{
    printHeader("Coherent CMP: MSI over private L1s, sharing "
                "workloads",
                "extension of Section 5; coherence costs the 2001 "
                "paper never modelled (docs/DESIGN.md)");
    std::cout << "cores: " << n << ", run length: "
              << ctx.opts.run.maxInstrs
              << " instructions per core, drowsy/decay L1I "
                 "alternation, "
              << workerBanner(ctx) << "\n";

    const MultiLevelConstants constants =
        MultiLevelConstants::paper();

    const std::vector<std::vector<std::string>> mixes =
        farm::cmpCoherentMixes(n);

    const std::vector<std::string> cols{
        "mix",       "sys-cycles", "inval",   "downgr",
        "coh-wb",    "msg-cyc",    "dir-ev",  "wakes",
        "refetches", "rel-ED"};
    Table summary(cols);
    std::vector<std::string> jsonCols = cols;
    jsonCols.push_back("config_hash");
    SweepDriver drv(ctx, "bench_cmp_coherent", "cmp_coherent",
                    jsonCols);

    // Index-addressed per-unit slots: the leakage-managed run and
    // its summary row.
    std::vector<CmpRunOutput> pols(mixes.size());
    std::vector<std::vector<std::string>> rows(mixes.size());
    const auto computeUnit = [&](std::size_t m) -> UnitRows {
        const std::vector<std::string> &benches = mixes[m];
        const std::string mix = cmpMixName(benches);

        CmpConfig conv_cmp;
        conv_cmp.cores = n;
        conv_cmp.coherence.enabled = true;
        for (const std::string &b : benches) {
            CmpCoreConfig core;
            core.bench = b;
            conv_cmp.coreConfigs.push_back(std::move(core));
        }

        CmpConfig pol_cmp = conv_cmp;
        for (unsigned k = 0; k < n; ++k) {
            CmpCoreConfig &core = pol_cmp.coreConfigs[k];
            core.dri = true;
            core.policyKind = k % 2 == 0 ? PolicyKind::Drowsy
                                         : PolicyKind::Decay;
        }

        const CmpRunOutput conv =
            runCmp(ctx.opts.run, conv_cmp, benches[0]);
        pols[m] = runCmp(ctx.opts.run, pol_cmp, benches[0]);
        const CmpRunOutput &pol = pols[m];
        const CmpComparison cc =
            compareCmp(constants, toCmpMeasurement(conv),
                       toCmpMeasurement(pol));

        std::uint64_t wakes = 0;
        std::uint64_t refetches = 0;
        for (const CmpCoreOutput &c : pol.cores) {
            wakes += c.coherenceWakes;
            refetches += c.coherenceRefetches;
        }

        rows[m] = {mix,
                   std::to_string(pol.systemCycles),
                   std::to_string(pol.coherenceInvalidations),
                   std::to_string(pol.coherenceDowngrades),
                   std::to_string(pol.coherenceWritebacks),
                   std::to_string(pol.coherenceMsgCycles),
                   std::to_string(pol.directoryEvictions),
                   std::to_string(wakes),
                   std::to_string(refetches),
                   fmtDouble(cc.relativeEnergyDelay(), 3)};
        std::vector<std::string> row = rows[m];
        row.push_back(
            runKeyCmp(ctx.opts.run, pol_cmp, benches[0]).hashHex());
        std::cerr << "  [cmp] " + mix + " done\n";
        return {std::move(row)};
    };

    // One worker on purpose: a coherent 4-core system is the largest
    // simulation in the tree, and running both mixes at once raised
    // peak RSS from 6.8 to 9.0 MB (--cores 4 --dram-banked). The
    // mixes run one after another on the calling thread.
    Executor serial(1);
    // Cross-unit pass in plan order: identical stdout at any --jobs.
    for (const std::size_t m : drv.run(computeUnit, &serial)) {
        const CmpRunOutput &pol = pols[m];
        summary.addRow(rows[m]);
        std::cout << "\n" << cmpMixName(mixes[m])
                  << ": per-core coherence attribution "
                     "(leakage-managed run)\n";
        Table t({"core", "benchmark", "policy", "inval-recv",
                 "inval-caused", "downgr", "coh-wb", "msg-cyc",
                 "wakes", "refetches"});
        for (std::size_t k = 0; k < pol.cores.size(); ++k) {
            const CmpCoreOutput &c = pol.cores[k];
            t.addRow({std::to_string(k), c.bench,
                      k % 2 == 0 ? "drowsy" : "decay",
                      std::to_string(
                          c.coherenceInvalidationsReceived),
                      std::to_string(c.coherenceInvalidationsCaused),
                      std::to_string(c.coherenceDowngrades),
                      std::to_string(c.coherenceWritebacks),
                      std::to_string(c.coherenceMsgCycles),
                      std::to_string(c.coherenceWakes),
                      std::to_string(c.coherenceRefetches)});
        }
        t.print(std::cout);
    }

    std::cout << "\n-- coherent sharing mixes (leakage-managed vs "
                 "conventional, both under MSI) --\n";
    summary.print(std::cout);
    drv.finish();
    reportFastSim(ctx);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx = defaultContext();
    if (const int rc = startBench(argc, argv, kCmpBench, ctx); rc >= 0)
        return rc;
    const unsigned n = ctx.opts.cores;
    if (ctx.opts.coherent)
        return runCoherentStudy(ctx, n);

    printHeader("CMP scale-out: private DRI L1Is over a shared "
                "resizable L2",
                "extension of Section 5 after Safayenikoo et al. "
                "and Bai et al. (PAPERS.md)");
    std::cout << "grid: (per-core L1 miss-bound x shared L2 "
                 "size-bound), <=4% system slowdown, system "
                 "energy-delay objective\n\n";
    std::cout << "cores: " << n << ", run length: "
              << ctx.opts.run.maxInstrs
              << " instructions per core, sense interval "
              << ctx.opts.dri.senseInterval << ", "
              << workerBanner(ctx) << "\n";

    const MultiLevelConstants constants =
        MultiLevelConstants::paper();
    const CmpSpace space;
    DriParams l2Template = HierarchyParams::defaultL2DriParams();
    l2Template.senseInterval = ctx.opts.dri.senseInterval;

    const std::vector<std::string> cols{
        "mix",    "L1-mb",    "L2-bound", "L2-mb",
        "rel-ED", "L1-sizes", "L2-size",  "slowdown"};
    Table summary(cols);
    // JSON rows additionally carry a canonical config hash. CMP
    // runs are not result-cached (multi-stream), so this hash is a
    // stable row identity rather than a cache join key.
    std::vector<std::string> jsonCols = cols;
    jsonCols.push_back("config_hash");
    // Under --dram-banked the rows additionally report the
    // non-blocking memory system's activity from the conventional
    // baseline run: MSHR coalescing/occupancy, DRAM row-buffer and
    // queue behaviour (per-bank row hits "h0|h1|..."), and the
    // per-core L2 demand-miss latency ("c0|c1|...") whose
    // load-dependence the acceptance study checks.
    const bool banked = ctx.opts.run.hier.dram.banked;
    if (banked)
        for (const char *c :
             {"mshr_coalesced", "mshr_full_stalls", "mshr_peak",
              "dram_row_hits", "dram_row_misses", "dram_queue_full",
              "dram_bank_row_hits", "core_miss_latency"})
            jsonCols.push_back(c);
    SweepDriver drv(ctx, "bench_cmp", "cmp", jsonCols);

    // Index-addressed per-unit slots; units run concurrently.
    std::vector<std::string> mixNames(farm::kDefaultCmpMixes);
    std::vector<CmpSearchResult> results(farm::kDefaultCmpMixes);
    const auto computeUnit = [&](std::size_t m) -> UnitRows {
        const std::vector<std::string> benches =
            farm::cmpMixBenches(static_cast<unsigned>(m), n);
        mixNames[m] = cmpMixName(benches);
        const std::string &mix = mixNames[m];

        CmpConfig cmp;
        cmp.cores = n;
        for (const std::string &b : benches) {
            CmpCoreConfig core;
            core.bench = b;
            cmp.coreConfigs.push_back(std::move(core));
        }

        const CmpRunOutput conv =
            runCmp(ctx.opts.run, cmp, benches[0]);
        results[m] = searchCmp(
            ctx.opts.run, cmp, benches[0], ctx.opts.dri, l2Template,
            space, constants, ctx.maxSlowdownPct, conv,
            &benchExecutor(ctx));
        const CmpSearchResult &sr = results[m];

        std::vector<std::string> row = cmpRowCells(mix, sr.best);
        {
            sim::ConfigKey k;
            k.add("mode", "cmp");
            k.add("mix", mix);
            k.add("cores", static_cast<std::uint64_t>(n));
            k.add("instrs", ctx.opts.run.maxInstrs);
            k.add("l2.size_bound", sr.best.l2.sizeBoundBytes);
            k.add("l2.miss_bound", sr.best.l2.missBound);
            for (std::size_t c = 0; c < sr.best.l1.size(); ++c)
                k.add("l1." + std::to_string(c) + ".miss_bound",
                      sr.best.l1[c].missBound);
            row.push_back(k.hashHex());
        }
        if (banked) {
            row.push_back(std::to_string(conv.mshrCoalesced));
            row.push_back(std::to_string(conv.mshrFullStalls));
            row.push_back(std::to_string(conv.mshrPeakOccupancy));
            row.push_back(std::to_string(conv.dramRowHits));
            row.push_back(std::to_string(conv.dramRowMisses));
            row.push_back(
                std::to_string(conv.dramQueueFullEvents));
            std::string banks;
            for (std::size_t b = 0;
                 b < conv.dramBankRowHits.size(); ++b) {
                if (b)
                    banks += "|";
                banks += std::to_string(conv.dramBankRowHits[b]);
            }
            row.push_back(banks);
            std::string lat;
            for (std::size_t c = 0; c < conv.cores.size(); ++c) {
                if (c)
                    lat += "|";
                lat += std::to_string(
                    conv.cores[c].l2MissLatencyCycles);
            }
            row.push_back(lat);
        }
        std::cerr << "  [cmp] " + mix + " done\n";
        return {std::move(row)};
    };

    // Cross-unit pass in plan order: identical stdout at any --jobs.
    const std::vector<std::size_t> ran = drv.run(computeUnit);
    double sum_ed = 0.0;
    for (const std::size_t m : ran) {
        const CmpSearchResult &sr = results[m];
        if (sr.sharedFactorSweep)
            std::cout << "note: " << mixNames[m]
                      << " swept one shared miss-bound factor "
                         "(per-core cross product over the cell "
                         "cap)\n";
        summary.addRow(cmpRowCells(mixNames[m], sr.best));
        sum_ed += sr.best.cmp.relativeEnergyDelay();
    }

    std::cout << "\n-- best configurations (<=4% system slowdown) "
                 "--\n";
    summary.print(std::cout);

    for (const std::size_t m : ran) {
        std::cout << "\n" << mixNames[m]
                  << ": conventional baseline per core\n";
        Table t({"core", "benchmark", "IPC", "L1I-miss",
                 "L2-share", "L2-misses", "contention"});
        const CmpRunOutput &conv = results[m].convDetailed;
        for (std::size_t k = 0; k < conv.cores.size(); ++k) {
            const CmpCoreOutput &c = conv.cores[k];
            const double share =
                conv.l2Accesses == 0
                    ? 0.0
                    : static_cast<double>(c.l2Accesses) /
                          static_cast<double>(conv.l2Accesses);
            t.addRow({std::to_string(k), c.bench,
                      fmtDouble(c.ipc, 2),
                      fmtDouble(100.0 * c.meas.missRate(), 3) + "%",
                      fmtDouble(100.0 * share, 1) + "%",
                      std::to_string(c.l2Misses),
                      std::to_string(c.l2ContentionEvents)});
        }
        t.print(std::cout);

        std::cout << "\n" << mixNames[m]
                  << ": winner energy (nJ; per-core l1i[k] rows + "
                     "shared l2/mem rows sum to the system total)\n";
        Table e({"level", "leakage", "dynamic", "total"});
        addHierarchyEnergyRows(e, results[m].best.cmp.dri);
        e.print(std::cout);
    }

    std::cout << "\n== headline ==\n";
    std::cout << "mean system energy-delay reduction over "
              << ran.size() << " mixes: "
              << fmtReduction(
                     sum_ed /
                     static_cast<double>(ran.empty() ? 1 : ran.size()))
              << "\n";
    drv.finish();
    reportFastSim(ctx);
    return 0;
}
