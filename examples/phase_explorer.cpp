/**
 * @file
 * Phase explorer: watches a DRI i-cache track a phased workload
 * (hydro2d-style init-then-loops by default) and draws the active
 * cache size over time as an ASCII strip chart — the behaviour
 * Section 5.3 describes for class 3 benchmarks.
 *
 * Accepts a comma-separated benchmark list; each benchmark's chart
 * is computed as an executor job (so a list explores in parallel at
 * --jobs > 1) and printed in list order. With --l2 the hierarchy's
 * L2 resizes too (mem/hierarchy.hh) and each sample line carries a
 * second strip for the L2 active size.
 *
 *   ./phase_explorer [benchmark[,benchmark...]] [instructions]
 *                    [--jobs N] [--l2]
 *
 * The command line goes through config/options: the benchmark,
 * instrs and jobs rows plus this binary's --l2 switch.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "config/options.hh"
#include "core/dri_icache.hh"
#include "cpu/ooo_core.hh"
#include "harness/executor.hh"
#include "harness/runner.hh"
#include "mem/hierarchy.hh"
#include "workload/generator.hh"
#include "workload/spec_suite.hh"

using namespace drisim;

namespace
{

/** --l2: a bare switch only this binary takes. */
const Knob kL2Row[] = {
    {"l2", nullptr, "resize the L2 too and chart it", Reach::None, 0,
     [](Options &o, const std::string &v, unsigned) {
         return parseFlag(v, o.run.hier.l2Dri);
     }},
};

/** Run one benchmark and render its strip chart into a string. */
std::string
exploreOne(const BenchmarkInfo &bench, InstCount instrs, bool l2Dri)
{
    const ProgramImage &image = programImageFor(bench);

    stats::StatGroup root("sim");
    HierarchyParams hp;
    hp.l2Dri = l2Dri;
    hp.l2DriParams.senseInterval = 100000;
    hp.l2DriParams.missBound = 30;
    Hierarchy hier(hp, &root, false);
    DriParams dp;
    dp.sizeBoundBytes = 1024;
    dp.senseInterval = 100000;
    dp.missBound = 150;
    DriICache icache(dp, &hier.l2(), &root);
    hier.setL1I(&icache);
    OooCore core(OooParams{}, &icache, &hier.l1d(), &root);
    core.addRetireSink(&icache);
    core.addRetireSink(hier.driL2());

    TraceGenerator gen(image);

    std::ostringstream os;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s: DRI active size per %llu-instruction interval "
                  "(# = 4K active%s)\n\n",
                  bench.name.c_str(),
                  static_cast<unsigned long long>(dp.senseInterval),
                  l2Dri ? "; L2 strip: @ = 64K active" : "");
    os << line;
    if (l2Dri)
        std::snprintf(line, sizeof(line), "%10s  %-16s  %-20s %s\n",
                      "instrs", "phase", "L1I active", "L2 active");
    else
        std::snprintf(line, sizeof(line), "%10s  %-16s  %s\n",
                      "instrs", "phase", "active size");
    os << line;

    // Step the core one sense interval at a time and sample.
    InstCount done = 0;
    while (done < instrs) {
        core.run(gen, dp.senseInterval);
        done += dp.senseInterval;
        const std::uint64_t kb = icache.currentSizeBytes() / 1024;
        std::string bar(static_cast<size_t>(kb / 4), '#');
        const std::string phase =
            image.phases[gen.currentPhase()].name;
        if (l2Dri) {
            const std::uint64_t l2kb =
                hier.driL2()->currentSizeBytes() / 1024;
            std::string l2bar(static_cast<size_t>(l2kb / 64), '@');
            std::snprintf(line, sizeof(line),
                          "%10llu  %-16s  |%-16s| %3lluK |%-16s| "
                          "%4lluK\n",
                          static_cast<unsigned long long>(done),
                          phase.c_str(), bar.c_str(),
                          static_cast<unsigned long long>(kb),
                          l2bar.c_str(),
                          static_cast<unsigned long long>(l2kb));
        } else {
            std::snprintf(line, sizeof(line),
                          "%10llu  %-16s  |%-16s| %3lluK\n",
                          static_cast<unsigned long long>(done),
                          phase.c_str(), bar.c_str(),
                          static_cast<unsigned long long>(kb));
        }
        os << line;
    }

    std::snprintf(
        line, sizeof(line),
        "\nsummary: avg active fraction %.3f, "
        "%llu downsizes, %llu upsizes, %llu blocks lost to "
        "gating, miss rate %.3f%%\n",
        icache.averageActiveFraction(),
        static_cast<unsigned long long>(icache.downsizes()),
        static_cast<unsigned long long>(icache.upsizes()),
        static_cast<unsigned long long>(icache.blocksLost()),
        100.0 * icache.missRate());
    os << line;
    if (l2Dri) {
        ResizableCache *l2 = hier.driL2();
        std::snprintf(
            line, sizeof(line),
            "L2: avg active fraction %.3f, %llu downsizes, "
            "%llu upsizes, %llu resize writebacks, miss rate "
            "%.3f%%\n",
            l2->averageActiveFraction(),
            static_cast<unsigned long long>(l2->downsizes()),
            static_cast<unsigned long long>(l2->upsizes()),
            static_cast<unsigned long long>(l2->resizeWritebacks()),
            100.0 * l2->missRate());
        os << line;
    }
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.benchmark = "hydro2d";
    opts.run.maxInstrs = 4000000;
    std::string err;
    if (!parseArgs(argc, argv, knobRows(kPhaseExplorer, kL2Row), opts,
                   err)) {
        std::fputs(err.c_str(), stderr);
        return 2;
    }

    std::vector<const BenchmarkInfo *> benches;
    std::stringstream ss(opts.benchmark);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            benches.push_back(&findBenchmark(item));
    if (benches.empty()) {
        std::fprintf(stderr, "no benchmarks given\n");
        return 2;
    }

    // Charts land in index-addressed slots and print in list order
    // whatever the completion interleaving.
    std::vector<std::string> charts(benches.size());
    Executor exec(opts.run.jobs);
    exec.forEachIndex("phase_explorer", benches.size(),
                      [&](std::size_t i, const JobContext &) {
                          charts[i] = exploreOne(
                              *benches[i], opts.run.maxInstrs,
                              opts.run.hier.l2Dri);
                      });

    for (std::size_t i = 0; i < charts.size(); ++i) {
        if (i > 0)
            std::printf("\n%s\n\n",
                        std::string(64, '=').c_str());
        std::fputs(charts[i].c_str(), stdout);
    }
    return 0;
}
