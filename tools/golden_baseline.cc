/**
 * @file
 * Golden-expectation generator: runs the exact golden-test
 * configurations (tests/golden_config.hh) and prints the
 * INSTANTIATE_TEST_SUITE_P block that tools/rebaseline.sh splices
 * between the GOLDEN-BASELINE markers in tests/golden_test.cc, or,
 * given the argument `ooo_core`, the slow-d-side core counters it
 * splices into tests/ooo_core_test.cc.
 *
 * Re-baselining is therefore a deliberate, reviewable act — rerun
 * the script, read the diff, and explain the model change in the PR
 * — never a hand-edit of floating-point literals.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "golden_config.hh"

using namespace drisim;

namespace
{

std::string
g(double v)
{
    // Up to 15 significant digits round-trips the doubles the tests
    // compare at 1e-9 slack while keeping the literals readable.
    return strFormat("%.15g", v);
}

void
printSingleLevel(const std::vector<std::string> &benches)
{
    std::printf("INSTANTIATE_TEST_SUITE_P(\n"
                "    PaperPath, GoldenSearch,\n"
                "    ::testing::Values(\n");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const std::string &name = benches[i];
        const SearchResult sr = golden::runGoldenSearch(name);
        const SearchCandidate &best = sr.best;
        std::printf(
            "        GoldenCase{\"%s\", %llu, %llu, %s,\n"
            "                   %s, %s, %s,\n"
            "                   %llu, %llu,\n"
            "                   \"%s\"}%s\n",
            name.c_str(),
            static_cast<unsigned long long>(
                best.dri.sizeBoundBytes),
            static_cast<unsigned long long>(best.dri.missBound),
            best.feasible ? "true" : "false",
            g(best.cmp.relativeEnergyDelay()).c_str(),
            g(best.cmp.slowdownPercent()).c_str(),
            g(best.out.meas.avgActiveFraction).c_str(),
            static_cast<unsigned long long>(
                sr.convDetailed.meas.cycles),
            static_cast<unsigned long long>(
                sr.convDetailed.meas.l1iMisses),
            golden::renderGoldenRow(name, sr).c_str(),
            i + 1 < benches.size() ? "," : "),");
    }
    std::printf(
        "    [](const ::testing::TestParamInfo<GoldenCase> &info) "
        "{\n"
        "        return std::string(info.param.benchmark);\n"
        "    });\n");
}

void
printMultiLevel(const std::vector<std::string> &benches)
{
    std::printf("\nINSTANTIATE_TEST_SUITE_P(\n"
                "    MultiLevelPath, MultiLevelGolden,\n"
                "    ::testing::Values(\n");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const std::string &name = benches[i];
        const MultiLevelSearchResult sr =
            golden::runGoldenMultiSearch(name, 1);
        const MultiLevelCandidate &best = sr.best;
        std::printf(
            "        MultiLevelGoldenCase{\"%s\", %llu, %llu, "
            "%llu, %llu, %s,\n"
            "                             %s, %s,\n"
            "                             %s, %s,\n"
            "                             %llu, %llu,\n"
            "                             \"%s\"}%s\n",
            name.c_str(),
            static_cast<unsigned long long>(best.l1.sizeBoundBytes),
            static_cast<unsigned long long>(best.l1.missBound),
            static_cast<unsigned long long>(best.l2.sizeBoundBytes),
            static_cast<unsigned long long>(best.l2.missBound),
            best.feasible ? "true" : "false",
            g(best.cmp.relativeEnergyDelay()).c_str(),
            g(best.cmp.slowdownPercent()).c_str(),
            g(best.out.meas.avgActiveFraction).c_str(),
            g(best.out.l2AvgActiveFraction).c_str(),
            static_cast<unsigned long long>(
                sr.convDetailed.meas.cycles),
            static_cast<unsigned long long>(sr.convDetailed.l2Misses),
            golden::renderMultiLevelGoldenRow(name, sr).c_str(),
            i + 1 < benches.size() ? "," : "),");
    }
    std::printf("    [](const ::testing::TestParamInfo"
                "<MultiLevelGoldenCase> &info) {\n"
                "        return std::string(info.param.benchmark);\n"
                "    });\n");
}

void
printCmp()
{
    const CmpSearchResult sr = golden::runGoldenCmpSearch(1);
    const CmpCandidate &best = sr.best;
    std::printf("\nINSTANTIATE_TEST_SUITE_P(\n"
                "    CmpPath, CmpGolden,\n"
                "    ::testing::Values(\n");
    std::printf(
        "        CmpGoldenCase{\"%s\", %llu, %llu, %llu, %llu, "
        "%s,\n"
        "                      %s, %s,\n"
        "                      %s, %s, %s,\n"
        "                      %llu, %llu, %llu,\n"
        "                      \"%s\"}),\n",
        cmpMixName(golden::goldenCmpBenches()).c_str(),
        static_cast<unsigned long long>(best.l1[0].missBound),
        static_cast<unsigned long long>(best.l1[1].missBound),
        static_cast<unsigned long long>(best.l2.sizeBoundBytes),
        static_cast<unsigned long long>(best.l2.missBound),
        best.feasible ? "true" : "false",
        g(best.cmp.relativeEnergyDelay()).c_str(),
        g(best.cmp.slowdownPercent()).c_str(),
        g(best.out.cores[0].meas.avgActiveFraction).c_str(),
        g(best.out.cores[1].meas.avgActiveFraction).c_str(),
        g(best.out.l2AvgActiveFraction).c_str(),
        static_cast<unsigned long long>(
            sr.convDetailed.systemCycles),
        static_cast<unsigned long long>(sr.convDetailed.l2Misses),
        static_cast<unsigned long long>(
            sr.convDetailed.l2ContentionEvents),
        golden::renderCmpGoldenRow(sr).c_str());
    std::printf("    [](const ::testing::TestParamInfo"
                "<CmpGoldenCase> &) {\n"
                "        return std::string(\"compress_li\");\n"
                "    });\n");
}

void
printCoherentCmp()
{
    const golden::CoherentCmpGoldenRun run =
        golden::runGoldenCoherentCmp();
    const CmpRunOutput &pol = run.pol;
    const Comparison cc =
        compare(EnergyConstants{}, run.conv.systemCycles,
                cmpView(run.conv), pol.systemCycles, cmpView(pol));
    std::printf("\nINSTANTIATE_TEST_SUITE_P(\n"
                "    CoherentCmpPath, CoherentCmpGolden,\n"
                "    ::testing::Values(\n");
    std::printf(
        "        CoherentCmpGoldenCase{\"%s\", %llu,\n"
        "                              %llu, %llu, %llu, %llu, "
        "%llu,\n"
        "                              %llu, %llu,\n"
        "                              %llu, %llu, %llu,\n"
        "                              %s,\n"
        "                              \"%s\"}),\n",
        "shared_image+shared_image",
        static_cast<unsigned long long>(pol.systemCycles),
        static_cast<unsigned long long>(pol.coherenceInvalidations),
        static_cast<unsigned long long>(pol.coherenceDowngrades),
        static_cast<unsigned long long>(pol.coherenceWritebacks),
        static_cast<unsigned long long>(pol.coherenceMsgCycles),
        static_cast<unsigned long long>(pol.directoryEvictions),
        static_cast<unsigned long long>(
            pol.cores[0].coherenceInvalidationsReceived),
        static_cast<unsigned long long>(
            pol.cores[1].coherenceInvalidationsReceived),
        static_cast<unsigned long long>(
            pol.cores[0].coherenceWakes),
        static_cast<unsigned long long>(
            pol.cores[0].coherenceRefetches),
        static_cast<unsigned long long>(
            pol.cores[1].coherenceRefetches),
        g(cc.relativeEnergyDelay()).c_str(),
        golden::renderCoherentCmpGoldenRow(run).c_str());
    std::printf("    [](const ::testing::TestParamInfo"
                "<CoherentCmpGoldenCase> &) {\n"
                "        return std::string(\"shared_image_x2\");\n"
                "    });\n");
}

void
printPolicy(const std::vector<std::string> &benches)
{
    std::printf("\nINSTANTIATE_TEST_SUITE_P(\n"
                "    PolicyPath, PolicyGolden,\n"
                "    ::testing::Values(\n");
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const std::string &name = benches[i];
        const PolicySearchResult sr =
            golden::runGoldenPolicySearch(name, 1);
        std::printf(
            "        PolicyGoldenCase{\"%s\",\n"
            "                         %s, %s,\n"
            "                         %s, %s,\n"
            "                         %llu, %llu,\n"
            "                         \"%s\",\n"
            "                         \"%s\",\n"
            "                         \"%s\",\n"
            "                         \"%s\"}%s\n",
            name.c_str(),
            g(sr.bestPerKind[0].cmp.relativeEnergyDelay()).c_str(),
            g(sr.bestPerKind[1].cmp.relativeEnergyDelay()).c_str(),
            g(sr.bestPerKind[2].cmp.relativeEnergyDelay()).c_str(),
            g(sr.bestPerKind[3].cmp.relativeEnergyDelay()).c_str(),
            static_cast<unsigned long long>(
                sr.convDetailed.meas.cycles),
            static_cast<unsigned long long>(
                sr.convDetailed.meas.l1iMisses),
            golden::renderPolicyGoldenRow(name, sr, 0).c_str(),
            golden::renderPolicyGoldenRow(name, sr, 1).c_str(),
            golden::renderPolicyGoldenRow(name, sr, 2).c_str(),
            golden::renderPolicyGoldenRow(name, sr, 3).c_str(),
            i + 1 < benches.size() ? "," : "),");
    }
    std::printf("    [](const ::testing::TestParamInfo"
                "<PolicyGoldenCase> &info) {\n"
                "        return std::string(info.param.benchmark);\n"
                "    });\n");
}

void
printCoreCounters()
{
    std::printf("\nINSTANTIATE_TEST_SUITE_P(\n"
                "    CorePath, CoreCounterGolden,\n"
                "    ::testing::Values(\n");
    const std::vector<BenchmarkInfo> &suite = specSuite();
    const std::vector<unsigned> &assocs = golden::goldenCoreAssocs();
    for (std::size_t a = 0; a < assocs.size(); ++a) {
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const golden::CoreCounterGoldenCase c =
                golden::runGoldenCoreCounters(suite[i].name.c_str(),
                                              assocs[a]);
            const bool last =
                a + 1 == assocs.size() && i + 1 == suite.size();
            std::printf(
                "        CoreCounterGoldenCase{\"%s\", %u, %llu, "
                "%llu,\n"
                "                              %llu, %llu, %llu, "
                "%llu, %llu}%s\n",
                c.benchmark, c.l1iAssoc,
                static_cast<unsigned long long>(c.cycles),
                static_cast<unsigned long long>(c.committed),
                static_cast<unsigned long long>(c.mispredicts),
                static_cast<unsigned long long>(c.loadForwards),
                static_cast<unsigned long long>(c.robFullStalls),
                static_cast<unsigned long long>(c.icacheStallCycles),
                static_cast<unsigned long long>(c.branchStallCycles),
                last ? ")," : ",");
        }
    }
    std::printf("    [](const ::testing::TestParamInfo"
                "<CoreCounterGoldenCase> &info) {\n"
                "        return std::string(info.param.benchmark) + "
                "\"_\" +\n"
                "               std::to_string(info.param.l1iAssoc) + "
                "\"way\";\n"
                "    });\n");
}

/** The tests/ooo_core_test.cc block: the slow-d-side run. */
void
printSlowDataSide()
{
    const golden::CoreCounterGoldenCase c =
        golden::runSlowDataSideCoreCounters();
    std::printf("const golden::CoreCounterGoldenCase "
                "kSlowDataSideGolden{\n"
                "    \"%s\", %u, %llu, %llu,\n"
                "    %llu, %llu, %llu, %llu, %llu};\n",
                c.benchmark, c.l1iAssoc,
                static_cast<unsigned long long>(c.cycles),
                static_cast<unsigned long long>(c.committed),
                static_cast<unsigned long long>(c.mispredicts),
                static_cast<unsigned long long>(c.loadForwards),
                static_cast<unsigned long long>(c.robFullStalls),
                static_cast<unsigned long long>(c.icacheStallCycles),
                static_cast<unsigned long long>(c.branchStallCycles));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        if (std::string(argv[1]) != "ooo_core") {
            std::fprintf(stderr, "usage: golden_baseline [ooo_core]\n");
            return 1;
        }
        printSlowDataSide();
        return 0;
    }
    const std::vector<std::string> benches{"compress", "li"};
    std::fprintf(stderr, "regenerating golden expectations for "
                         "compress and li (single-level, "
                         "multi-level, cmp, coherent-cmp, "
                         "policies) and the whole suite (core "
                         "counters)...\n");
    printSingleLevel(benches);
    printMultiLevel(benches);
    printCmp();
    printCoherentCmp();
    printPolicy(benches);
    printCoreCounters();
    return 0;
}
