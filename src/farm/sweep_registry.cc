/**
 * @file
 * Unit enumeration for every farm-capable sweep.
 */

#include "farm/sweep_registry.hh"

#include "harness/multilevel.hh"
#include "util/logging.hh"
#include "workload/spec_suite.hh"

namespace drisim::farm
{

namespace
{

/** A SweepUnit from a label and its identity key. */
SweepUnit
makeSweepUnit(const std::string &label, const sim::ConfigKey &key)
{
    SweepUnit u;
    u.label = label;
    u.config = key.canonical();
    u.hash = key.hash();
    u.hashHex = key.hashHex();
    return u;
}

} // namespace

const std::vector<std::string> &
sweepNames()
{
    static const std::vector<std::string> names{
        "figure3",    "figure4",  "figure5",
        "figure6",    "section56", "multilevel",
        "policies",   "cmp",      "cmp_coherent"};
    return names;
}

std::vector<std::string>
cmpMixBenches(unsigned m, unsigned cores)
{
    const auto &suite = specSuite();
    std::vector<std::string> names;
    names.reserve(cores);
    for (unsigned k = 0; k < cores; ++k)
        names.push_back(
            suite[(static_cast<std::size_t>(m) * cores + k) %
                  suite.size()]
                .name);
    return names;
}

std::vector<std::vector<std::string>>
cmpCoherentMixes(unsigned cores)
{
    std::vector<std::vector<std::string>> mixes;
    mixes.emplace_back(cores, "shared_image");
    std::vector<std::string> pc;
    for (unsigned k = 0; k < cores; ++k)
        pc.push_back(k % 2 == 0 ? "producer" : "consumer");
    mixes.push_back(std::move(pc));
    return mixes;
}

CmpConfig
mixCmpConfig(const std::vector<std::string> &benches, unsigned cores,
             bool coherent)
{
    CmpConfig cmp;
    cmp.cores = cores;
    cmp.coherence.enabled = coherent;
    for (const std::string &b : benches) {
        CmpCoreConfig core;
        core.bench = b;
        cmp.coreConfigs.push_back(std::move(core));
    }
    return cmp;
}

namespace
{

/** One unit per suite benchmark, keyed on the conventional-run
 *  identity plus the sweep name (the per-benchmark sweeps). */
std::vector<SweepUnit>
suiteUnits(const std::string &sweep, const SweepSetup &setup,
           bool honourShort)
{
    std::vector<SweepUnit> units;
    for (const BenchmarkInfo &b : specSuite()) {
        if (honourShort && setup.shortRun && b.name != "compress" &&
            b.name != "li")
            continue;
        sim::ConfigKey key = runKey(b, setup.cfg);
        key.add("sweep", std::string_view(sweep));
        units.push_back(makeSweepUnit(b.name, key));
    }
    return units;
}

std::vector<SweepUnit>
cmpUnits(const std::string &sweep, const SweepSetup &setup,
         bool coherent)
{
    std::vector<std::vector<std::string>> mixes;
    if (coherent) {
        mixes = cmpCoherentMixes(setup.cores);
    } else {
        for (unsigned m = 0; m < kDefaultCmpMixes; ++m)
            mixes.push_back(cmpMixBenches(m, setup.cores));
    }
    std::vector<SweepUnit> units;
    for (const std::vector<std::string> &benches : mixes) {
        sim::ConfigKey key = runKeyCmp(
            setup.cfg, mixCmpConfig(benches, setup.cores, coherent),
            benches[0]);
        key.add("sweep", std::string_view(sweep));
        units.push_back(makeSweepUnit(cmpMixName(benches), key));
    }
    return units;
}

} // namespace

std::vector<SweepUnit>
sweepUnits(const std::string &sweep, const SweepSetup &setup)
{
    if (sweep == "figure3" || sweep == "figure5" ||
        sweep == "figure6" || sweep == "section56" ||
        sweep == "multilevel")
        return suiteUnits(sweep, setup, /*honourShort=*/false);
    // figure4 and policies honour --short: their binaries take each
    // unit's benchmark from this plan (the CI obs smoke runs
    // bench_figure4 --short).
    if (sweep == "figure4" || sweep == "policies")
        return suiteUnits(sweep, setup, /*honourShort=*/true);
    if (sweep == "cmp")
        return cmpUnits(sweep, setup, /*coherent=*/false);
    if (sweep == "cmp_coherent")
        return cmpUnits(sweep, setup, /*coherent=*/true);
    drisim_fatal("unknown sweep '%s'", sweep.c_str());
}

} // namespace drisim::farm
