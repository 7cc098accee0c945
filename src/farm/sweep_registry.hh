/**
 * @file
 * Registry of sharded sweeps: for every farm-capable bench binary,
 * the ordered list of row-producing units it will execute, with each
 * unit's stable identity key (label, canonical config string, FNV-1a
 * hash).
 *
 * The binaries themselves iterate this list (bench/bench_common.hh,
 * SweepDriver), so the registry cannot drift from what actually
 * runs; the shard-algebra tests iterate it too, proving for every
 * sweep that shard plans at any N are pairwise disjoint, covering
 * and independent of execution order (tests/farm_test.cc).
 *
 * A unit is one top-level sweep cell — one SPEC benchmark for the
 * figure sweeps, one benchmark mix for the CMP studies — not an
 * inner grid point: winner selection needs a unit's full
 * (miss-bound x size-bound) grid on one process, so the grid rides
 * along with its unit.
 */

#ifndef DRISIM_FARM_SWEEP_REGISTRY_HH
#define DRISIM_FARM_SWEEP_REGISTRY_HH

#include <string>
#include <vector>

#include "farm/fragment.hh"
#include "harness/runner.hh"

namespace drisim::farm
{

/** Number of benchmark mixes the default bench_cmp study runs. */
constexpr unsigned kDefaultCmpMixes = 2;

/**
 * Everything that decides a sweep's unit list and unit identities:
 * the final run configuration (after the binary's own tweaks, e.g.
 * bench_policies forcing 4-way) plus the binary-level knobs that
 * change the workload set.
 */
struct SweepSetup
{
    RunConfig cfg;
    /** Resolved CMP width (cmp sweeps only). */
    unsigned cores = 2;
    /** bench_policies --short workload subset. */
    bool shortRun = false;
};

/** The registered sweep names, in stable order. */
const std::vector<std::string> &sweepNames();

/**
 * The ordered unit list the named sweep executes under @p setup.
 * Order matches the binary's own loop exactly (suite order for the
 * figure sweeps, mix order for the CMP studies). Fatal on an
 * unknown name.
 */
std::vector<SweepUnit> sweepUnits(const std::string &sweep,
                                  const SweepSetup &setup);

/** Default-study mix @p m: @p cores consecutive suite benchmarks,
 *  rotating (bench_cmp's mix rule). */
std::vector<std::string> cmpMixBenches(unsigned m, unsigned cores);

/** The --coherent study's sharing mixes for @p cores cores. */
std::vector<std::vector<std::string>>
cmpCoherentMixes(unsigned cores);

/**
 * The conventional-baseline CmpConfig mix @p benches runs on @p cores
 * cores, under MSI when @p coherent. A CMP unit's identity key is
 * built from it, and bench_cmp runs it (the leakage-managed build
 * derives from it deterministically).
 */
CmpConfig mixCmpConfig(const std::vector<std::string> &benches,
                       unsigned cores, bool coherent);

} // namespace drisim::farm

#endif // DRISIM_FARM_SWEEP_REGISTRY_HH
