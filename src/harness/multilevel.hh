/**
 * @file
 * Multi-level DRI search: the (L1 size-bound x L2 size-bound) grid
 * for a hierarchy that resizes both the L1 i-cache and the unified
 * L2 (after Bai et al.'s multi-level leakage trade-off methodology;
 * see docs/REPRODUCTION.md).
 *
 * Applies the Section 5.3 search's rules (harness/sweep.hh: the cell
 * rule, the least-harm fallback, the index-order scan) with one
 * deliberate difference: every grid cell runs on the
 * *detailed* core. The fast fetch-driven model is exact for the L1
 * i-cache but carries no d-cache traffic, so the L2's miss flow,
 * resize behaviour and slowdown are all wrong there; the grid is
 * small and its cells are independent executor jobs, so detailed
 * evaluation parallelizes instead of approximating. Runs as a
 * JobGraph with index-addressed slots, so SearchResults are
 * bit-identical at any --jobs value (locked by golden tests).
 */

#ifndef DRISIM_HARNESS_MULTILEVEL_HH
#define DRISIM_HARNESS_MULTILEVEL_HH

#include <string>
#include <vector>

#include "harness/runner.hh"

namespace drisim
{

class Executor; // harness/executor.hh
class Table;    // harness/table.hh

/** Search-space definition for the two-level grid. */
struct MultiLevelSpace
{
    /** Candidate L1 size-bounds (bytes); filtered to the L1 range. */
    std::vector<std::uint64_t> l1SizeBounds{1024, 4096, 16384,
                                            65536};
    /** Candidate L2 size-bounds (bytes); filtered to the L2 range. */
    std::vector<std::uint64_t> l2SizeBounds{64 * 1024, 256 * 1024,
                                            1024 * 1024};
    /**
     * Miss-bounds as multiples of the conventional hierarchy's
     * misses per sense interval at each level (the paper's workable
     * miss-bounds sit one to two orders above the conventional miss
     * rate; the L2 sees far fewer misses, so its factor is lower).
     */
    double l1MissBoundFactor = 32.0;
    double l2MissBoundFactor = 8.0;
    /** Absolute floor for both miss-bounds (misses per interval). */
    std::uint64_t missBoundFloor = 16;
};

/** One evaluated two-level configuration. */
struct MultiLevelCandidate
{
    DriParams l1;
    DriParams l2;
    /** The run with both levels resizing. */
    RunOutput out;
    /** runKey hash of the run in out: the row identity
     *  bench_multilevel reports. */
    std::string configHash;
    /** Its hierarchy view against the conventional run. */
    Comparison cmp;
    bool feasible = true;
};

/** Outcome of a multi-level best-case search. */
struct MultiLevelSearchResult
{
    /** The winning configuration (lowest feasible energy-delay). */
    MultiLevelCandidate best;
    /** All detailed candidates in grid order (reporting/tests). */
    std::vector<MultiLevelCandidate> evaluated;
    /** Detailed conventional baseline used throughout. */
    RunOutput convDetailed;
};

/**
 * Search the (L1 bound x L2 bound) grid for the lowest hierarchy
 * energy-delay.
 *
 * @param bench          the benchmark
 * @param config         run configuration with a *conventional* L2
 *                       (the search switches l2Dri on per cell)
 * @param l1Template     L1 DRI knobs not being searched
 * @param l2Template     L2 DRI knobs not being searched (geometry
 *                       always follows config.hier.l2)
 * @param space          the grid
 * @param constants      per-level energy constants
 * @param maxSlowdownPct constraint; <= 0 means unconstrained
 * @param convDetailed   pre-computed detailed conventional run
 * @param exec           optional executor to reuse; otherwise one is
 *                       created with config.jobs workers
 */
MultiLevelSearchResult searchMultiLevel(
    const BenchmarkInfo &bench, const RunConfig &config,
    const DriParams &l1Template, const DriParams &l2Template,
    const MultiLevelSpace &space, const EnergyConstants &constants,
    double maxSlowdownPct, const RunOutput &convDetailed,
    Executor *exec = nullptr);

/**
 * The summary cells bench_multilevel prints for one candidate
 * (shared with the golden tests so the rendered rows cannot drift):
 * benchmark, L1 bound, L1 miss-bound, L2 bound, L2 miss-bound,
 * rel-ED, L1 avg size, L2 avg size, slowdown.
 */
std::vector<std::string>
multiLevelRowCells(const std::string &bench,
                   const MultiLevelCandidate &cand);

/**
 * Append the per-level energy rows of @p l to @p t (columns: level,
 * leakage nJ, dynamic nJ, total nJ) followed by a "hierarchy" total
 * row that equals the column sums by construction.
 */
void addHierarchyEnergyRows(Table &t, const Ledger &l);

// ---------------------------------------------------------------------
// CMP search (multiprogrammed mixes; see system/cmp.hh)
// ---------------------------------------------------------------------

/** "bench0+bench1+..." label for a CMP mix. */
std::string cmpMixName(const std::vector<std::string> &benches);

/**
 * Search-space definition for the CMP grid: each core's L1
 * miss-bound (as a factor over that core's own conventional misses
 * per sense interval) crossed with the shared L2 size-bound. The L1
 * size-bound is not searched — it comes from the L1 template — so
 * the grid stays |factors|^cores x |l2 bounds|. Past a 1024-cell
 * combination cap the per-core cross product degrades to a single
 * shared factor index (all cores move together), so wide CMPs sweep
 * |factors| x |l2 bounds| instead of exploding.
 */
struct CmpSpace
{
    /** Candidate per-core L1 miss-bound factors. */
    std::vector<double> l1MissBoundFactors{8.0, 32.0};
    /** Candidate shared-L2 size-bounds (bytes). */
    std::vector<std::uint64_t> l2SizeBounds{64 * 1024,
                                            1024 * 1024};
    /** L2 miss-bound factor over the conventional system's misses
     *  per L2 sense interval. */
    double l2MissBoundFactor = 8.0;
    /** Absolute floor for every miss-bound (misses per interval). */
    std::uint64_t missBoundFloor = 16;
};

/** One evaluated CMP configuration. */
struct CmpCandidate
{
    /** Per-core L1 DRI knobs (one entry per core). */
    std::vector<DriParams> l1;
    /** Shared-L2 resize knobs. */
    DriParams l2;
    /** The CMP run. */
    CmpRunOutput out;
    /** runKeyCmp hash of the run: the row identity bench_cmp
     *  reports for a winning cell. */
    std::string configHash;
    /** Its CMP view against the conventional CMP run. */
    Comparison cmp;
    bool feasible = true;
};

/** Outcome of a CMP best-case search. */
struct CmpSearchResult
{
    /** The winning configuration (lowest feasible system ED). */
    CmpCandidate best;
    /** All detailed candidates in grid order (reporting/tests). */
    std::vector<CmpCandidate> evaluated;
    /** Detailed conventional CMP baseline used throughout. */
    CmpRunOutput convDetailed;
    /**
     * The per-core factor cross product tripped the 1024-cell cap
     * and the sweep degraded to one shared factor index across all
     * cores. Logged as a warning when it happens; callers should
     * surface it next to the results (the grid no longer explores
     * per-core heterogeneity).
     */
    bool sharedFactorSweep = false;
};

/**
 * Search the (per-core L1 miss-bound x shared L2 size-bound) grid
 * for the lowest system energy-delay. Every cell is a detailed
 * CmpSystem run dispatched as an independent executor job
 * (index-addressed slots, index-order selection), so results are
 * byte-identical at any --jobs value (locked by golden tests).
 *
 * @param config         run configuration with a *conventional* L2
 *                       (the search switches l2Dri on per cell)
 * @param cmp            CMP shape; per-core benchmarks resolve
 *                       against @p defaultBench
 * @param defaultBench   benchmark for cores without coreK.bench
 * @param l1Template     L1 DRI knobs not being searched
 * @param l2Template     L2 DRI knobs not being searched
 * @param space          the grid
 * @param constants      per-level energy constants
 * @param maxSlowdownPct constraint on *system* time; <= 0 means
 *                       unconstrained
 * @param convDetailed   pre-computed conventional CMP baseline
 * @param exec           optional executor to reuse; otherwise one is
 *                       created with config.jobs workers
 */
CmpSearchResult searchCmp(
    const RunConfig &config, const CmpConfig &cmp,
    const std::string &defaultBench, const DriParams &l1Template,
    const DriParams &l2Template, const CmpSpace &space,
    const EnergyConstants &constants, double maxSlowdownPct,
    const CmpRunOutput &convDetailed, Executor *exec = nullptr);

/**
 * The summary cells bench_cmp prints for one candidate (shared with
 * the golden tests so the rendered rows cannot drift): mix,
 * per-core L1 miss-bounds, shared L2 bound + miss-bound, rel-ED,
 * per-core L1 avg sizes, L2 avg size, system slowdown.
 */
std::vector<std::string> cmpRowCells(const std::string &mix,
                                     const CmpCandidate &cand);

} // namespace drisim

#endif // DRISIM_HARNESS_MULTILEVEL_HH
