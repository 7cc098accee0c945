/**
 * @file
 * Shared plumbing for the per-figure bench binaries: default run
 * configuration, the command line (the config/options knob rows
 * each binary takes), the sweep driver, the paper's best-case
 * (miss-bound, size-bound) search per benchmark (harness/sweep's
 * searchBestEnergyDelay on the context's pool) and output helpers.
 * Results are identical at any --jobs value.
 */

#ifndef DRISIM_BENCH_BENCH_COMMON_HH
#define DRISIM_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "config/options.hh"
#include "farm/fragment.hh"
#include "farm/sweep_registry.hh"
#include "harness/executor.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"

namespace drisim::bench
{

/** Everything a figure bench needs. */
struct BenchContext
{
    /** The parsed command line: `opts.run` is the machine every
     *  run uses, `opts.dri` the DRI knobs the searches do not
     *  sweep, and `opts.cores` bench_cmp's CMP width. */
    Options opts;
    EnergyConstants constants;
    SearchSpace space;
    /** The paper's performance constraint (Section 5.3). */
    double maxSlowdownPct = 4.0;

    /** Worker pool shared by every sweep in this bench run; created
     *  by benchExecutor() so the worker threads spawn once, not per
     *  benchmark. Copies of the context share it. */
    mutable std::shared_ptr<Executor> exec;

    /** Wall-clock anchor for the JSON report (context creation). */
    std::chrono::steady_clock::time_point startTime =
        std::chrono::steady_clock::now();
};

/** The context's pool, created on first use with opts.run.jobs
 *  workers. The first use is not thread-safe: SweepDriver::run()
 *  makes it before any unit starts. */
Executor &benchExecutor(const BenchContext &ctx);

/** Default context: Table 1 system, scaled run length, the
 *  paper's sense interval and a 2-core CMP. */
BenchContext defaultContext();

/**
 * Parse a bench command line into ctx.opts through the rows
 * @p binary takes (config/options.hh: kTableBench, kSweepBench,
 * kShortBench or kCmpBench). Banked DRAM (--dram-banked) then brings
 * default MSHR files: 4 at each L1 and in the DRI template, 8 at the
 * L2; no bench binary takes an MSHR row, so nothing overrides them.
 * Installs nothing, so any command line can be parsed in a test.
 */
bool parseBenchArgs(int argc, const char *const *argv, unsigned binary,
                    BenchContext &ctx, std::string &error);

/**
 * A bench main's first step: parseBenchArgs(), then --list, or the
 * checkpoint directory (createCheckpointDir()) and the observability
 * sinks (installObsSinks()). Returns the exit status when the binary
 * is done — 2 after printing a bad command line or a checkpoint_dir
 * that cannot be created, 0 after --list — or -1 to go on.
 */
int startBench(int argc, char **argv, unsigned binary,
               BenchContext &ctx);

/**
 * One stderr line per configured fast-simulation mechanism
 * ("result-cache: hits=... misses=... stores=..." and
 * "checkpoints: saves=... restores=..."), then "served: N cells from
 * a sibling's run" when N > 0 runs were served (RunSpec::leaders);
 * silent when neither mechanism was configured and nothing was
 * served. Flushes the result cache first, so a bench that was killed
 * right after its report still leaves a complete sidecar. stderr
 * keeps stdout byte-comparable across cached/uncached runs. Then
 * writes out the trace and metrics sinks (writeObsSinks()).
 */
void reportFastSim(const BenchContext &ctx);

/**
 * Write the bench's winner rows + wall-clock since context creation
 * to ctx.opts.jsonPath. Serialized by farm::renderBenchJson — schema 2:
 * {"bench", "schema_version", "shard", "of_shards",
 * "wall_seconds", "workers", "columns", "winners"} with one winner
 * object per row, keyed by column; shard/of_shards are 0 unless
 * this process ran under --shard. The DRISIM_JSON_WALL_SECONDS
 * environment variable overrides the measured wall clock (the CI
 * farm leg pins it to compare sharded-merged against unsharded
 * output byte for byte). No-op when --json was not given; warns and
 * returns false when the file cannot be written.
 */
bool writeJsonReport(const BenchContext &ctx,
                     const std::string &benchName,
                     const std::vector<std::string> &columns,
                     const std::vector<std::vector<std::string>> &rows);

/** The registry setup describing this process's sweep (resolved CMP
 *  width, --short, final opts.run). */
farm::SweepSetup sweepSetup(const BenchContext &ctx);

/** One sweep unit's --json report rows. */
using UnitRows = std::vector<std::vector<std::string>>;

/**
 * Runs one binary's sweep through the farm layer. run() computes
 * every unit this process owns (--shard) and has not resumed (--part
 * after a kill) as the jobs of one graph, so units run concurrently
 * and a worker waiting on one unit's nested graph helps with the
 * others. Each unit's rows are recorded as soon as it returns: they
 * are appended to the fragment (rename-atomic) and the result cache
 * is flushed, so a kill loses at most the in-flight units. finish()
 * finalizes the fragment and writes the --json report from all
 * recorded rows in plan order. Unsharded without --part, this
 * degrades to plain row bookkeeping and changes nothing.
 */
class SweepDriver
{
  public:
    /**
     * @param sweepName registry name (farm/sweep_registry.hh);
     *        the unit list/order must match the binary's unit
     *        indexing.
     * @param jsonColumns the --json columns ahead of "config_hash",
     *        which this class appends: each row's canonical config
     *        hash (harness/runner.hh runKey or runKeyCmp, plus the
     *        sweep tag for a unit's key), the join key of the
     *        --result-cache sidecar, the checkpoint store and the
     *        farm's shard merge.
     * @param extraColumns columns after "config_hash".
     */
    SweepDriver(const BenchContext &ctx, std::string benchName,
                const std::string &sweepName,
                std::vector<std::string> jsonColumns,
                const std::vector<std::string> &extraColumns = {});

    const farm::SweepUnit &unit(std::size_t i) const
    {
        return units_[i];
    }

    /** Number of units in the plan (the bound of unit()). */
    std::size_t unitCount() const { return units_.size(); }

    /**
     * Compute the units and return their indices in plan order: the
     * order a binary's cross-unit pass (tables, means, stdout) walks
     * them in, which keeps stdout identical at any --jobs.
     *
     * @p unitFn(i) computes unit i and returns its --json rows. It
     * runs on a worker, concurrently with other units, so it may
     * write only unit i's slots (and writes each stderr progress
     * line with one insertion, so lines do not interleave). Units
     * run on the context's pool, which is created here, and only
     * when some unit runs. The first failure is rethrown.
     */
    std::vector<std::size_t>
    run(const std::function<UnitRows(std::size_t)> &unitFn);

    /** Finalize the fragment and write the --json report. */
    void finish();

  private:
    /** Hand over unit @p i's finished rows (thread-safe). */
    void record(std::size_t i, UnitRows rows, double wallSeconds);

    const BenchContext &ctx_;
    std::string benchName_;
    std::vector<std::string> columns_;
    std::vector<farm::SweepUnit> units_;
    std::unique_ptr<farm::FragmentWriter> writer_;
    /** Guards writer_ and rows_ while units run. */
    std::mutex mu_;
    /** Rows per completed unit, keyed by plan index. */
    std::map<std::uint64_t, UnitRows> rows_;
};

/** Print the SPEC workload names with their paper class; returns 0
 *  (the --list exit status). */
int listBenchmarks();

/** "<resolved workers> worker(s)" banner line for run headers. */
std::string workerBanner(const BenchContext &ctx);

/**
 * The paper's best-case search for one benchmark (Section 5.3): the
 * detailed conventional run, then searchBestEnergyDelay over
 * ctx.space on the context's pool under ctx.maxSlowdownPct. Its best
 * is the constrained winner; unconstrainedWinner() gives the other
 * design point of Figure 3.
 */
SearchResult computeBase(const BenchmarkInfo &bench,
                         const BenchContext &ctx);

/** Print a figure/table banner. */
void printHeader(const std::string &title,
                 const std::string &paperRef);

/** "62%" style reduction formatting from a relative value. */
std::string fmtReduction(double relative);

} // namespace drisim::bench

#endif // DRISIM_BENCH_BENCH_COMMON_HH
