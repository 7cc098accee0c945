#include "bench_common.hh"

#include <cstdio>

#include "farm/merge.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "util/file.hh"
#include "util/str.hh"

namespace drisim::bench
{

BenchContext
defaultContext()
{
    BenchContext ctx;
    ctx.opts.run.maxInstrs = defaultRunInstrs();
    // Reject a malformed wall-clock pin now, not at the first
    // report the sweep writes.
    double pinnedWall = 0.0;
    obs::pinnedWallSeconds(pinnedWall);
    // Keep the paper's interval-to-run ratio: the paper senses
    // every 1M instructions over full SPEC runs; we sense every
    // 100K over 10M-instruction runs (docs/DESIGN.md, Scaling
    // methodology).
    ctx.opts.dri.senseInterval = 100 * 1000;
    ctx.opts.dri.divisibility = 2;
    ctx.opts.cores = 2;
    return ctx;
}

bool
parseBenchArgs(int argc, const char *const *argv, unsigned binary,
               BenchContext &ctx, std::string &error)
{
    if (!parseArgs(argc, argv, knobRows(binary), ctx.opts, error))
        return false;
    if (ctx.opts.run.hier.dram.banked) {
        // The non-blocking memory system: banked DRAM comes with
        // MSHR files at every cache level.
        ctx.opts.run.hier.l1i.mshrs = 4;
        ctx.opts.run.hier.l1d.mshrs = 4;
        ctx.opts.run.hier.l2.mshrs = 8;
        ctx.opts.dri.mshrs = 4;
    }
    return true;
}

int
startBench(int argc, char **argv, unsigned binary, BenchContext &ctx)
{
    std::string err;
    if (!parseBenchArgs(argc, argv, binary, ctx, err)) {
        std::fputs(err.c_str(), stderr);
        return 2;
    }
    if (ctx.opts.list)
        return listBenchmarks();
    err = createCheckpointDir(ctx.opts);
    if (!err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }
    installObsSinks(ctx.opts);
    return -1;
}

bool
writeJsonReport(const BenchContext &ctx,
                const std::string &benchName,
                const std::vector<std::string> &columns,
                const std::vector<std::vector<std::string>> &rows)
{
    if (ctx.opts.jsonPath.empty())
        return true;
    double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - ctx.startTime)
            .count();
    // Pinning the wall clock makes reports reproducible, so a
    // merged sharded run can be compared byte-for-byte against an
    // unsharded one (the CI farm leg sets 0).
    obs::pinnedWallSeconds(wall);
    const std::string doc = farm::renderBenchJson(
        benchName, ctx.opts.run.shard, wall,
        resolveJobCount(ctx.opts.run.jobs), columns, rows);
    if (writeFile(ctx.opts.jsonPath, doc) != WriteStep::None) {
        std::fprintf(stderr,
                     "warning: cannot write JSON report '%s'\n",
                     ctx.opts.jsonPath.c_str());
        return false;
    }
    return true;
}

farm::SweepSetup
sweepSetup(const BenchContext &ctx)
{
    farm::SweepSetup s;
    s.cfg = ctx.opts.run;
    s.cores = ctx.opts.cores;
    s.shortRun = ctx.opts.shortRun;
    return s;
}

SweepDriver::SweepDriver(const BenchContext &ctx,
                         std::string benchName,
                         const std::string &sweepName,
                         std::vector<std::string> jsonColumns,
                         const std::vector<std::string> &extraColumns)
    : ctx_(ctx), benchName_(std::move(benchName)),
      columns_(std::move(jsonColumns)),
      units_(farm::sweepUnits(sweepName, sweepSetup(ctx)))
{
    columns_.push_back("config_hash");
    columns_.insert(columns_.end(), extraColumns.begin(),
                    extraColumns.end());
    if (!ctx.opts.partPath.empty()) {
        writer_ = std::make_unique<farm::FragmentWriter>(
            ctx.opts.partPath, benchName_, ctx.opts.run.shard, columns_,
            units_);
        // Adopt resumed rows so a resumed shard's own --json (and
        // its finalized fragment) still covers every owned unit.
        for (const farm::FragmentRecord &r :
             writer_->fragment().records)
            rows_[r.index] = r.rows;
        if (writer_->resumedRecords() > 0)
            std::fprintf(
                stderr,
                "[farm] shard %s: resumed %zu completed unit%s "
                "from %s\n",
                ctx.opts.run.shard.spec().c_str(),
                writer_->resumedRecords(),
                writer_->resumedRecords() == 1 ? "" : "s",
                ctx.opts.partPath.c_str());
    }
    if (ctx.opts.run.shard.active()) {
        std::size_t owned = 0;
        for (const farm::SweepUnit &u : units_)
            if (ctx.opts.run.shard.owns(u.hash))
                ++owned;
        std::fprintf(stderr,
                     "[farm] shard %s owns %zu of %zu sweep "
                     "units\n",
                     ctx.opts.run.shard.spec().c_str(), owned,
                     units_.size());
    }
}

std::vector<std::size_t>
SweepDriver::run(const std::function<UnitRows(std::size_t)> &unitFn)
{
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < units_.size(); ++i)
        if (ctx_.opts.run.shard.owns(units_[i].hash) &&
            !(writer_ && writer_->hasRecord(i)))
            todo.push_back(i);
    // A shard with nothing to do never spawns the worker pool.
    if (todo.empty())
        return todo;

    // Create the pool before any unit starts: unit bodies reach it
    // concurrently, and benchExecutor()'s lazy set-up is not
    // thread-safe.
    Executor &pool = benchExecutor(ctx_);
    JobGraph graph;
    for (const std::size_t i : todo) {
        std::string name = benchName_ + "/unit/" + units_[i].hashHex;
        graph.add(name, [this, &unitFn, i, name](const JobContext &) {
            const auto start = std::chrono::steady_clock::now();
            UnitRows rows;
            {
                // On the worker running the unit, so the unit's job
                // and run spans nest inside it.
                obs::ScopedSpan span(obs::trace(), "farm", name,
                                     {{"label", units_[i].label}});
                rows = unitFn(i);
            }
            record(i, std::move(rows),
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count());
        });
    }
    pool.run(graph);
    return todo;
}

void
SweepDriver::record(std::size_t i, UnitRows rows, double wallSeconds)
{
    // Per-unit wall clock, pinned by the same switch as the report
    // wall clock so sharded byte-comparisons stay stable.
    obs::pinnedWallSeconds(wallSeconds);
    std::lock_guard<std::mutex> lock(mu_);
    if (writer_)
        writer_->addRecord(i, units_[i], rows,
                           strFormat("%.3f", wallSeconds));
    rows_[i] = std::move(rows);
    // Unit boundary = durability point: with the rows safely in the
    // fragment, persist the unit's memoized sub-runs too, so a kill
    // loses only the units still in flight.
    if (ctx_.opts.run.resultCache)
        ctx_.opts.run.resultCache->flush();
}

void
SweepDriver::finish()
{
    if (writer_)
        writer_->finalize();
    std::vector<std::vector<std::string>> all;
    for (const auto &[index, unitRows] : rows_)
        for (const std::vector<std::string> &row : unitRows)
            all.push_back(row);
    writeJsonReport(ctx_, benchName_, columns_, all);
}

int
listBenchmarks()
{
    std::printf("available SPEC workloads (paper Section 5.3):\n");
    for (const BenchmarkInfo &b : specSuite())
        std::printf("  %-10s (class %d)\n", b.name.c_str(),
                    b.benchClass);
    return 0;
}

Executor &
benchExecutor(const BenchContext &ctx)
{
    if (!ctx.exec)
        ctx.exec = std::make_shared<Executor>(ctx.opts.run.jobs);
    return *ctx.exec;
}

std::string
workerBanner(const BenchContext &ctx)
{
    const unsigned n = resolveJobCount(ctx.opts.run.jobs);
    return strFormat("%u worker%s (--jobs)", n, n == 1 ? "" : "s");
}

void
reportFastSim(const BenchContext &ctx)
{
    if (ctx.opts.run.resultCache) {
        ctx.opts.run.resultCache->flush();
        const sim::ResultCache::Counters c =
            ctx.opts.run.resultCache->counters();
        std::fprintf(
            stderr,
            "result-cache: hits=%llu misses=%llu stores=%llu (%s)\n",
            static_cast<unsigned long long>(c.hits),
            static_cast<unsigned long long>(c.misses),
            static_cast<unsigned long long>(c.stores),
            ctx.opts.run.resultCache->path().c_str());
    }
    if (!ctx.opts.run.checkpointDir.empty()) {
        const sim::CheckpointCounters c = sim::checkpointCounters();
        std::fprintf(
            stderr, "checkpoints: saves=%llu restores=%llu (%s)\n",
            static_cast<unsigned long long>(c.saves),
            static_cast<unsigned long long>(c.restores),
            ctx.opts.run.checkpointDir.c_str());
    }
    if (const std::uint64_t served = servedRuns())
        std::fprintf(stderr, "served: %llu cells from a sibling's run\n",
                     static_cast<unsigned long long>(served));
    // Observability artifacts flush here, after the report, so a
    // trace covers the whole run; like the lines above, the summary
    // goes to stderr to keep stdout byte-comparable.
    writeObsSinks();
}

SearchResult
computeBase(const BenchmarkInfo &bench, const BenchContext &ctx)
{
    return searchBestEnergyDelay(bench, ctx.opts.run, ctx.opts.dri,
                                 ctx.space, ctx.constants,
                                 ctx.maxSlowdownPct,
                                 run(bench, ctx.opts.run),
                                 &benchExecutor(ctx));
}

void
printHeader(const std::string &title, const std::string &paperRef)
{
    std::printf("\n================================================="
                "=============\n");
    std::printf("%s\n", title.c_str());
    std::printf("paper reference: %s\n", paperRef.c_str());
    std::printf("==================================================="
                "===========\n");
}

std::string
fmtReduction(double relative)
{
    return fmtDouble(100.0 * (1.0 - relative), 1) + "%";
}

} // namespace drisim::bench
