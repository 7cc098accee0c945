#include "bench_common.hh"

#include <algorithm>
#include <cstdio>

#include "farm/merge.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
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
    std::FILE *f = std::fopen(ctx.opts.jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr,
                     "warning: cannot write JSON report '%s'\n",
                     ctx.opts.jsonPath.c_str());
        return false;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
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
                         std::vector<std::string> jsonColumns)
    : ctx_(ctx), benchName_(std::move(benchName)),
      columns_(std::move(jsonColumns)),
      units_(farm::sweepUnits(sweepName, sweepSetup(ctx)))
{
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
SweepDriver::run(const std::function<UnitRows(std::size_t)> &unitFn,
                 Executor *exec)
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
    Executor &pool = exec ? *exec : benchExecutor(ctx_);
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
    // Observability artifacts flush here, after the report, so a
    // trace covers the whole run; like the lines above, the summary
    // goes to stderr to keep stdout byte-comparable.
    writeObsSinks();
}

BaseResult
computeBase(const BenchmarkInfo &bench, const BenchContext &ctx)
{
    BaseResult out;

    struct Cell
    {
        std::uint64_t sizeBound;
        double factor;
    };
    std::vector<Cell> cells;
    for (std::uint64_t size_bound : ctx.space.sizeBounds) {
        if (size_bound > ctx.opts.dri.sizeBytes)
            continue;
        for (double factor : ctx.space.missBoundFactors)
            cells.push_back({size_bound, factor});
    }

    Executor &exec = benchExecutor(ctx);
    JobGraph graph;

    // Content-addressed job keys: the base-config hash makes every
    // key unique per configuration, so job-keyed artifacts (seeds,
    // traces) never collide across differently-configured sweeps.
    const std::string cfgHash = runKey(bench, ctx.opts.run).hashHex();

    const JobId conv = graph.add(
        bench.name + "/conv-detailed#" + cfgHash,
        [&](const JobContext &) {
            out.conv = run(bench, ctx.opts.run);
        });

    FastCalibration cal;
    RunOutput conv_fast;
    double conv_mpi = 0.0;
    const JobId calibrate = graph.add(
        bench.name + "/calibrate",
        [&](const JobContext &) {
            cal = calibrateFast(bench, ctx.opts.run, out.conv);
            conv_fast = run(bench, ctx.opts.run, {ConventionalL1i{}, &cal});
            const double intervals =
                static_cast<double>(ctx.opts.run.maxInstrs) /
                static_cast<double>(ctx.opts.dri.senseInterval);
            conv_mpi =
                static_cast<double>(conv_fast.meas.l1iMisses) /
                intervals;
        },
        {conv});

    struct CellResult
    {
        DriParams dri;
        double ed = 0.0;
        double slowdown = 0.0;
    };
    std::vector<CellResult> slots(cells.size());
    std::vector<JobId> grid;
    grid.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        grid.push_back(graph.add(
            strFormat("%s/sb=%llu/mbf=%g#%s", bench.name.c_str(),
                      static_cast<unsigned long long>(
                          cells[i].sizeBound),
                      cells[i].factor, cfgHash.c_str()),
            [&, i](const JobContext &) {
                DriParams p = ctx.opts.dri;
                p.sizeBoundBytes = cells[i].sizeBound;
                p.missBound = std::max<std::uint64_t>(
                    ctx.space.missBoundFloor,
                    static_cast<std::uint64_t>(cells[i].factor *
                                               conv_mpi));

                const RunOutput d = run(bench, ctx.opts.run, {p, &cal});
                const ComparisonResult cmp = compareRuns(
                    ctx.constants, conv_fast.meas, d.meas);
                slots[i] = {p, cmp.relativeEnergyDelay(),
                            cmp.slowdownPercent()};
            },
            {calibrate}));
    }

    // Listing calibrate explicitly also covers the empty-grid case,
    // where select (and the winner jobs behind it) would otherwise
    // run unordered with respect to conv-detailed and calibrate.
    std::vector<JobId> selectDeps = grid;
    selectDeps.push_back(calibrate);

    DriParams params_c = ctx.opts.dri;
    DriParams params_u = ctx.opts.dri;
    bool u_distinct = false;
    const JobId select = graph.add(
        bench.name + "/select",
        [&](const JobContext &) {
            // Index-order scan: independent of which worker finished
            // which cell first.
            bool have_c = false;
            bool have_u = false;
            double best_c = 0.0;
            double best_u = 0.0;
            for (const CellResult &cell : slots) {
                if (!have_u || cell.ed < best_u) {
                    have_u = true;
                    best_u = cell.ed;
                    params_u = cell.dri;
                }
                if (cell.slowdown <= ctx.maxSlowdownPct &&
                    (!have_c || cell.ed < best_c)) {
                    have_c = true;
                    best_c = cell.ed;
                    params_c = cell.dri;
                }
            }
            if (!have_c) {
                // Constraint unreachable (fpppp-like): pin to full
                // size.
                params_c = ctx.opts.dri;
                params_c.sizeBoundBytes = ctx.opts.dri.sizeBytes;
                params_c.missBound = std::max<std::uint64_t>(
                    ctx.space.missBoundFloor,
                    static_cast<std::uint64_t>(2.0 * conv_mpi));
            }
            u_distinct =
                have_u && !(params_u.sizeBoundBytes ==
                                params_c.sizeBoundBytes &&
                            params_u.missBound == params_c.missBound);
        },
        selectDeps);

    graph.add(
        bench.name + "/winner-constrained",
        [&](const JobContext &) {
            out.constrained.dri = params_c;
            out.constrained.cmp = evaluateDetailed(
                bench, ctx.opts.run, params_c, ctx.constants, out.conv);
            out.constrained.feasible =
                out.constrained.cmp.slowdownPercent() <=
                ctx.maxSlowdownPct;
        },
        {select});

    graph.add(
        bench.name + "/winner-unconstrained",
        [&](const JobContext &) {
            // Runs concurrently with the constrained winner; when
            // both searches picked the same cell the copy happens
            // after the graph (the constrained job may still be in
            // flight here).
            if (!u_distinct)
                return;
            out.unconstrained.dri = params_u;
            out.unconstrained.cmp = evaluateDetailed(
                bench, ctx.opts.run, params_u, ctx.constants, out.conv);
        },
        {select});

    exec.run(graph);

    if (!u_distinct)
        out.unconstrained = out.constrained;
    out.unconstrained.feasible = true;
    return out;
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
