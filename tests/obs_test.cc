/**
 * @file
 * Observability-layer tests (src/obs/): the trace-event writer's
 * canonical ordering and strict reader, the interval time-series
 * recorder's CSV canonicalization, the interval CSVs each L1I
 * flavour's series carries, and the two locks the layer promises:
 *
 *  - with DRISIM_JSON_WALL_SECONDS pinned, trace and metrics output
 *    is byte-identical at --jobs 1 vs --jobs 4 (the span/sample
 *    *set*, not the scheduling, determines the bytes);
 *  - the interval CSV reconstructs the DRI active-size trajectory
 *    and the drowsy wake events per interval — the per-interval
 *    deltas integrate back to the end-of-run aggregates.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/executor.hh"
#include "harness/runner.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "workload/spec_suite.hh"

#include "same_run.hh"

namespace drisim
{
namespace
{

/** Pin the wall clock for the enclosing scope (and reset the global
 *  sinks, which latch the pin at construction). */
class PinnedClock
{
  public:
    PinnedClock() { setenv("DRISIM_JSON_WALL_SECONDS", "0", 1); }
    ~PinnedClock()
    {
        unsetenv("DRISIM_JSON_WALL_SECONDS");
        obs::resetTrace();
        obs::resetMetrics();
    }
};

std::string
tempPath(const char *name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/" + name;
}

// --------------------------------------------------------------
// Trace writer: ordering, rendering, strict reader
// --------------------------------------------------------------

obs::TraceSpan
span(const char *cat, const char *name, std::uint64_t ts = 0,
     std::uint64_t dur = 0)
{
    obs::TraceSpan s;
    s.cat = cat;
    s.name = name;
    s.ts = ts;
    s.dur = dur;
    return s;
}

TEST(Trace, RenderReadRoundTrip)
{
    std::vector<obs::TraceSpan> spans;
    spans.push_back(span("run", "compress/dri", 10, 500));
    obs::TraceSpan withArgs = span("job", "li/sb=1024\n\"x\"", 5, 7);
    withArgs.tid = 3;
    withArgs.args.emplace_back("worker", "3");
    withArgs.args.emplace_back("stolen", "true");
    spans.push_back(withArgs);

    const std::string path = tempPath("obs_roundtrip.trace.json");
    std::string err;
    ASSERT_TRUE(obs::writeTraceFile(path, spans, err)) << err;

    std::vector<obs::TraceSpan> back;
    ASSERT_TRUE(obs::readTrace(path, back, err)) << err;
    ASSERT_EQ(back.size(), 2u);
    // Canonical order: category first ("job" < "run").
    EXPECT_EQ(back[0].cat, "job");
    EXPECT_EQ(back[0].name, "li/sb=1024\n\"x\"");
    EXPECT_EQ(back[0].ts, 5u);
    EXPECT_EQ(back[0].dur, 7u);
    EXPECT_EQ(back[0].tid, 3u);
    ASSERT_EQ(back[0].args.size(), 2u);
    EXPECT_EQ(back[0].args[0].first, "worker");
    EXPECT_EQ(back[0].args[1].second, "true");
    EXPECT_EQ(back[1].cat, "run");

    // Re-writing the parsed spans reproduces the file byte-for-byte.
    const std::string again = tempPath("obs_roundtrip2.trace.json");
    ASSERT_TRUE(obs::writeTraceFile(again, back, err)) << err;
    std::vector<obs::TraceSpan> twice;
    ASSERT_TRUE(obs::readTrace(again, twice, err)) << err;
    EXPECT_EQ(obs::renderTraceEvents(back),
              obs::renderTraceEvents(twice));
    std::remove(path.c_str());
    std::remove(again.c_str());
}

TEST(Trace, ReaderIsStrict)
{
    const std::string path = tempPath("obs_bad.trace.json");
    std::vector<obs::TraceSpan> out;
    std::string err;
    EXPECT_FALSE(obs::readTrace(path + ".missing", out, err));

    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"traceEvents\": [{\"name\": 7}]}", f);
    std::fclose(f);
    EXPECT_FALSE(obs::readTrace(path, out, err));
    EXPECT_FALSE(err.empty());
    std::remove(path.c_str());
}

TEST(Trace, WallClockPinIsStrict)
{
    double v = -1.0;
    unsetenv("DRISIM_JSON_WALL_SECONDS");
    EXPECT_FALSE(obs::pinnedWallSeconds(v));
    setenv("DRISIM_JSON_WALL_SECONDS", "", 1); // empty = unset
    EXPECT_FALSE(obs::pinnedWallSeconds(v));
    setenv("DRISIM_JSON_WALL_SECONDS", "0", 1);
    EXPECT_TRUE(obs::pinnedWallSeconds(v));
    EXPECT_EQ(v, 0.0);
    setenv("DRISIM_JSON_WALL_SECONDS", "12.5", 1);
    EXPECT_TRUE(obs::pinnedWallSeconds(v));
    EXPECT_EQ(v, 12.5);

    // A malformed or negative pin fails loudly, naming the variable,
    // instead of leaving timestamps live or reporting a negative
    // wall clock.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"zero", "0s", "nan", "inf", "1e999", " 0",
                            "0 ", "-1", "-0.5", "-0"}) {
        setenv("DRISIM_JSON_WALL_SECONDS", bad, 1);
        EXPECT_EXIT(obs::pinnedWallSeconds(v),
                    ::testing::ExitedWithCode(1),
                    "DRISIM_JSON_WALL_SECONDS")
            << "DRISIM_JSON_WALL_SECONDS='" << bad << "'";
    }
    unsetenv("DRISIM_JSON_WALL_SECONDS");
}

TEST(Trace, MergedSpanCountIsSumOfInputs)
{
    // The sweep_merge contract: union = concatenate + canonical
    // re-sort, so the merged count is exactly the sum.
    std::string err;
    const std::string a = tempPath("obs_merge_a.trace.json");
    const std::string b = tempPath("obs_merge_b.trace.json");
    const std::string m = tempPath("obs_merge_out.trace.json");
    ASSERT_TRUE(obs::writeTraceFile(
        a, {span("farm", "u1"), span("farm", "u2")}, err));
    ASSERT_TRUE(obs::writeTraceFile(
        b, {span("farm", "u3"), span("job", "j"), span("farm", "u1")},
        err));
    std::vector<obs::TraceSpan> all, spans;
    ASSERT_TRUE(obs::readTrace(a, spans, err));
    all.insert(all.end(), spans.begin(), spans.end());
    ASSERT_TRUE(obs::readTrace(b, spans, err));
    all.insert(all.end(), spans.begin(), spans.end());
    ASSERT_TRUE(obs::writeTraceFile(m, all, err));
    std::vector<obs::TraceSpan> merged;
    ASSERT_TRUE(obs::readTrace(m, merged, err));
    EXPECT_EQ(merged.size(), 5u);
    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(m.c_str());
}

// --------------------------------------------------------------
// Time-series recorder: CSV canonicalization
// --------------------------------------------------------------

TEST(Metrics, IntervalAlignsToRetireBatch)
{
    // Intervals align down to the fast model's 64-instruction
    // retire batch so chunked execution stays bit-identical.
    EXPECT_EQ(obs::TimeSeriesRecorder("x", 1000).interval(), 960u);
    EXPECT_EQ(obs::TimeSeriesRecorder("x", 64).interval(), 64u);
    EXPECT_EQ(obs::TimeSeriesRecorder("x", 63).interval(), 64u);
    EXPECT_EQ(obs::TimeSeriesRecorder("x", 1).interval(), 64u);
    EXPECT_EQ(obs::TimeSeriesRecorder("x", 100000).interval(),
              99968u);
}

TEST(Metrics, CsvIsCanonicalUnionOfColumns)
{
    obs::TimeSeriesRecorder rec("x", 64);
    // Recorded out of series order, with differing metric sets.
    rec.record("b/run#02", 64, {{"cpi", 1.5}, {"wakes", 3.0}});
    rec.record("a/run#01", 64, {{"cpi", 1.25}});
    rec.record("a/run#01", 128, {{"cpi", 2.0}, {"resizes", 1.0}});
    EXPECT_EQ(rec.sampleCount(), 3u);
    const std::string csv = rec.renderCsv();
    // Header: series,instrs then the sorted union of metric names;
    // series in name order; missing metrics render as 0.
    EXPECT_EQ(csv, "series,instrs,cpi,resizes,wakes\n"
                   "a/run#01,64,1.25,0,0\n"
                   "a/run#01,128,2,1,0\n"
                   "b/run#02,64,1.5,0,3\n");

    obs::MetricsCsv parsed;
    std::string err;
    ASSERT_TRUE(obs::parseMetricsCsvText(csv, parsed, err)) << err;
    ASSERT_EQ(parsed.columns.size(), 5u);
    ASSERT_EQ(parsed.rows.size(), 3u);
    EXPECT_EQ(parsed.rows[2].series, "b/run#02");
    EXPECT_EQ(parsed.rows[2].instrs, 64u);
    const int wakes = parsed.column("wakes");
    ASSERT_GE(wakes, 0);
    EXPECT_EQ(parsed.rows[2].values[wakes], 3.0);
    EXPECT_EQ(parsed.column("nonexistent"), -1);
}

// --------------------------------------------------------------
// Reconstruction: the interval CSV carries the run's trajectory
// --------------------------------------------------------------

RunConfig
shortConfig()
{
    RunConfig cfg;
    cfg.maxInstrs = 400 * 1000;
    return cfg;
}

TEST(MetricsReconstruction, DriActiveSizeTrajectoryAndResizes)
{
    PinnedClock pin;
    const std::string path = tempPath("obs_dri.metrics.csv");
    obs::initMetrics(path, 50 * 1000);

    const BenchmarkInfo &bench = findBenchmark("compress");
    const RunConfig cfg = shortConfig();
    DriParams dri;
    dri.sizeBoundBytes = 1024;
    dri.missBound = 100;
    dri.senseInterval = 50 * 1000;
    const RunOutput out = run(bench, cfg, {dri});

    obs::MetricsCsv csv;
    std::string err;
    ASSERT_TRUE(
        obs::parseMetricsCsvText(obs::metrics()->renderCsv(), csv,
                                 err))
        << err;
    ASSERT_FALSE(csv.rows.empty());
    const int bytes = csv.column("active_bytes");
    const int resizes = csv.column("resizes");
    const int frac = csv.column("active_fraction");
    ASSERT_GE(bytes, 0);
    ASSERT_GE(resizes, 0);
    ASSERT_GE(frac, 0);

    // The active-size trajectory: every interval's instantaneous
    // size is a legal DRI size (bound <= size <= full, power of
    // two), and the per-interval resize deltas integrate back to
    // the run's resize total.
    double resizeSum = 0.0;
    for (const auto &row : csv.rows) {
        const double b = row.values[bytes];
        EXPECT_GE(b, static_cast<double>(dri.sizeBoundBytes));
        EXPECT_LE(b, static_cast<double>(dri.sizeBytes));
        EXPECT_EQ(static_cast<std::uint64_t>(b) &
                      (static_cast<std::uint64_t>(b) - 1),
                  0u);
        EXPECT_GE(row.values[frac], 0.0);
        EXPECT_LE(row.values[frac], 1.0);
        resizeSum += row.values[resizes];
    }
    EXPECT_EQ(static_cast<std::uint64_t>(resizeSum), out.resizes);
    // The run actually resized under this aggressive bound, so the
    // trajectory is non-trivial.
    EXPECT_GT(out.resizes, 0u);

    // The phase table renders these rows (the trace_report view).
    const std::string table = obs::renderPhaseTable(csv, "dri");
    EXPECT_NE(table.find("compress/dri#"), std::string::npos);
    EXPECT_NE(table.find("active_bytes"), std::string::npos);
}

TEST(MetricsReconstruction, DrowsyWakeDeltasIntegrateToTotal)
{
    PinnedClock pin;
    const std::string path = tempPath("obs_drowsy.metrics.csv");
    obs::initMetrics(path, 50 * 1000);

    const BenchmarkInfo &bench = findBenchmark("compress");
    const RunConfig cfg = shortConfig();
    PolicyConfig pc;
    pc.kind = PolicyKind::Drowsy;
    const RunOutput out = run(bench, cfg, {pc});

    obs::MetricsCsv csv;
    std::string err;
    ASSERT_TRUE(
        obs::parseMetricsCsvText(obs::metrics()->renderCsv(), csv,
                                 err))
        << err;
    ASSERT_FALSE(csv.rows.empty());
    const int wakes = csv.column("wakes");
    const int drowsy = csv.column("drowsy_fraction");
    ASSERT_GE(wakes, 0);
    ASSERT_GE(drowsy, 0);
    double wakeSum = 0.0;
    for (const auto &row : csv.rows) {
        EXPECT_GE(row.values[drowsy], 0.0);
        EXPECT_LE(row.values[drowsy], 1.0);
        wakeSum += row.values[wakes];
    }
    EXPECT_EQ(static_cast<std::uint64_t>(wakeSum),
              out.wakeTransitions);
    EXPECT_GT(out.wakeTransitions, 0u);
}

TEST(MetricsReconstruction, MeteredRunMatchesUnmeteredResults)
{
    // Chunked (metered) execution must be bit-identical to the
    // plain run: metrics are a tap, never a perturbation. Fast runs
    // replay a recorded stream in metered chunks.
    const BenchmarkInfo &bench = findBenchmark("li");
    const RunConfig cfg = shortConfig();
    DriParams dri;
    dri.sizeBoundBytes = 2048;
    dri.missBound = 100;
    PolicyConfig pol;
    pol.kind = PolicyKind::Drowsy;
    pol.dri = dri;
    pol.drowsy.drowsyInterval = 20 * 1000;
    const RunOutput conv = run(bench, cfg);
    const FastCalibration cal = calibrateFast(bench, cfg, conv);

    const auto runAll = [&] {
        return std::vector<RunOutput>{
            run(bench, cfg, {dri}),
            run(bench, cfg, {ConventionalL1i{}, &cal}),
            run(bench, cfg, {dri, &cal}),
            run(bench, cfg, {pol, &cal})};
    };
    const std::vector<RunOutput> plain = runAll();

    PinnedClock pin;
    obs::initMetrics(tempPath("obs_metered.metrics.csv"), 30 * 1000);
    const std::vector<RunOutput> metered = runAll();
    EXPECT_GT(obs::metrics()->sampleCount(), 0u);
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameRun(plain[i], metered[i]);
    }
}

// --------------------------------------------------------------
// Pinned interval CSVs: what each L1I flavour's series carries
// --------------------------------------------------------------

/** The interval CSV of @p runs, each run under a fresh sink sampling
 *  every @p interval instructions. */
template <typename Runs>
std::string
meteredCsv(InstCount interval, Runs &&runs)
{
    PinnedClock pin;
    obs::initMetrics(tempPath("obs_pin.metrics.csv"), interval);
    runs();
    return obs::metrics()->renderCsv();
}

/** The rows of @p csv whose series name contains @p mode. */
std::vector<obs::MetricsCsv::Row>
seriesRows(const obs::MetricsCsv &csv, const std::string &mode)
{
    std::vector<obs::MetricsCsv::Row> rows;
    for (const obs::MetricsCsv::Row &row : csv.rows)
        if (row.series.find(mode) != std::string::npos)
            rows.push_back(row);
    return rows;
}

obs::MetricsCsv
parsedCsv(const std::string &text)
{
    obs::MetricsCsv csv;
    std::string err;
    EXPECT_TRUE(obs::parseMetricsCsvText(text, csv, err)) << err;
    return csv;
}

TEST(MetricsPins, DriParamsSeriesOnFlatMemory)
{
    DriParams dri;
    dri.sizeBoundBytes = 1024;
    dri.missBound = 2000;
    dri.senseInterval = 10 * 1000;
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    const std::string csv = meteredCsv(25 * 1000, [&] {
        run(findBenchmark("compress"), cfg, {dri});
    });
    EXPECT_EQ(csv,
              "series,instrs,active_bytes,active_fraction,cpi,cycles,l1d_miss_rate,l1i_miss_rate,l2_miss_rate,mshr_peak_occupancy,resizes\n"
              "compress/dri#bdaf1cb94cc29bf7,24960,16384,0.760704324,1.14903846,28680,0.129069469,0.0331638293,0.507346586,0,2\n"
              "compress/dri#bdaf1cb94cc29bf7,49920,4096,0.129565277,0.881971154,22014,0.00226999599,0.0439390594,0.476851852,0,2\n"
              "compress/dri#bdaf1cb94cc29bf7,74880,1024,0.0234689369,0.736778846,18390,0,0.0512764085,0.291845494,0,2\n"
              "compress/dri#bdaf1cb94cc29bf7,99840,1024,0.015625,0.426642628,10649,0,0.0549258936,0,0,0\n"
              "compress/dri#bdaf1cb94cc29bf7,100000,1024,0.015625,0.18125,29,0,0,0,0,0\n");
}

TEST(MetricsPins, DrowsySeriesOnFlatMemory)
{
    PolicyConfig pc;
    pc.kind = PolicyKind::Drowsy;
    pc.drowsy.drowsyInterval = 20 * 1000;
    RunConfig cfg;
    cfg.maxInstrs = 100 * 1000;
    const std::string csv = meteredCsv(25 * 1000, [&] {
        run(findBenchmark("compress"), cfg, {pc});
    });
    EXPECT_EQ(csv,
              "series,instrs,active_bytes,active_fraction,cpi,cycles,drowsy_fraction,l1d_miss_rate,l1i_miss_rate,l2_miss_rate,mshr_peak_occupancy,resizes,wake_stall_cycles,wakes\n"
              "compress/policy#e576eb115290a211,24960,60439.7113,0.922236806,1.14907853,28681,0.0777631942,0.129069469,0.0331638293,0.507346586,0,0,4,16\n"
              "compress/policy#e576eb115290a211,49920,1953.55516,0.0298088861,0.882091346,22017,0.970191114,0.00226999599,0.0439390594,0.476851852,0,0,3,202\n"
              "compress/policy#e576eb115290a211,74880,3130.11992,0.0477618396,0.692908654,17295,0.95223816,0,0.029709507,0.503703704,0,0,94,229\n"
              "compress/policy#e576eb115290a211,99840,3512.85509,0.0536019148,0.311858974,7784,0.946398085,0,0.000217959895,0,0,0,250,251\n"
              "compress/policy#e576eb115290a211,100000,6144,0.09375,0.18125,29,0.90625,0,0,0,0,0,0,0\n");
}

TEST(MetricsPins, ConventionalSeriesIsFullyActive)
{
    // A conventional L1I is always fully powered, on either core
    // model, so a CSV that also holds managed series reads 1 there.
    const BenchmarkInfo &bench = findBenchmark("li");
    const RunConfig cfg = shortConfig();
    const RunOutput conv = run(bench, cfg);
    const FastCalibration cal = calibrateFast(bench, cfg, conv);
    const obs::MetricsCsv csv = parsedCsv(meteredCsv(50 * 1000, [&] {
        run(bench, cfg);
        run(bench, cfg, {ConventionalL1i{}, &cal});
    }));
    const int frac = csv.column("active_fraction");
    ASSERT_GE(frac, 0);
    for (const char *mode : {"/conv#", "/conv-fast#"}) {
        SCOPED_TRACE(mode);
        const auto rows = seriesRows(csv, mode);
        ASSERT_FALSE(rows.empty());
        for (const auto &row : rows)
            EXPECT_EQ(row.values[frac], 1.0) << row.instrs;
    }
}

TEST(MetricsPins, PolicyDriSeriesEqualsDriParamsSeries)
{
    // policy=dri is the DriParams cache behind the policy interface:
    // its series reports the same instantaneous active bytes.
    const BenchmarkInfo &bench = findBenchmark("li");
    DriParams dri;
    dri.sizeBoundBytes = 2048;
    dri.missBound = 100;
    PolicyConfig pc;
    pc.dri = dri;
    const obs::MetricsCsv csv = parsedCsv(meteredCsv(30 * 1000, [&] {
        run(bench, shortConfig(), {dri});
        run(bench, shortConfig(), {pc});
    }));
    const auto direct = seriesRows(csv, "/dri#");
    const auto viaPolicy = seriesRows(csv, "/policy#");
    ASSERT_FALSE(direct.empty());
    ASSERT_EQ(direct.size(), viaPolicy.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(direct[i].instrs, viaPolicy[i].instrs);
        for (std::size_t c = 0; c < direct[i].values.size(); ++c)
            EXPECT_EQ(direct[i].values[c], viaPolicy[i].values[c])
                << csv.columns[c + 2] << " @ " << direct[i].instrs;
    }
    // The cache did resize, so fraction x size would differ.
    const int bytes = csv.column("active_bytes");
    ASSERT_GE(bytes, 0);
    bool shrunk = false;
    for (const auto &row : direct)
        shrunk |= row.values[bytes] < static_cast<double>(dri.sizeBytes);
    EXPECT_TRUE(shrunk);
}

TEST(MetricsPins, LastMshrPeakIsTheRunsPeak)
{
    RunConfig cfg;
    cfg.maxInstrs = 300 * 1000;
    cfg.hier.dram.banked = true;
    cfg.hier.l1i.mshrs = 4;
    cfg.hier.l1d.mshrs = 4;
    cfg.hier.l2.mshrs = 8;
    RunOutput out;
    const obs::MetricsCsv csv = parsedCsv(meteredCsv(50 * 1000, [&] {
        out = run(findBenchmark("compress"), cfg);
    }));
    const int peak = csv.column("mshr_peak_occupancy");
    ASSERT_GE(peak, 0);
    ASSERT_FALSE(csv.rows.empty());
    EXPECT_EQ(csv.rows.back().values[peak],
              static_cast<double>(out.mshrPeakOccupancy));
    EXPECT_GT(out.mshrPeakOccupancy, 0u);
}

// --------------------------------------------------------------
// Determinism: pinned trace + metrics bytes vs worker count
// --------------------------------------------------------------

/** One small sweep through the executor with both sinks installed;
 *  returns (trace bytes, csv bytes). */
std::pair<std::string, std::string>
pinnedSweepArtifacts(unsigned jobs)
{
    obs::resetTrace();
    obs::resetMetrics();
    obs::TraceWriter *tw =
        obs::initTrace(tempPath("obs_jobs.trace.json"));
    obs::initMetrics(tempPath("obs_jobs.metrics.csv"), 100 * 1000);

    const BenchmarkInfo &bench = findBenchmark("compress");
    const RunConfig cfg = shortConfig();
    std::vector<DriParams> grid;
    for (const std::uint64_t bound : {1024u, 2048u, 4096u}) {
        DriParams p;
        p.sizeBoundBytes = bound;
        p.missBound = 100;
        grid.push_back(p);
    }
    Executor exec(jobs);
    std::vector<RunOutput> outs(grid.size());
    exec.forEachIndex("obs_sweep", grid.size(),
                      [&](std::size_t i, const JobContext &) {
                          outs[i] = run(bench, cfg, {grid[i]});
                      });
    EXPECT_TRUE(tw->pinned());
    return {obs::renderTraceEvents(tw->spans()),
            obs::metrics()->renderCsv()};
}

TEST(Determinism, PinnedArtifactsByteIdenticalAcrossJobCounts)
{
    PinnedClock pin;
    const auto serial = pinnedSweepArtifacts(1);
    const auto parallel = pinnedSweepArtifacts(4);
    EXPECT_EQ(serial.first, parallel.first);   // trace bytes
    EXPECT_EQ(serial.second, parallel.second); // metrics bytes
    // The trace really carries the sweep: one job span per grid
    // point plus one run span each.
    EXPECT_NE(serial.first.find("\"obs_sweep/0\""),
              std::string::npos);
    EXPECT_NE(serial.first.find("\"compress/dri#"),
              std::string::npos);
}

TEST(Determinism, UnpinnedSpansCarryWorkerAnnotations)
{
    obs::resetTrace();
    obs::resetMetrics();
    obs::TraceWriter *tw =
        obs::initTrace(tempPath("obs_live.trace.json"));
    ASSERT_FALSE(tw->pinned());
    Executor exec(2);
    exec.forEachIndex("live", 4,
                      [](std::size_t, const JobContext &) {});
    const std::string doc = obs::renderTraceEvents(tw->spans());
    EXPECT_NE(doc.find("\"worker\""), std::string::npos);
    EXPECT_NE(doc.find("\"stolen\""), std::string::npos);
    obs::resetTrace();
}

// --------------------------------------------------------------
// Report rendering
// --------------------------------------------------------------

TEST(Report, TraceReportBreaksDownByCategory)
{
    std::vector<obs::TraceSpan> spans;
    spans.push_back(span("job", "fast", 0, 1000));
    spans.push_back(span("job", "slow", 0, 9000));
    spans.push_back(span("run", "compress/dri#ab", 0, 5000));
    obs::sortSpans(spans);
    const std::string report = obs::renderTraceReport(spans, 2);
    EXPECT_NE(report.find("job"), std::string::npos);
    EXPECT_NE(report.find("run"), std::string::npos);
    EXPECT_NE(report.find("slow"), std::string::npos);
    // topK=2: the slowest spans are listed, slowest first.
    EXPECT_LT(report.find("slow"), report.rfind("compress/dri#ab"));
}

obs::TraceSpan
laneSpan(const char *cat, const char *name, unsigned tid,
         std::uint64_t ts, std::uint64_t dur)
{
    obs::TraceSpan s = span(cat, name, ts, dur);
    s.tid = tid;
    return s;
}

TEST(Report, SelfTimeAndUtilizationOnANestedTrace)
{
    // Lane 1: a unit job [0, 1000) with a run [100, 400) and a
    // nested job [500, 900) holding a run [550, 850). Lane 2: one
    // job [200, 700) overlapping lane 1 in time, which must not
    // count as nested in anything on lane 1.
    std::vector<obs::TraceSpan> spans{
        laneSpan("job", "unit", 1, 0, 1000),
        laneSpan("run", "r1", 1, 100, 300),
        laneSpan("job", "nested", 1, 500, 400),
        laneSpan("run", "r2", 1, 550, 300),
        laneSpan("job", "other", 2, 200, 500),
    };
    obs::sortSpans(spans);

    const auto cats = obs::categoryTimes(spans);
    ASSERT_EQ(cats.size(), 2u);
    const obs::CategoryTime &job = cats.at("job");
    EXPECT_EQ(job.spans, 3u);
    EXPECT_EQ(job.totalMicros, 1900u); // nested time counted twice
    // unit 1000 - (300 + 400) + nested 400 - 300 + other 500.
    EXPECT_EQ(job.selfMicros, 900u);
    const obs::CategoryTime &run = cats.at("run");
    EXPECT_EQ(run.totalMicros, 600u);
    EXPECT_EQ(run.selfMicros, 600u);
    // Self times add up to each lane's busy time, counted once.
    EXPECT_EQ(job.selfMicros + run.selfMicros, 1000u + 500u);

    const auto busy = obs::workerBusyMicros(spans);
    ASSERT_EQ(busy.size(), 2u);
    EXPECT_EQ(busy.at(1), 1000u); // the nested job counts once
    EXPECT_EQ(busy.at(2), 500u);

    const std::string report = obs::renderTraceReport(spans, 3);
    EXPECT_NE(report.find("self ms"), std::string::npos);
    EXPECT_NE(report.find("worker utilization over 0.001 s"),
              std::string::npos);
    // Lane 1 was busy the whole traced millisecond, lane 2 half.
    EXPECT_NE(report.find(" 1.000\n"), std::string::npos);
    EXPECT_NE(report.find(" 0.500\n"), std::string::npos);
}

TEST(Report, PhaseTableFiltersBySeries)
{
    obs::TimeSeriesRecorder rec("x", 64);
    rec.record("a/conv#1", 64, {{"cpi", 1.0}});
    rec.record("b/dri#2", 64, {{"cpi", 2.0}, {"active_bytes", 4096.0}});
    obs::MetricsCsv csv;
    std::string err;
    ASSERT_TRUE(obs::parseMetricsCsvText(rec.renderCsv(), csv, err));
    const std::string all = obs::renderPhaseTable(csv, "");
    EXPECT_NE(all.find("a/conv#1"), std::string::npos);
    EXPECT_NE(all.find("b/dri#2"), std::string::npos);
    const std::string only = obs::renderPhaseTable(csv, "dri");
    EXPECT_EQ(only.find("a/conv#1"), std::string::npos);
    EXPECT_NE(only.find("b/dri#2"), std::string::npos);
}

} // namespace
} // namespace drisim
