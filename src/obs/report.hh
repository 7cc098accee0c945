/**
 * @file
 * Offline summarization of the observability artifacts: the
 * trace-event files (obs/trace.hh) and interval-metrics CSVs
 * (obs/metrics.hh). tools/trace_report is a thin shell over these
 * renderers; keeping the logic here makes the report text testable
 * (tests/obs_test.cc pins the DRI active-size trajectory and the
 * per-interval drowsy wake reconstruction).
 */

#ifndef DRISIM_OBS_REPORT_HH
#define DRISIM_OBS_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace drisim::obs
{

/** An interval-metrics CSV, parsed back into rows. */
struct MetricsCsv
{
    /** Full header: "series", "instrs", then metric columns. */
    std::vector<std::string> columns;

    struct Row
    {
        std::string series;
        std::uint64_t instrs = 0;
        /** One value per metric column (columns[2..]). */
        std::vector<double> values;
    };
    std::vector<Row> rows;

    /** Index into Row::values for @p metric, or -1 when absent. */
    int column(const std::string &metric) const;
};

/** Parse a CSV document renderCsv() produced. */
bool parseMetricsCsvText(const std::string &text, MetricsCsv &out,
                         std::string &error);

/** Parse a CSV file renderCsv() produced. */
bool parseMetricsCsv(const std::string &path, MetricsCsv &out,
                     std::string &error);

/** One span category's share of a trace. */
struct CategoryTime
{
    std::size_t spans = 0;
    /** Summed durations; a nested span also counts in every span
     *  that encloses it. */
    std::uint64_t totalMicros = 0;
    /** Summed self time: each span's duration minus the time that
     *  spans nested inside it on the same tid (lane) cover. */
    std::uint64_t selfMicros = 0;
};

/** Span count, total and self time per category. */
std::map<std::string, CategoryTime>
categoryTimes(const std::vector<TraceSpan> &spans);

/** Busy time per tid (worker lane): the union of its "job" spans,
 *  so a job nested in another job counts once. */
std::map<unsigned, std::uint64_t>
workerBusyMicros(const std::vector<TraceSpan> &spans);

/**
 * Trace summary: per-category breakdown (span count, total and self
 * milliseconds), per-worker busy seconds and utilization over the
 * traced wall time, then the top-@p topK slowest spans.
 */
std::string renderTraceReport(const std::vector<TraceSpan> &spans,
                              std::size_t topK);

/**
 * Phase table: per-series, per-interval rows of the headline
 * metrics (CPI, L1I miss rate, active fraction/bytes, drowsy
 * fraction, wake and resize events). @p seriesFilter, when
 * non-empty, keeps only series whose name contains it.
 */
std::string renderPhaseTable(const MetricsCsv &csv,
                             const std::string &seriesFilter);

} // namespace drisim::obs

#endif // DRISIM_OBS_REPORT_HH
