/**
 * @file
 * Trace/metrics report rendering (tools/trace_report).
 */

#include "obs/report.hh"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "util/file.hh"
#include "util/str.hh"

namespace drisim::obs
{

namespace
{

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cur;
    for (char c : line) {
        if (c == ',') {
            cells.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    cells.push_back(cur);
    return cells;
}

/** The headline metrics the phase table prints, in display order. */
const char *const kPhaseColumns[] = {
    "cpi",          "l1i_miss_rate", "active_fraction",
    "active_bytes", "drowsy_fraction", "wakes", "resizes"};

} // namespace

int
MetricsCsv::column(const std::string &metric) const
{
    for (std::size_t i = 2; i < columns.size(); ++i)
        if (columns[i] == metric)
            return static_cast<int>(i - 2);
    return -1;
}

bool
parseMetricsCsvText(const std::string &text, MetricsCsv &out,
                    std::string &error)
{
    out = MetricsCsv{};
    std::size_t pos = 0;
    bool header = true;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        const std::vector<std::string> cells = splitCsvLine(line);
        if (header) {
            if (cells.size() < 2 || cells[0] != "series" ||
                cells[1] != "instrs") {
                error = "not an interval-metrics CSV header";
                return false;
            }
            out.columns = cells;
            header = false;
            continue;
        }
        if (cells.size() != out.columns.size()) {
            error = "CSV row width does not match header";
            return false;
        }
        MetricsCsv::Row row;
        row.series = cells[0];
        char *end = nullptr;
        row.instrs = std::strtoull(cells[1].c_str(), &end, 10);
        if (end == cells[1].c_str() || *end != '\0') {
            error = "bad instrs cell '" + cells[1] + "'";
            return false;
        }
        for (std::size_t i = 2; i < cells.size(); ++i) {
            const double v = std::strtod(cells[i].c_str(), &end);
            if (end == cells[i].c_str() || *end != '\0') {
                error = "bad value cell '" + cells[i] + "'";
                return false;
            }
            row.values.push_back(v);
        }
        out.rows.push_back(std::move(row));
    }
    if (header) {
        error = "empty metrics CSV";
        return false;
    }
    return true;
}

bool
parseMetricsCsv(const std::string &path, MetricsCsv &out,
                std::string &error)
{
    std::string text;
    if (!readFile(path, text)) {
        error = "cannot open '" + path + "'";
        return false;
    }
    return parseMetricsCsvText(text, out, error);
}

std::map<std::string, CategoryTime>
categoryTimes(const std::vector<TraceSpan> &spans)
{
    // Per lane, open spans in start order (an enclosing span before
    // the spans it encloses) and keep a stack of the ones still open:
    // a span starting inside the top of the stack is nested in it.
    std::map<unsigned, std::vector<std::size_t>> lanes;
    for (std::size_t i = 0; i < spans.size(); ++i)
        lanes[spans[i].tid].push_back(i);
    std::vector<std::uint64_t> covered(spans.size(), 0);
    const auto end = [&](std::size_t i) {
        return spans[i].ts + spans[i].dur;
    };
    for (auto &[tid, order] : lanes) {
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             if (spans[a].ts != spans[b].ts)
                                 return spans[a].ts < spans[b].ts;
                             return end(a) > end(b);
                         });
        std::vector<std::size_t> open;
        for (const std::size_t i : order) {
            while (!open.empty() && end(open.back()) <= spans[i].ts)
                open.pop_back();
            if (!open.empty())
                covered[open.back()] +=
                    std::min(end(i), end(open.back())) - spans[i].ts;
            open.push_back(i);
        }
    }

    std::map<std::string, CategoryTime> cats;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        CategoryTime &c = cats[spans[i].cat];
        ++c.spans;
        c.totalMicros += spans[i].dur;
        c.selfMicros += spans[i].dur - std::min(covered[i],
                                                spans[i].dur);
    }
    return cats;
}

std::map<unsigned, std::uint64_t>
workerBusyMicros(const std::vector<TraceSpan> &spans)
{
    std::map<unsigned, std::vector<std::pair<std::uint64_t,
                                             std::uint64_t>>>
        jobs;
    for (const TraceSpan &s : spans)
        if (s.cat == "job")
            jobs[s.tid].emplace_back(s.ts, s.ts + s.dur);
    std::map<unsigned, std::uint64_t> busy;
    for (auto &[tid, intervals] : jobs) {
        std::sort(intervals.begin(), intervals.end());
        std::uint64_t total = 0;
        std::uint64_t cursor = 0;
        for (const auto &[lo, hi] : intervals) {
            const std::uint64_t from = std::max(lo, cursor);
            if (hi > from)
                total += hi - from;
            cursor = std::max(cursor, hi);
        }
        busy[tid] = total;
    }
    return busy;
}

std::string
renderTraceReport(const std::vector<TraceSpan> &spans,
                  std::size_t topK)
{
    std::string out =
        strFormat("trace report: %zu spans\n", spans.size());

    // Where the wall clock went, by span category. Self time counts
    // each moment once per lane, so it does not double-count a run
    // inside a job inside a sweep unit.
    out += "\nper-category breakdown (self = total minus spans "
           "nested on the same lane):\n";
    out += strFormat("  %-12s %8s %12s %12s\n", "category", "spans",
                     "total ms", "self ms");
    for (const auto &[cat, c] : categoryTimes(spans))
        out += strFormat(
            "  %-12s %8zu %12.3f %12.3f\n", cat.c_str(), c.spans,
            static_cast<double>(c.totalMicros) / 1000.0,
            static_cast<double>(c.selfMicros) / 1000.0);

    // Worker utilization: busy = covered by a job span, over the
    // traced wall time (first span start to last span end). A job
    // waiting on a nested graph holds its worker, so it counts.
    const std::map<unsigned, std::uint64_t> busy =
        workerBusyMicros(spans);
    if (!busy.empty()) {
        std::uint64_t first = UINT64_MAX;
        std::uint64_t last = 0;
        for (const TraceSpan &s : spans) {
            first = std::min(first, s.ts);
            last = std::max(last, s.ts + s.dur);
        }
        const double wall = static_cast<double>(last - first) / 1e6;
        out += strFormat("\nworker utilization over %.3f s traced "
                         "(job spans):\n",
                         wall);
        out += strFormat("  %-8s %10s %8s\n", "worker", "busy s",
                         "util");
        for (const auto &[tid, micros] : busy) {
            const double secs = static_cast<double>(micros) / 1e6;
            out += strFormat("  %-8u %10.3f %8.3f\n", tid, secs,
                             wall > 0.0 ? secs / wall : 0.0);
        }
    }

    // Top-K slowest spans; ties broken canonically so the report is
    // deterministic even on pinned (all-zero-duration) traces.
    std::vector<const TraceSpan *> byDur;
    byDur.reserve(spans.size());
    for (const TraceSpan &s : spans)
        byDur.push_back(&s);
    std::stable_sort(byDur.begin(), byDur.end(),
                     [](const TraceSpan *a, const TraceSpan *b) {
                         return a->dur > b->dur;
                     });
    if (byDur.size() > topK)
        byDur.resize(topK);
    out += strFormat("\ntop %zu slowest spans:\n", byDur.size());
    for (std::size_t i = 0; i < byDur.size(); ++i)
        out += strFormat(
            "  %2zu. %10.3f ms  %-12s %s\n", i + 1,
            static_cast<double>(byDur[i]->dur) / 1000.0,
            byDur[i]->cat.c_str(), byDur[i]->name.c_str());
    return out;
}

std::string
renderPhaseTable(const MetricsCsv &csv,
                 const std::string &seriesFilter)
{
    // Which headline columns this CSV actually carries.
    std::vector<std::pair<std::string, int>> cols;
    for (const char *name : kPhaseColumns) {
        const int idx = csv.column(name);
        if (idx >= 0)
            cols.emplace_back(name, idx);
    }

    // Rows grouped per series, preserving CSV (canonical) order.
    std::vector<std::string> order;
    std::map<std::string, std::vector<const MetricsCsv::Row *>>
        bySeries;
    for (const MetricsCsv::Row &r : csv.rows) {
        if (!seriesFilter.empty() &&
            r.series.find(seriesFilter) == std::string::npos)
            continue;
        if (bySeries.find(r.series) == bySeries.end())
            order.push_back(r.series);
        bySeries[r.series].push_back(&r);
    }

    std::string out;
    for (const std::string &series : order) {
        const auto &rows = bySeries[series];
        out += strFormat("series %s (%zu intervals)\n",
                         series.c_str(), rows.size());
        out += strFormat("  %8s %12s", "interval", "instrs");
        for (const auto &[name, idx] : cols)
            out += strFormat(" %15s", name.c_str());
        out += "\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            out += strFormat(
                "  %8zu %12llu", i + 1,
                static_cast<unsigned long long>(rows[i]->instrs));
            for (const auto &[name, idx] : cols)
                out += strFormat(" %15.6g", rows[i]->values[idx]);
            out += "\n";
        }
    }
    if (out.empty())
        out = seriesFilter.empty()
                  ? std::string("no interval samples\n")
                  : "no series matching '" + seriesFilter + "'\n";
    return out;
}

} // namespace drisim::obs
