/**
 * @file
 * Offline summarizer for the observability artifacts a run leaves
 * behind (docs/REPRODUCTION.md, "Tracing a run"):
 *
 *   trace_report [--trace FILE] [--metrics FILE]
 *                [--top K] [--series FILTER]
 *
 * --trace prints, for a chrome-trace JSON file (obs/trace.hh), the
 * per-category breakdown (total time, and self time: a span's time
 * minus the spans nested inside it on the same lane), each worker's
 * busy seconds and utilization from its job spans, and the top-K
 * slowest spans (K defaults to 10). --metrics prints the phase
 * table of an interval CSV (obs/metrics.hh): per-series,
 * per-interval CPI, L1I miss
 * rate, DRI active fraction/bytes, drowsy fraction and wake/resize
 * events — the time-resolved view the end-of-run aggregates hide.
 * --series keeps only metric series whose name contains FILTER
 * (e.g. "dri" or "core0"). At least one input is required; both
 * may be given.
 *
 * Exit codes: 0 ok, 2 usage or unreadable/malformed input.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/report.hh"
#include "obs/trace.hh"

using namespace drisim;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--trace FILE] [--metrics FILE]\n"
                 "          [--top K] [--series FILTER]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string tracePath;
    std::string metricsPath;
    std::string seriesFilter;
    std::size_t topK = 10;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](std::string &dst) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value after %s\n",
                             arg.c_str());
                return false;
            }
            dst = argv[++i];
            return true;
        };
        std::string value;
        if (arg == "--trace") {
            if (!next(tracePath))
                return usage(argv[0]);
        } else if (arg == "--metrics") {
            if (!next(metricsPath))
                return usage(argv[0]);
        } else if (arg == "--series") {
            if (!next(seriesFilter))
                return usage(argv[0]);
        } else if (arg == "--top") {
            if (!next(value))
                return usage(argv[0]);
            char *end = nullptr;
            const unsigned long v =
                std::strtoul(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || v == 0) {
                std::fprintf(stderr, "bad --top '%s'\n",
                             value.c_str());
                return 2;
            }
            topK = static_cast<std::size_t>(v);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        }
    }
    if (tracePath.empty() && metricsPath.empty())
        return usage(argv[0]);

    std::string error;
    if (!tracePath.empty()) {
        std::vector<obs::TraceSpan> spans;
        if (!obs::readTrace(tracePath, spans, error)) {
            std::fprintf(stderr, "trace_report: %s\n",
                         error.c_str());
            return 2;
        }
        std::fputs(obs::renderTraceReport(spans, topK).c_str(),
                   stdout);
    }
    if (!metricsPath.empty()) {
        obs::MetricsCsv csv;
        if (!obs::parseMetricsCsv(metricsPath, csv, error)) {
            std::fprintf(stderr, "trace_report: %s\n",
                         error.c_str());
            return 2;
        }
        if (!tracePath.empty())
            std::fputs("\n", stdout);
        std::fputs(obs::renderPhaseTable(csv, seriesFilter).c_str(),
                   stdout);
    }
    return 0;
}
