/**
 * @file
 * Interval differencing, time-series buffering and canonical CSV
 * emission.
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <set>

#include "util/file.hh"
#include "util/str.hh"

namespace drisim::obs
{

namespace
{

std::unique_ptr<TimeSeriesRecorder> gMetrics;

/** Shortest round-trippable rendering of a metric value. */
std::string
formatValue(double v)
{
    return strFormat("%.9g", v);
}

} // namespace

TimeSeriesRecorder::TimeSeriesRecorder(std::string path,
                                       InstCount interval)
    : path_(std::move(path))
{
    // Align to the fast model's retire batch so the metered run loop
    // (harness/runner.cc) splits at boundaries both core models
    // cross bit-identically (same rule as the checkpoint midpoint).
    interval_ = std::max<InstCount>(64, interval & ~InstCount{63});
}

void
TimeSeriesRecorder::record(
    const std::string &series, std::uint64_t instrs,
    std::vector<std::pair<std::string, double>> values)
{
    Sample s;
    s.instrs = instrs;
    s.values = std::move(values);
    std::lock_guard<std::mutex> lock(mu_);
    series_[series].push_back(std::move(s));
}

std::size_t
TimeSeriesRecorder::sampleCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &[name, samples] : series_)
        n += samples.size();
    return n;
}

std::string
TimeSeriesRecorder::renderCsv() const
{
    std::lock_guard<std::mutex> lock(mu_);

    // Canonical column order: the sorted union of every metric name
    // seen anywhere, so the document's shape is independent of which
    // series happened to record first.
    std::set<std::string> names;
    for (const auto &[name, samples] : series_)
        for (const Sample &s : samples)
            for (const auto &[metric, value] : s.values)
                names.insert(metric);

    std::string out = "series,instrs";
    for (const std::string &n : names)
        out += "," + n;
    out += "\n";

    for (const auto &[name, samples] : series_) {
        for (const Sample &s : samples) {
            out += name + "," + std::to_string(s.instrs);
            for (const std::string &n : names) {
                double v = 0.0;
                for (const auto &[metric, value] : s.values)
                    if (metric == n) {
                        v = value;
                        break;
                    }
                out += "," + formatValue(v);
            }
            out += "\n";
        }
    }
    return out;
}

bool
TimeSeriesRecorder::write(std::string &error) const
{
    const WriteStep failed = writeFile(path_, renderCsv());
    if (failed != WriteStep::None)
        error = failed == WriteStep::Open
                    ? "cannot write metrics '" + path_ + "'"
                    : "short write to '" + path_ + "'";
    return failed == WriteStep::None;
}

IntervalSampler::IntervalSampler(TimeSeriesRecorder &recorder,
                                 std::string series)
    : recorder_(recorder), series_(std::move(series))
{
}

double
IntervalSampler::delta(const Readings &cur, const std::string &name) const
{
    const auto it = cur.find(name);
    if (it == cur.end())
        return 0.0;
    const auto pit = prev_.find(name);
    return it->second - (pit == prev_.end() ? 0.0 : pit->second);
}

void
IntervalSampler::sample(InstCount instrs, Readings cur)
{
    const auto has = [&cur](const std::string &name) {
        return cur.count(name) > 0;
    };
    const double dc = delta(cur, "cycles");
    const double di = static_cast<double>(instrs - prevInstrs_);
    const auto fraction = [dc](double area) {
        return dc <= 0.0 ? 0.0 : std::min(1.0, std::max(0.0, area / dc));
    };

    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("cycles", dc);
    out.emplace_back("cpi", di > 0.0 ? dc / di : 0.0);
    for (const std::string level : {"l1i", "l1d", "l2"}) {
        if (!has(level + "_accesses"))
            continue;
        const double da = delta(cur, level + "_accesses");
        out.emplace_back(level + "_miss_rate",
                         da > 0.0 ? delta(cur, level + "_misses") / da
                                  : 0.0);
    }
    double activeFraction = 1.0;
    if (has("active_cycle_area")) {
        activeFraction = fraction(delta(cur, "active_cycle_area"));
        out.emplace_back("active_fraction", activeFraction);
    }
    if (has("drowsy_cycle_area"))
        out.emplace_back("drowsy_fraction",
                         fraction(delta(cur, "drowsy_cycle_area")));
    if (has("active_bytes"))
        out.emplace_back("active_bytes", cur.at("active_bytes"));
    else if (has("l1i_size_bytes"))
        out.emplace_back("active_bytes",
                         activeFraction * cur.at("l1i_size_bytes"));
    for (const char *counter :
         {"resizes", "wakes", "wake_stall_cycles", "dram_busy_cycles",
          "coherence_invalidations", "coherence_wakes",
          "coherence_refetches"})
        if (has(counter))
            out.emplace_back(counter, delta(cur, counter));
    if (has("mshr_peak_occupancy"))
        out.emplace_back("mshr_peak_occupancy",
                         cur.at("mshr_peak_occupancy"));

    recorder_.record(series_, instrs, std::move(out));
    prev_ = std::move(cur);
    prevInstrs_ = instrs;
}

TimeSeriesRecorder *
metrics()
{
    return gMetrics.get();
}

TimeSeriesRecorder *
initMetrics(const std::string &path, InstCount interval)
{
    gMetrics = std::make_unique<TimeSeriesRecorder>(path, interval);
    return gMetrics.get();
}

void
resetMetrics()
{
    gMetrics.reset();
}

} // namespace drisim::obs
