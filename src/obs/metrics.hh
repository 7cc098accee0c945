/**
 * @file
 * Interval time series: the sampler a run (or a CMP core) feeds its
 * cumulative readings every `metrics.interval` retired instructions
 * (aligned down to the fast model's 64-instruction retire batch so
 * chunked execution stays bit-identical to a single run), and the
 * recorder the samplers write to.
 *
 * One *series* is one simulated run, named
 * `<bench>/<mode>#<confighash>` (or `<mix>/cmp#<hash>/coreK` for CMP
 * cores); each sample carries already-differenced per-interval
 * values (interval CPI, interval miss rates, resize/wake deltas,
 * instantaneous active bytes). The CSV emission canonicalizes
 * everything at write time — series sorted by name, columns the
 * sorted union of metric names — so output bytes depend only on the
 * sample set, never on worker scheduling (byte-identical at
 * --jobs 1 vs --jobs 4; locked by tests/obs_test.cc).
 *
 * Execution-only, like the trace writer: a null sink costs one
 * branch per hook, and no metrics knob enters the ConfigKey.
 */

#ifndef DRISIM_OBS_METRICS_HH
#define DRISIM_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace drisim::obs
{

/** Default sampling interval in retired instructions. */
constexpr InstCount kDefaultMetricsInterval = 100 * 1000;

/** Buffers interval samples per series; writes one canonical CSV. */
class TimeSeriesRecorder
{
  public:
    TimeSeriesRecorder(std::string path,
                       InstCount interval = kDefaultMetricsInterval);

    /** Sampling interval, already aligned down to a multiple of 64
     *  (and at least 64). */
    InstCount interval() const { return interval_; }

    /**
     * Record one interval sample for @p series at cumulative
     * instruction count @p instrs (thread-safe). Values arrive as
     * (metric name, value) pairs; missing metrics render as 0.
     */
    void record(
        const std::string &series, std::uint64_t instrs,
        std::vector<std::pair<std::string, double>> values);

    std::size_t sampleCount() const;
    const std::string &path() const { return path_; }

    /** Render the canonical CSV document. */
    std::string renderCsv() const;

    /** Render + write the CSV to path(). */
    bool write(std::string &error) const;

  private:
    struct Sample
    {
        std::uint64_t instrs = 0;
        std::vector<std::pair<std::string, double>> values;
    };

    std::string path_;
    InstCount interval_;
    mutable std::mutex mu_;
    /** Keyed by series name: map order IS the canonical order. */
    std::map<std::string, std::vector<Sample>> series_;
};

/**
 * Cumulative readings of one run in flight, by name: event counts
 * (`cycles`, `<level>_accesses`, `<level>_misses`, `resizes`,
 * `wakes`, ...), time integrals (`active_cycle_area`,
 * `drowsy_cycle_area`: powered or drowsy fraction x cycles) and
 * instantaneous gauges (`active_bytes`, `l1i_size_bytes`,
 * `mshr_peak_occupancy`).
 */
using Readings = std::map<std::string, double>;

/**
 * Turns one series' cumulative readings into the recorder's interval
 * rows: interval CPI and miss rates, active/drowsy fractions from
 * the cycle-area integrals, resize, wake, DRAM and coherence deltas,
 * and the gauges as read (active bytes rebuilt as fraction x size
 * when the L1I reports no instantaneous size). A metric appears in a
 * row only when its reading does.
 */
class IntervalSampler
{
  public:
    IntervalSampler(TimeSeriesRecorder &recorder, std::string series);

    /** Instructions at the previous sample (0 before the first). */
    InstCount lastInstrs() const { return prevInstrs_; }

    /** Record the interval that ends at @p instrs committed
     *  instructions, given the readings @p cur taken there. */
    void sample(InstCount instrs, Readings cur);

  private:
    double delta(const Readings &cur, const std::string &name) const;

    TimeSeriesRecorder &recorder_;
    std::string series_;
    Readings prev_;
    InstCount prevInstrs_ = 0;
};

/** @name Global metrics sink
 *  Installed by the bench front-ends (`--metrics PATH`); null by
 *  default. Not a knob: never part of any run's identity.
 */
///@{
TimeSeriesRecorder *metrics();
TimeSeriesRecorder *initMetrics(
    const std::string &path,
    InstCount interval = kDefaultMetricsInterval);
void resetMetrics(); ///< drop the installed recorder (tests)
///@}

} // namespace drisim::obs

#endif // DRISIM_OBS_METRICS_HH
