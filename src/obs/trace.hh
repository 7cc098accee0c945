/**
 * @file
 * Chrome/Perfetto trace-event writer (catapult "trace event format",
 * the JSON flavour ui.perfetto.dev and chrome://tracing load).
 *
 * The simulator's layers emit complete ("ph":"X") spans: JobGraph
 * jobs (worker id, steal vs. local), detailed/fast/sampled run
 * segments, checkpoint save/restore, result-cache lookups and farm
 * per-unit execution. Spans are buffered in memory and written once
 * at exit in a canonical order (category, name, args, timestamps),
 * so the span *set* — not the scheduling — determines the output
 * bytes.
 *
 * Determinism contract (locked by tests/obs_test.cc): with
 * DRISIM_JSON_WALL_SECONDS set, every timestamp, duration and
 * worker annotation is pinned to zero, making the whole trace file
 * byte-identical at --jobs 1 vs --jobs 4.
 *
 * Strictly execution-only: no trace knob enters the ConfigKey and a
 * null writer costs one branch per hook.
 */

#ifndef DRISIM_OBS_TRACE_HH
#define DRISIM_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace drisim::obs
{

/** One complete ("ph":"X") trace event. */
struct TraceSpan
{
    std::string name;
    std::string cat;
    /** Microseconds since the writer's epoch (0 when pinned). */
    std::uint64_t ts = 0;
    /** Span length in microseconds (0 when pinned). */
    std::uint64_t dur = 0;
    /** Worker/thread lane (0 when pinned). */
    unsigned tid = 0;
    /** Extra key/value annotations, rendered in insertion order. */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * True (and @p value filled) when DRISIM_JSON_WALL_SECONDS pins the
 * wall clock — the same env contract writeJsonReport honours, shared
 * here so traces, metrics and fragment wall seconds all pin off one
 * switch. Unset or empty leaves the clock live; any value that is
 * not a finite number >= 0 is fatal (exit 1, naming the variable).
 */
bool pinnedWallSeconds(double &value);

/** Thread-safe span buffer + canonical writer for one trace file. */
class TraceWriter
{
  public:
    explicit TraceWriter(std::string path);

    /** Wall clock pinned (see pinnedWallSeconds)? */
    bool pinned() const { return pinned_; }

    /** Microseconds since construction; always 0 when pinned. */
    std::uint64_t nowMicros() const;

    /** Buffer one finished span (thread-safe). */
    void complete(TraceSpan span);

    std::size_t spanCount() const;
    const std::string &path() const { return path_; }

    /** Take a canonically ordered copy of the buffered spans. */
    std::vector<TraceSpan> spans() const;

    /** Render and write the trace file (canonical order). */
    bool write(std::string &error) const;

  private:
    std::string path_;
    bool pinned_ = false;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<TraceSpan> spans_;
};

/**
 * RAII span: opens on construction, completes on destruction with
 * the measured duration. Its lane (tid) is the calling thread's
 * worker-pool slot (util/thread_pool.hh; 0 outside a pool). A null
 * @p writer makes every member a no-op, so hooks can be written
 * unconditionally.
 */
class ScopedSpan
{
  public:
    ScopedSpan(TraceWriter *writer, std::string cat, std::string name,
               std::vector<std::pair<std::string, std::string>>
                   args = {});
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Append an annotation before the span closes. */
    void arg(std::string key, std::string value);

  private:
    TraceWriter *writer_;
    TraceSpan span_;
    std::uint64_t start_ = 0;
};

/** @name Global trace sink
 *  Installed once by the bench front-ends (`--trace PATH`); null by
 *  default, so instrumented code pays one branch when tracing is
 *  off. Not a knob: never part of any run's identity.
 */
///@{
TraceWriter *trace();
TraceWriter *initTrace(const std::string &path);
void resetTrace(); ///< drop the installed writer (tests)
///@}

/** Canonically sort @p spans (category, name, args, timestamps). */
void sortSpans(std::vector<TraceSpan> &spans);

/** Render @p spans (already ordered) as a trace-event document. */
std::string renderTraceEvents(const std::vector<TraceSpan> &spans);

/** Parse a trace file this module wrote (strict, like the sidecar
 *  readers: any deviation fails the whole file). */
bool readTrace(const std::string &path, std::vector<TraceSpan> &out,
               std::string &error);

/** Sort + render + write @p spans to @p path (sweep_merge). */
bool writeTraceFile(const std::string &path,
                    std::vector<TraceSpan> spans, std::string &error);

} // namespace drisim::obs

#endif // DRISIM_OBS_TRACE_HH
