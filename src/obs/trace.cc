/**
 * @file
 * Trace-event buffering, canonical ordering, rendering and strict
 * re-reading (the reader only accepts what the renderer emits, like
 * every other sidecar format in the tree).
 */

#include "obs/trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/file.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/thread_pool.hh"

namespace drisim::obs
{

namespace
{

std::unique_ptr<TraceWriter> gTrace;

/** args rendered as a flat sort key for the canonical order. */
std::string
argsKey(const TraceSpan &s)
{
    std::string key;
    for (const auto &[k, v] : s.args) {
        key += k;
        key += '=';
        key += v;
        key += ';';
    }
    return key;
}

std::string
renderEvent(const TraceSpan &s)
{
    std::string out = "{\"name\": \"" + jsonEscape(s.name) +
                      "\", \"cat\": \"" + jsonEscape(s.cat) +
                      "\", \"ph\": \"X\", \"ts\": " +
                      std::to_string(s.ts) +
                      ", \"dur\": " + std::to_string(s.dur) +
                      ", \"pid\": 1, \"tid\": " +
                      std::to_string(s.tid) + ", \"args\": {";
    bool first = true;
    for (const auto &[k, v] : s.args) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + jsonEscape(k) + "\": \"" + jsonEscape(v) +
               "\"";
    }
    out += "}}";
    return out;
}

} // namespace

bool
pinnedWallSeconds(double &value)
{
    const char *env = std::getenv("DRISIM_JSON_WALL_SECONDS");
    if (!env || !*env)
        return false;
    // A typo must not silently leave the clock live (byte compares
    // would then fail with no hint) or report a negative wall clock.
    double v = 0.0;
    if (!parseFiniteValue(env, v) || std::signbit(v))
        drisim_fatal("DRISIM_JSON_WALL_SECONDS='%s' is not a wall "
                     "clock to pin (a finite number of seconds >= 0)",
                     env);
    value = v;
    return true;
}

TraceWriter::TraceWriter(std::string path) : path_(std::move(path))
{
    double pin = 0.0;
    pinned_ = pinnedWallSeconds(pin);
    epoch_ = std::chrono::steady_clock::now();
}

std::uint64_t
TraceWriter::nowMicros() const
{
    if (pinned_)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

void
TraceWriter::complete(TraceSpan span)
{
    if (pinned_) {
        span.ts = 0;
        span.dur = 0;
        span.tid = 0;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::size_t
TraceWriter::spanCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::vector<TraceSpan>
TraceWriter::spans() const
{
    std::vector<TraceSpan> copy;
    {
        std::lock_guard<std::mutex> lock(mu_);
        copy = spans_;
    }
    sortSpans(copy);
    return copy;
}

bool
TraceWriter::write(std::string &error) const
{
    return writeTraceFile(path_, spans(), error);
}

ScopedSpan::ScopedSpan(
    TraceWriter *writer, std::string cat, std::string name,
    std::vector<std::pair<std::string, std::string>> args)
    : writer_(writer)
{
    if (!writer_)
        return;
    span_.cat = std::move(cat);
    span_.name = std::move(name);
    span_.args = std::move(args);
    // The worker lane: spans a job opens land on its worker's lane,
    // so nesting (and self time) can be read per tid.
    const int lane = WorkStealingPool::currentSlot();
    span_.tid = lane > 0 ? static_cast<unsigned>(lane) : 0;
    start_ = writer_->nowMicros();
}

ScopedSpan::~ScopedSpan()
{
    if (!writer_)
        return;
    span_.ts = start_;
    span_.dur = writer_->nowMicros() - start_;
    writer_->complete(std::move(span_));
}

void
ScopedSpan::arg(std::string key, std::string value)
{
    if (!writer_)
        return;
    span_.args.emplace_back(std::move(key), std::move(value));
}

TraceWriter *
trace()
{
    return gTrace.get();
}

TraceWriter *
initTrace(const std::string &path)
{
    gTrace = std::make_unique<TraceWriter>(path);
    return gTrace.get();
}

void
resetTrace()
{
    gTrace.reset();
}

void
sortSpans(std::vector<TraceSpan> &spans)
{
    std::stable_sort(
        spans.begin(), spans.end(),
        [](const TraceSpan &a, const TraceSpan &b) {
            if (a.cat != b.cat)
                return a.cat < b.cat;
            if (a.name != b.name)
                return a.name < b.name;
            const std::string ka = argsKey(a);
            const std::string kb = argsKey(b);
            if (ka != kb)
                return ka < kb;
            if (a.ts != b.ts)
                return a.ts < b.ts;
            if (a.dur != b.dur)
                return a.dur < b.dur;
            return a.tid < b.tid;
        });
}

std::string
renderTraceEvents(const std::vector<TraceSpan> &spans)
{
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    for (const TraceSpan &s : spans) {
        out += first ? "\n" : ",\n";
        first = false;
        out += renderEvent(s);
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

bool
readTrace(const std::string &path, std::vector<TraceSpan> &out,
          std::string &error)
{
    std::string text;
    if (!readFile(path, text)) {
        error = "cannot open '" + path + "'";
        return false;
    }

    JsonParser p(text);
    p.consume('{');
    p.expectKey("traceEvents");
    p.consume('[');
    out.clear();
    while (p.ok && !p.peek(']')) {
        if (!out.empty())
            p.consume(',');
        TraceSpan s;
        p.consume('{');
        p.expectKey("name");
        s.name = p.parseString();
        p.consume(',');
        p.expectKey("cat");
        s.cat = p.parseString();
        p.consume(',');
        p.expectKey("ph");
        if (p.parseString() != "X")
            p.ok = false;
        p.consume(',');
        p.expectKey("ts");
        s.ts = p.parseUInt();
        p.consume(',');
        p.expectKey("dur");
        s.dur = p.parseUInt();
        p.consume(',');
        p.expectKey("pid");
        p.parseUInt();
        p.consume(',');
        p.expectKey("tid");
        s.tid = static_cast<unsigned>(p.parseUInt());
        p.consume(',');
        p.expectKey("args");
        p.consume('{');
        while (p.ok && !p.peek('}')) {
            if (!s.args.empty())
                p.consume(',');
            const std::string k = p.parseString();
            p.consume(':');
            const std::string v = p.parseString();
            s.args.emplace_back(k, v);
        }
        p.consume('}');
        p.consume('}');
        if (!p.ok)
            break;
        out.push_back(std::move(s));
    }
    p.consume(']');
    p.consume(',');
    p.expectKey("displayTimeUnit");
    if (p.parseString() != "ms")
        p.ok = false;
    p.consume('}');
    if (!p.ok) {
        error = "malformed trace '" + path + "'";
        out.clear();
        return false;
    }
    return true;
}

bool
writeTraceFile(const std::string &path, std::vector<TraceSpan> spans,
               std::string &error)
{
    sortSpans(spans);
    const WriteStep failed = writeFile(path, renderTraceEvents(spans));
    if (failed != WriteStep::None)
        error = failed == WriteStep::Open
                    ? "cannot write trace '" + path + "'"
                    : "short write to '" + path + "'";
    return failed == WriteStep::None;
}

} // namespace drisim::obs
