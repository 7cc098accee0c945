/**
 * @file
 * The knob table, its parser and usage text, and the CMP per-core
 * resolution of the parsed overrides.
 */

#include "config/options.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "harness/executor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/str.hh"

namespace drisim
{

namespace
{

/** A count in [lo, hi] into any unsigned field. */
template <typename T>
bool
setCount(const std::string &v, T &out, std::uint64_t lo = 0,
         std::uint64_t hi = UINT64_MAX)
{
    std::uint64_t u = 0;
    if (!parseUnsignedValue(v, u, hi) || u < lo)
        return false;
    out = static_cast<T>(u);
    return true;
}

/** A non-zero size with an optional K/M/G suffix. */
template <typename T>
bool
setBytes(const std::string &v, T &out)
{
    std::uint64_t u = 0;
    if (!parseBytes(v, u) || u == 0)
        return false;
    out = static_cast<T>(u);
    return true;
}

/** A non-empty name or path. */
bool
setText(const std::string &v, std::string &out)
{
    if (v.empty())
        return false;
    out = v;
    return true;
}

/** The override record for core @p k, created on first use. */
CoreOverride &
coreOverride(Options &out, unsigned k)
{
    if (out.coreOverrides.size() <= k)
        out.coreOverrides.resize(k + 1);
    return out.coreOverrides[k];
}

/** Core @p k's DRI knobs, made authoritative: the first coreK.dri.*
 *  key seeds them from the global dri.* template as parsed so far. */
DriParams &
coreDri(Options &out, unsigned k)
{
    CoreOverride &o = coreOverride(out, k);
    if (!o.driKnobsSet) {
        o.driParams = out.dri;
        o.driKnobsSet = true;
    }
    return o.driParams;
}

/** Core @p k's policy, made authoritative the same way. */
PolicyConfig &
corePolicy(Options &out, unsigned k)
{
    CoreOverride &o = coreOverride(out, k);
    if (!o.policySet) {
        o.policy = out.policy;
        o.policySet = true;
    }
    return o.policy;
}

/** A result-cache sidecar at a non-empty path. */
bool
setCache(const std::string &v, std::shared_ptr<sim::ResultCache> &out)
{
    if (v.empty())
        return false;
    out = std::make_shared<sim::ResultCache>(v);
    return true;
}

/** A "K/N" sweep-farm shard (farm/shard_plan.hh). */
bool
setShard(const std::string &v, farm::ShardPlan &out)
{
    std::string why;
    return farm::parseShardSpec(v, out, why);
}

/** coreK.dri: -1 unset, else 0/1. */
bool
setCoreFlag(const std::string &v, int &out)
{
    bool b = false;
    if (!parseFlag(v, b))
        return false;
    out = b ? 1 : 0;
    return true;
}

// Short names keep each row a line or two of a table: kQ is
// quickstart alone, kQB quickstart and every bench binary.
constexpr unsigned kBenches =
    kTableBench | kSweepBench | kShortBench | kCmpBench;
constexpr unsigned kSweeps = kSweepBench | kShortBench | kCmpBench;
constexpr unsigned kExamples =
    kQuickstart | kParamTuner | kPhaseExplorer;
constexpr unsigned kQB = kQuickstart | kBenches;
constexpr unsigned kQ = kQuickstart;
constexpr Reach kRun = Reach::RunKey;
constexpr Reach kCmp = Reach::CmpKey;
constexpr Reach kNone = Reach::None;

// A row's apply: `o` is the Options, `v` the value and `k` the core
// index of a coreK row.
#define APPLY(expr)                                                   \
    [](Options &o, const std::string &v, [[maybe_unused]] unsigned k) { \
        return expr;                                                  \
    }

constexpr Knob kKnobs[] = {
    // What to run, and how.
    {"benchmark", "NAME", "SPEC workload (the first bare argument)",
     kRun, kExamples, APPLY(setText(v, o.benchmark))},
    {"instrs", "N", "instructions to simulate (the second bare one)",
     kRun, kExamples, APPLY(setCount(v, o.run.maxInstrs, 1))},
    {"jobs", "N", "sweep workers (0 = DRISIM_JOBS, else serial)", kNone,
     kBenches | kParamTuner | kPhaseExplorer,
     APPLY(parseJobsValue(v, o.run.jobs))},
    {"cores", "N", "CMP cores, 1..64", kCmp,
     kQuickstart | kParamTuner | kCmpBench,
     APPLY(setCount(v, o.cores, 1, kMaxCmpCores))},
    {"list", nullptr, "print the SPEC workload names and exit", kNone,
     kBenches, APPLY(parseFlag(v, o.list))},
    {"json", "PATH", "write the winner rows as a JSON report", kNone,
     kBenches, APPLY(setText(v, o.jsonPath))},
    {"short", nullptr, "run the quick compress+li subset", kNone,
     kShortBench, APPLY(parseFlag(v, o.shortRun))},
    {"shard", "K/N", "run only the units of 1-based shard K of N",
     kNone, kSweeps, APPLY(setShard(v, o.run.shard))},
    {"part", "PATH", "stream finished units into a resumable fragment",
     kNone, kSweeps, APPLY(setText(v, o.partPath))},
    {"coherent", nullptr, "run the sharing mixes under MSI coherence",
     kNone, kCmpBench, APPLY(parseFlag(v, o.coherent))},

    // Fast simulation and observability.
    {"sample", nullptr, "phase sampling (detailed windows)", kRun, kQB,
     APPLY(parseFlag(v, o.run.sampling.enabled))},
    {"sample.window", "N", "detailed instructions per period", kRun, kQ,
     APPLY(setCount(v, o.run.sampling.detailedWindow, 1))},
    {"sample.period", "N", "instructions per sampling period", kRun, kQ,
     APPLY(setCount(v, o.run.sampling.period, 1))},
    {"checkpoint_dir", "DIR", "midpoint snapshot store (bit-exact)",
     kNone, kQB, APPLY(setText(v, o.run.checkpointDir))},
    {"result_cache", "PATH", "whole-run memoization sidecar", kNone,
     kQB, APPLY(setCache(v, o.run.resultCache))},
    {"trace", "PATH", "chrome-trace span file", kNone, kQB,
     APPLY(setText(v, o.tracePath))},
    {"metrics", "PATH", "interval time-series CSV", kNone, kQB,
     APPLY(setText(v, o.metricsPath))},
    {"metrics.interval", "N", "instructions per metrics sample, 1..2^40",
     kNone, kQB,
     APPLY(setCount(v, o.metricsInterval, 1, std::uint64_t(1) << 40))},

    // The L1 i-cache and the DRI template.
    {"l1i.size", "SIZE", "L1 i-cache size (and the DRI template's)",
     kRun, kQ,
     APPLY(setBytes(v, o.run.hier.l1i.sizeBytes) &&
           setBytes(v, o.dri.sizeBytes))},
    {"l1i.assoc", "N", "L1 i-cache associativity", kRun, kQ,
     APPLY(setCount(v, o.run.hier.l1i.assoc, 1) &&
           setCount(v, o.dri.assoc, 1))},
    {"l1i.block", "SIZE", "L1 i-cache block (and the fetch block)",
     kRun, kQ,
     APPLY(setBytes(v, o.run.hier.l1i.blockBytes) &&
           setBytes(v, o.dri.blockBytes) &&
           setBytes(v, o.run.core.fetchBlockBytes))},
    {"dri.size_bound", "SIZE", "smallest size DRI may shrink to", kRun,
     kQ, APPLY(setBytes(v, o.dri.sizeBoundBytes))},
    {"dri.miss_bound", "N", "misses per interval that trigger a resize",
     kRun, kQ, APPLY(setCount(v, o.dri.missBound))},
    {"dri.interval", "N", "sense interval in instructions", kRun, kQ,
     APPLY(setCount(v, o.dri.senseInterval, 1))},
    {"dri.divisibility", "N", "resize factor per step, >= 2", kRun, kQ,
     APPLY(setCount(v, o.dri.divisibility, 2))},
    {"dri.throttle_hold", "N", "intervals a throttle trigger holds",
     kRun, kQ, APPLY(setCount(v, o.dri.throttleHoldIntervals))},
    {"dri.adaptive", nullptr, "resize at all (0 freezes DRI at full)",
     kRun, kQ, APPLY(parseFlag(v, o.dri.adaptive))},

    // The L1I leakage technique (policy/leakage_policy.hh).
    {"policy", "KIND", "L1I technique: dri, decay, drowsy or ways",
     kRun, kQ, APPLY(parsePolicyKind(v, o.policy.kind))},
    {"policy.decay.interval", "N", "decay generation length", kRun, kQ,
     APPLY(setCount(v, o.policy.decay.decayInterval, 1))},
    {"policy.decay.limit", "N", "idle generations before gating, 1..64",
     kRun, kQ, APPLY(setCount(v, o.policy.decay.counterLimit, 1, 64))},
    {"policy.drowsy.interval", "N", "instructions between drowsy sweeps",
     kRun, kQ, APPLY(setCount(v, o.policy.drowsy.drowsyInterval, 1))},
    {"policy.drowsy.wake", "N", "drowsy wake latency, 0..1000 cycles",
     kRun, kQ,
     APPLY(setCount(v, o.policy.drowsy.wakeLatency, 0, 1000))},
    {"policy.ways.active", "N", "ways left powered, 1..256", kRun, kQ,
     APPLY(setCount(v, o.policy.ways.activeWays, 1, 256))},

    // The L2 and its DRI controller (mem/hierarchy.hh).
    {"l2.size", "SIZE", "L2 size", kRun, kQ,
     APPLY(setBytes(v, o.run.hier.l2.sizeBytes))},
    {"l2.assoc", "N", "L2 associativity", kRun, kQ,
     APPLY(setCount(v, o.run.hier.l2.assoc, 1))},
    {"l2.block", "SIZE", "L2 block", kRun, kQ,
     APPLY(setBytes(v, o.run.hier.l2.blockBytes))},
    {"l2.dri", nullptr, "resize the L2 too (the multi-level study)",
     kRun, kQ, APPLY(parseFlag(v, o.run.hier.l2Dri))},
    {"l2.size_bound", "SIZE", "smallest size the L2 may shrink to",
     kRun, kQ, APPLY(setBytes(v, o.run.hier.l2DriParams.sizeBoundBytes))},
    {"l2.miss_bound", "N", "L2 misses per interval that resize it",
     kRun, kQ, APPLY(setCount(v, o.run.hier.l2DriParams.missBound))},
    {"l2.interval", "N", "L2 sense interval in instructions", kRun, kQ,
     APPLY(setCount(v, o.run.hier.l2DriParams.senseInterval, 1))},

    // Non-blocking memory (mem/mshr.hh, mem/dram.hh).
    {"l1.mshrs", "N", "MSHRs per L1 and in the DRI template, 0..256",
     kRun, kQ,
     APPLY(setCount(v, o.run.hier.l1i.mshrs, 0, 256) &&
           setCount(v, o.run.hier.l1d.mshrs, 0, 256) &&
           setCount(v, o.dri.mshrs, 0, 256))},
    {"l2.mshrs", "N", "L2 MSHRs, 0..256", kRun, kQ,
     APPLY(setCount(v, o.run.hier.l2.mshrs, 0, 256))},
    {"dram.banked", nullptr, "banked, queued DRAM (not flat memory)",
     kRun, kQB, APPLY(parseFlag(v, o.run.hier.dram.banked))},
    {"dram.banks", "N", "DRAM banks, 1..64", kRun, kQ,
     APPLY(setCount(v, o.run.hier.dram.banks, 1, 64))},
    {"dram.row_hit", "N", "row-hit latency in cycles", kRun, kQ,
     APPLY(setCount(v, o.run.hier.dram.rowHitLatency, 1))},
    {"dram.row_miss", "N", "row-miss latency in cycles", kRun, kQ,
     APPLY(setCount(v, o.run.hier.dram.rowMissLatency, 1))},
    {"dram.queue", "N", "per-bank queue depth, 1..1024", kRun, kQ,
     APPLY(setCount(v, o.run.hier.dram.queueDepth, 1, 1024))},

    // The CMP (system/cmp.hh, mem/directory.hh).
    {"coherence", nullptr, "MSI over the private L1s", kCmp, kQ,
     APPLY(parseFlag(v, o.coherence.enabled))},
    {"coherence.entries", "N", "sparse directory entries", kCmp, kQ,
     APPLY(setCount(v, o.coherence.directoryEntries, 1))},
    {"coherence.msg_latency", "N", "cycles per coherence message", kCmp,
     kQ, APPLY(setCount(v, o.coherence.msgLatency))},
    {"coreK.bench", "NAME", "core K's workload", kCmp, kQ,
     APPLY(setText(v, coreOverride(o, k).bench))},
    {"coreK.dri", nullptr, "core K's L1I is managed (0 opts out)", kCmp,
     kQ, APPLY(setCoreFlag(v, coreOverride(o, k).dri))},
    {"coreK.dri.size_bound", "SIZE", "core K's dri.size_bound", kCmp, kQ,
     APPLY(setBytes(v, coreDri(o, k).sizeBoundBytes))},
    {"coreK.dri.miss_bound", "N", "core K's dri.miss_bound", kCmp, kQ,
     APPLY(setCount(v, coreDri(o, k).missBound))},
    {"coreK.dri.interval", "N", "core K's dri.interval", kCmp, kQ,
     APPLY(setCount(v, coreDri(o, k).senseInterval, 1))},
    {"coreK.policy", "KIND", "core K's policy", kCmp, kQ,
     APPLY(parsePolicyKind(v, corePolicy(o, k).kind))},
    {"coreK.policy.decay.interval", "N", "core K's decay interval",
     kCmp, kQ, APPLY(setCount(v, corePolicy(o, k).decay.decayInterval, 1))},
    {"coreK.policy.decay.limit", "N", "core K's decay limit", kCmp, kQ,
     APPLY(setCount(v, corePolicy(o, k).decay.counterLimit, 1, 64))},
    {"coreK.policy.drowsy.interval", "N", "core K's drowsy interval",
     kCmp, kQ,
     APPLY(setCount(v, corePolicy(o, k).drowsy.drowsyInterval, 1))},
    {"coreK.policy.drowsy.wake", "N", "core K's drowsy wake", kCmp, kQ,
     APPLY(setCount(v, corePolicy(o, k).drowsy.wakeLatency, 0, 1000))},
    {"coreK.policy.ways.active", "N", "core K's active ways", kCmp, kQ,
     APPLY(setCount(v, corePolicy(o, k).ways.activeWays, 1, 256))},
};

#undef APPLY

/** The flag spelling of @p name: '.' and '_' become '-'. */
std::string
flagSpelling(std::string name)
{
    std::replace(name.begin(), name.end(), '.', '-');
    std::replace(name.begin(), name.end(), '_', '-');
    return name;
}

/**
 * The row @p name spells (already in flag spelling when @p flag),
 * or null. A `coreN` prefix matches the `coreK` rows and yields the
 * core index N in @p core.
 */
const Knob *
findRow(const std::vector<const Knob *> &rows, std::string name,
        bool flag, unsigned &core)
{
    const char sep = flag ? '-' : '.';
    const std::size_t end = name.find(sep);
    std::uint64_t k = 0;
    if (name.rfind("core", 0) == 0 && end != std::string::npos &&
        end > 4 &&
        parseUnsignedValue(std::string_view(name).substr(4, end - 4),
                           k, kMaxCmpCores - 1)) {
        core = static_cast<unsigned>(k);
        name = "coreK" + name.substr(end);
    }
    for (const Knob *row : rows)
        if ((flag ? flagSpelling(row->name) : row->name) == name)
            return row;
    return nullptr;
}

/** Empty when @p c builds; else why not. A power-of-two size that
 *  (assoc x block) divides leaves a power-of-two set count >= 1. */
std::string
geometryError(const char *level, const CacheParams &c)
{
    const std::uint64_t frame =
        std::uint64_t(c.assoc) * std::uint64_t(c.blockBytes);
    if (isPowerOf2(c.sizeBytes) && isPowerOf2(c.blockBytes) &&
        frame > 0 && c.sizeBytes % frame == 0)
        return "";
    return strFormat("bad %s geometry: %s.size=%s %s.assoc=%u "
                     "%s.block=%s (size and block must be powers of "
                     "two, and size / (assoc x block) a power of two "
                     ">= 1)",
                     level, level, bytesToString(c.sizeBytes).c_str(),
                     level, c.assoc, level,
                     bytesToString(c.blockBytes).c_str());
}

} // namespace

bool
parseFlag(const std::string &v, bool &out)
{
    if (v == "1" || v == "true" || v == "yes") {
        out = true;
        return true;
    }
    if (v == "0" || v == "false" || v == "no") {
        out = false;
        return true;
    }
    return false;
}

std::vector<const Knob *>
knobRows(unsigned binaries, std::span<const Knob> local)
{
    std::vector<const Knob *> rows;
    for (const Knob &row : kKnobs)
        if (row.binaries & binaries)
            rows.push_back(&row);
    for (const Knob &row : local)
        rows.push_back(&row);
    return rows;
}

std::string
knobUsage(const std::string &prog,
          const std::vector<const Knob *> &rows)
{
    unsigned core = 0;
    const bool positionals = findRow(rows, "benchmark", false, core);
    std::string u =
        "usage: " + prog +
        (positionals ? " [benchmark] [instrs]" : "") +
        " [option ...]\n"
        "options read as name=V, --name V or --name=V, where '-' in "
        "--name stands\nfor '.' and '_' (--checkpoint-dir DIR is "
        "checkpoint_dir=DIR); a boolean alone\nas --name sets it "
        "(--dram-banked is dram.banked=1); -j N is jobs=N\n";
    for (const Knob *row : rows) {
        const std::string spelling =
            std::string(row->name) + "=" +
            (row->value ? row->value : "0|1");
        u += strFormat("  %-34s %s\n", spelling.c_str(), row->help);
    }
    return u;
}

bool
parseArgs(int argc, const char *const *argv,
          const std::vector<const Knob *> &rows, Options &out,
          std::string &error)
{
    const auto fail = [&](const std::string &why) {
        error = why + "\n" +
                knobUsage(argc > 0 ? argv[0] : "drisim", rows);
        return false;
    };
    static constexpr const char *kPositional[] = {"benchmark",
                                                  "instrs"};
    std::size_t positionals = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        const std::size_t eq = tok.find('=');
        const bool hasValue = eq != std::string::npos;
        // -j N is --jobs N.
        const bool flag =
            tok == "-j" || (tok.size() > 2 && tok.rfind("--", 0) == 0);
        const bool bare = !flag && !hasValue && !tok.empty() &&
                          tok[0] != '-';
        std::string name;
        std::string value = hasValue ? tok.substr(eq + 1) : tok;
        if (flag)
            name = tok == "-j" ? "jobs"
                               : flagSpelling(tok.substr(2, eq - 2));
        else if (hasValue && eq > 0 && tok[0] != '-')
            name = tok.substr(0, eq);
        else if (bare && positionals < std::size(kPositional))
            name = kPositional[positionals++];
        else if (!bare)
            return fail("malformed option '" + tok + "'");

        unsigned core = 0;
        const Knob *row = findRow(rows, name, flag, core);
        if (!row)
            return fail((bare ? "unexpected argument '"
                              : "unknown option '") +
                        tok + "'");
        if (flag && !hasValue) {
            if (!row->value)
                value = "1";
            else if (i + 1 < argc)
                value = argv[++i];
            else
                return fail("missing value after " + tok);
        }
        if (!row->apply(out, value, core)) {
            std::string knob = row->name;
            if (knob.rfind("coreK", 0) == 0)
                knob.replace(4, 1, std::to_string(core));
            return fail("bad value for '" + knob + "': '" + value +
                        "'");
        }
    }

    std::string why = geometryError("l1i", out.run.hier.l1i);
    if (why.empty())
        why = geometryError("l1d", out.run.hier.l1d);
    if (why.empty())
        why = geometryError("l2", out.run.hier.l2);
    if (!why.empty())
        return fail(why);
    // sim::runSampled needs 0 < window < period.
    const sim::SamplingConfig &sampling = out.run.sampling;
    if (sampling.enabled && sampling.detailedWindow >= sampling.period)
        return fail("bad value for 'sample.window': " +
                    std::to_string(sampling.detailedWindow) +
                    " is not below sample.period=" +
                    std::to_string(sampling.period));

    // coreK.* keys for cores the final `cores=` count never builds
    // would vanish silently in cmpCores(), and a one-core run reads
    // only the global keys; warn once per orphaned record instead
    // (checked here, so key order is free).
    for (std::size_t k = out.cores == 1 ? 0 : out.cores;
         k < out.coreOverrides.size(); ++k) {
        const CoreOverride &o = out.coreOverrides[k];
        if (o.bench.empty() && o.dri == -1 && !o.driKnobsSet &&
            !o.policySet)
            continue;
        if (k < out.cores)
            warn("core0.* options ignored: a one-core run reads only "
                 "the global options (cores=1)");
        else
            warn("core%zu.* options ignored: only %u core%s "
                 "configured (cores=%u)",
                 k, out.cores, out.cores == 1 ? " is" : "s are",
                 out.cores);
    }
    error.clear();
    return true;
}

void
installObsSinks(const Options &opts)
{
    if (!opts.tracePath.empty())
        obs::initTrace(opts.tracePath);
    if (!opts.metricsPath.empty())
        obs::initMetrics(opts.metricsPath,
                         opts.metricsInterval > 0
                             ? opts.metricsInterval
                             : obs::kDefaultMetricsInterval);
}

std::string
createCheckpointDir(const Options &opts)
{
    if (opts.run.checkpointDir.empty())
        return "";
    try {
        const sim::CheckpointStore store(opts.run.checkpointDir);
    } catch (const sim::CheckpointError &e) {
        return "bad value for 'checkpoint_dir': '" +
               opts.run.checkpointDir + "' (" + e.what() + ")";
    }
    return "";
}

void
writeObsSinks()
{
    std::string err;
    if (obs::TraceWriter *tw = obs::trace()) {
        if (!tw->write(err))
            std::fprintf(stderr, "warning: %s\n", err.c_str());
        std::fprintf(stderr, "trace: %zu spans -> %s\n",
                     tw->spanCount(), tw->path().c_str());
    }
    if (obs::TimeSeriesRecorder *m = obs::metrics()) {
        if (!m->write(err))
            std::fprintf(stderr, "warning: %s\n", err.c_str());
        std::fprintf(stderr, "metrics: %zu samples -> %s\n",
                     m->sampleCount(), m->path().c_str());
    }
}

std::vector<CmpCoreConfig>
Options::cmpCores(bool driByDefault) const
{
    std::vector<CmpCoreConfig> cfgs;
    cfgs.reserve(cores);
    for (unsigned k = 0; k < cores; ++k) {
        const CoreOverride o =
            k < coreOverrides.size() ? coreOverrides[k] : CoreOverride{};
        CmpCoreConfig c;
        c.bench = o.bench.empty() ? benchmark : o.bench;
        // The leg's intent gates every core: a conventional
        // baseline (driByDefault=false) never builds a leakage-
        // managed L1I no matter which per-core knobs were set, and
        // in the managed leg coreK.dri=0 opts a core out.
        if (driByDefault && o.dri != 0) {
            // Knob records are authoritative only when a coreK.*
            // key of their kind actually appeared; padding records
            // keep following the (final) global template.
            c.l1i = o.policySet ? o.policy : policy;
            c.l1i->dri = o.driKnobsSet ? o.driParams : dri;
        }
        cfgs.push_back(std::move(c));
    }
    return cfgs;
}

CmpConfig
Options::cmpConfig(bool driByDefault) const
{
    CmpConfig c;
    c.cores = cores;
    c.coherence = coherence;
    c.coreConfigs = cmpCores(driByDefault);
    return c;
}

PolicyConfig
Options::policyConfig() const
{
    PolicyConfig p = policy;
    p.dri = dri;
    return p;
}

} // namespace drisim
