/**
 * @file
 * Run orchestration: builds the workload and a one-core CmpSystem,
 * drives its core, and reads its outputs.
 */

#include "harness/runner.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <type_traits>
#include <variant>

#include "cpu/simple_core.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "workload/fetch_replay.hh"
#include "workload/generator.hh"

namespace drisim
{

namespace
{

/**
 * Program images are deterministic; build each benchmark once and
 * share it. Executor workers construct a TraceGenerator per run, so
 * the lookup is the harness's hottest synchronization point: reads
 * take a shared lock and proceed in parallel (the serial-era
 * exclusive mutex made every worker queue up here). A cache miss
 * builds outside any lock — two workers racing on a cold benchmark
 * do redundant deterministic work and the first insert wins.
 */
class ProgramImageCache
{
  public:
    const ProgramImage &get(const BenchmarkInfo &bench)
    {
        {
            std::shared_lock<std::shared_mutex> lock(mu_);
            auto it = cache_.find(bench.name);
            if (it != cache_.end())
                return *it->second;
        }
        auto img =
            std::make_unique<ProgramImage>(buildProgram(bench.spec));
        std::unique_lock<std::shared_mutex> lock(mu_);
        auto [it, inserted] =
            cache_.try_emplace(bench.name, std::move(img));
        (void)inserted;
        return *it->second;
    }

  private:
    std::shared_mutex mu_;
    std::map<std::string, std::unique_ptr<ProgramImage>> cache_;
};

ProgramImageCache &
imageCache()
{
    static ProgramImageCache cache;
    return cache;
}

// ------------------------------------------------------------------
// Canonical run keys (see runner.hh: every result-bearing knob, no
// execution-strategy knobs)
// ------------------------------------------------------------------

void
addCacheKey(sim::ConfigKey &k, const std::string &p,
            const CacheParams &c)
{
    k.add(p + ".size", c.sizeBytes);
    k.add(p + ".assoc", static_cast<std::uint64_t>(c.assoc));
    k.add(p + ".block", static_cast<std::uint64_t>(c.blockBytes));
    k.add(p + ".lat", static_cast<std::uint64_t>(c.hitLatency));
    k.add(p + ".repl", static_cast<std::uint64_t>(c.repl));
    // Conditional so every pre-MSHR key (and hash) is unchanged.
    if (c.mshrs != 0)
        k.add(p + ".mshrs", static_cast<std::uint64_t>(c.mshrs));
}

/** A resizable level's columns: its geometry, then the resize
 *  knobs. */
void
addDriKey(sim::ConfigKey &k, const std::string &p, const DriParams &d)
{
    addCacheKey(k, p, cacheParamsFor(d, p));
    k.add(p + ".size_bound", d.sizeBoundBytes);
    k.add(p + ".miss_bound", d.missBound);
    k.add(p + ".sense_interval", d.senseInterval);
    k.add(p + ".divisibility",
          static_cast<std::uint64_t>(d.divisibility));
    k.add(p + ".throttle_bits",
          static_cast<std::uint64_t>(d.throttleBits));
    k.add(p + ".throttle_hold",
          static_cast<std::uint64_t>(d.throttleHoldIntervals));
    k.add(p + ".adaptive", d.adaptive);
}

/**
 * A policy-managed L1I's columns under @p p: the technique in
 * @p p.@p kindColumn (pol.kind in a run's key, coreK.policy in a CMP
 * core's), then every knob.
 */
void
addPolicyKey(sim::ConfigKey &k, const std::string &p,
             const char *kindColumn, const PolicyConfig &pol)
{
    k.add(p + "." + kindColumn, static_cast<std::uint64_t>(pol.kind));
    addDriKey(k, p + ".dri", pol.dri);
    k.add(p + ".decay_interval", pol.decay.decayInterval);
    k.add(p + ".counter_limit",
          static_cast<std::uint64_t>(pol.decay.counterLimit));
    k.add(p + ".drowsy_interval", pol.drowsy.drowsyInterval);
    k.add(p + ".wake_latency",
          static_cast<std::uint64_t>(pol.drowsy.wakeLatency));
    k.add(p + ".active_ways",
          static_cast<std::uint64_t>(pol.ways.activeWays));
}

void
addCalKey(sim::ConfigKey &k, const FastCalibration &cal)
{
    k.addDouble("cal.base_cpi", cal.baseCpi);
    k.addDouble("cal.miss_overlap", cal.missOverlap);
}

/**
 * The machine: caches, resizable L2, core, predictor and DRAM — every
 * column a single-core run shares with a CMP run, whose cores all run
 * on config.core.
 */
void
addMachineKey(sim::ConfigKey &k, const RunConfig &config)
{
    addCacheKey(k, "l1i", config.hier.l1i);
    addCacheKey(k, "l1d", config.hier.l1d);
    addCacheKey(k, "l2", config.hier.l2);
    k.add("l2_dri", config.hier.l2Dri);
    if (config.hier.l2Dri)
        addDriKey(k, "l2dri", config.hier.l2DriParams);

    const OooParams &c = config.core;
    k.add("core.fetch", static_cast<std::uint64_t>(c.fetchWidth));
    k.add("core.issue", static_cast<std::uint64_t>(c.issueWidth));
    k.add("core.commit", static_cast<std::uint64_t>(c.commitWidth));
    k.add("core.rob", static_cast<std::uint64_t>(c.robSize));
    k.add("core.lsq", static_cast<std::uint64_t>(c.lsqSize));
    k.add("core.fq", static_cast<std::uint64_t>(c.fetchQueueSize));
    k.add("core.redirect",
          static_cast<std::uint64_t>(c.redirectPenalty));
    k.add("core.fetch_block",
          static_cast<std::uint64_t>(c.fetchBlockBytes));
    k.add("core.mem_ports", static_cast<std::uint64_t>(c.memPorts));
    k.add("core.fp_ports", static_cast<std::uint64_t>(c.fpPorts));
    k.add("core.mul_ports", static_cast<std::uint64_t>(c.mulPorts));
    k.add("bp.bimodal",
          static_cast<std::uint64_t>(c.bpred.bimodalEntries));
    k.add("bp.gshare",
          static_cast<std::uint64_t>(c.bpred.gshareEntries));
    k.add("bp.chooser",
          static_cast<std::uint64_t>(c.bpred.chooserEntries));
    k.add("bp.history",
          static_cast<std::uint64_t>(c.bpred.historyBits));
    k.add("bp.btb_sets", static_cast<std::uint64_t>(c.bpred.btbSets));
    k.add("bp.btb_assoc",
          static_cast<std::uint64_t>(c.bpred.btbAssoc));
    k.add("bp.ras", static_cast<std::uint64_t>(c.bpred.rasDepth));

    // Conditional so flat-memory hashes stay stable.
    if (config.hier.dram.banked) {
        const DramParams &d = config.hier.dram;
        k.add("dram.banked", true);
        k.add("dram.banks", static_cast<std::uint64_t>(d.banks));
        k.add("dram.row_hit", d.rowHitLatency);
        k.add("dram.row_miss", d.rowMissLatency);
        k.add("dram.queue",
              static_cast<std::uint64_t>(d.queueDepth));
        k.add("dram.row_bytes",
              static_cast<std::uint64_t>(d.rowBytes));
    }
}

sim::ConfigKey
baseRunKey(const BenchmarkInfo &bench, const RunConfig &config)
{
    sim::ConfigKey k;
    k.add("bench", bench.name);
    k.add("instrs", config.maxInstrs);
    addMachineKey(k, config);
    k.add("sample", config.sampling.enabled);
    if (config.sampling.enabled) {
        k.add("sample.window", config.sampling.detailedWindow);
        k.add("sample.period", config.sampling.period);
    }
    return k;
}

/** The L1I column of a run's key mode and obs series name. */
const char *
l1iMode(const RunSpec &spec)
{
    static constexpr const char *kNames[] = {"conv", "dri", "policy"};
    static_assert(std::size(kNames) ==
                  std::variant_size_v<decltype(RunSpec::l1i)>);
    return kNames[spec.l1i.index()];
}

// ------------------------------------------------------------------
// RunOutput <-> result-cache fields (exact string round-trip)
// ------------------------------------------------------------------

/** A payload field's text: the exact decimal of a count, %.17g (which
 *  always round-trips) for a double. */
template <typename T>
std::string
fieldText(T v)
{
    if constexpr (std::is_floating_point_v<T>) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    } else {
        return std::to_string(v);
    }
}

/** Parse field @p name of @p f into @p out; false when it is absent
 *  or malformed (not finite, or a count out of @p T's range). */
template <typename T>
bool
parseField(const sim::ResultCache::Fields &f, const char *name, T &out)
{
    const auto it = f.find(name);
    if (it == f.end())
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        return parseFiniteValue(it->second, out);
    } else {
        std::uint64_t v = 0;
        if (!parseUnsignedValue(it->second, v,
                                std::numeric_limits<T>::max()))
            return false;
        out = static_cast<T>(v);
        return true;
    }
}

sim::ResultCache::Fields
runOutputToFields(const RunOutput &out)
{
    sim::ResultCache::Fields f;
    // Payload layout version: bumped when fields are added so
    // pre-existing sidecar entries (which lack the new columns)
    // miss cleanly instead of being served with silent zeros.
    f["payload_v"] = "3";
    forEachCounter(out, [&f](const char *name, auto v) {
        f[name] = fieldText(v);
    });
    return f;
}

/** Strict: any absent or malformed field rejects the entry, and the
 *  payload layout version must match exactly — entries written by a
 *  binary with a different column set miss and are recomputed. So
 *  does a record no run of @p maxInstrs can produce (no or too many
 *  instructions, no cycles, more misses than accesses, a fraction
 *  outside [0, 1], more than 64 tag bits): it would be served as a
 *  wrong answer or abort the calibration that reads it. */
bool
runOutputFromFields(const sim::ResultCache::Fields &f, InstCount maxInstrs,
                    RunOutput &out)
{
    const auto pv = f.find("payload_v");
    if (pv == f.end() || pv->second != "3")
        return false;
    bool parsed = true;
    forEachCounter(out, [&](const char *name, auto &field) {
        parsed = parsed && parseField(f, name, field);
    });
    const auto isFraction = [](double v) { return v >= 0.0 && v <= 1.0; };
    return parsed && out.meas.instructions >= 1 &&
           out.meas.instructions <= maxInstrs && out.meas.cycles >= 1 &&
           out.meas.l1iMisses <= out.meas.l1iAccesses &&
           out.l2Misses <= out.l2Accesses &&
           isFraction(out.meas.avgActiveFraction) &&
           isFraction(out.l2AvgActiveFraction) &&
           isFraction(out.l1DrowsyFraction) &&
           isFraction(out.l1GatedFraction) &&
           out.meas.resizingTagBits <= 64 && out.l2ResizingTagBits <= 64;
}

/**
 * Serve @p key from the result cache when possible, else compute via
 * @p impl and store. A hit whose payload fails strict field parsing
 * is recomputed and overwritten, never served.
 */
/** Instant ("dur":0) cache-lookup event on the trace timeline. */
void
cacheEvent(const char *name, const sim::ConfigKey &key)
{
    obs::TraceWriter *tw = obs::trace();
    if (!tw)
        return;
    obs::TraceSpan s;
    s.cat = "cache";
    s.name = name;
    s.ts = tw->nowMicros();
    s.args.emplace_back("key", key.hashHex());
    tw->complete(std::move(s));
}

template <typename Impl>
RunOutput
memoizedRun(const RunConfig &config, const sim::ConfigKey &key,
            Impl &&impl)
{
    if (!config.resultCache)
        return impl();
    sim::ResultCache::Fields f;
    if (config.resultCache->lookup(key, f)) {
        RunOutput out;
        if (runOutputFromFields(f, config.maxInstrs, out)) {
            cacheEvent("hit", key);
            return out;
        }
    }
    cacheEvent("miss", key);
    const RunOutput out = impl();
    config.resultCache->store(key, runOutputToFields(out));
    return out;
}

/**
 * Checkpoint-store key version of a run's snapshots, by core model.
 * v3: the coherence layer added per-block MSI state to every tag
 * store (plus a layout magic the reader verifies); stale v1/v2
 * snapshots must miss, not crash. v4 (fast runs): the stream state
 * is a replay cursor, not the generator's, so a fast v3 snapshot
 * written by an older build misses and is rewritten. v5 (detailed)
 * and v6 (fast): every cache walks its coherence-lost bits and
 * refetch count, and a resizable cache walks a cache's, so v3/v4
 * snapshots miss. v7 (detailed; v6 is taken by fast runs): the BTB
 * keeps each set in recency order instead of timestamps, so its walk
 * lost an entry's lastTouch and the clock, and v5 snapshots miss.
 * Fast runs carry no predictor and keep v6.
 */
const char *
snapshotVersion(bool fast)
{
    return fast ? "v6" : "v7";
}

/**
 * Thrown by runCheckpointed() when a stored snapshot passes the
 * store's checks but not the restore walk. The walk may have
 * overwritten any component, so run() treats the snapshot as a miss:
 * it builds the components afresh and simulates from instruction 0,
 * and that run's midpoint snapshot replaces the bad one.
 */
struct UnusableSnapshot
{
};

/**
 * Run the one core of @p sys to config.maxInstrs through the midpoint
 * checkpoint seam: when @p restore is set and a snapshot of this
 * exact key exists, restore it and simulate only the second half,
 * else simulate the first half, snapshot, and continue. One walk
 * covers both directions: the system's (its stream, core, levels and
 * L1I policy) in the run section. The split is aligned to the fast
 * model's retire batch (64) so both core models continue
 * bit-identically. Disabled (plain full run) when no checkpoint
 * directory is configured or the run is too short to split.
 */
CoreStats
runCheckpointed(const RunConfig &config, const sim::ConfigKey &key,
                bool restore, const char *version, CmpSystem &sys)
{
    Core &core = sys.core(0);
    InstrStream &stream = sys.stream(0);
    const InstCount total = config.maxInstrs;
    const InstCount split = (total / 2) & ~InstCount{63};
    if (config.checkpointDir.empty() || split == 0 || split >= total)
        return core.run(stream, total);

    const sim::CheckpointStore store(config.checkpointDir);
    const std::string storeKey = std::string(version) + "|" +
                                 key.canonical() + "|ckpt@" +
                                 std::to_string(split);
    const auto walk = [&](sim::StateIO io) {
        io.begin("run");
        sys.checkpoint(io);
        io.end();
    };
    std::string blob;
    if (restore && store.load(storeKey, blob)) {
        {
            obs::ScopedSpan span(obs::trace(), "checkpoint",
                                 "restore");
            sim::CheckpointReader r(std::move(blob));
            try {
                walk(r);
                if (!r.atEnd())
                    throw sim::CheckpointError("bytes after the run section");
            } catch (const sim::CheckpointError &e) {
                warn("snapshot of run %s does not restore (%s); "
                     "simulating it from the start",
                     key.hashHex().c_str(), e.what());
                throw UnusableSnapshot{};
            }
            sim::countRestore();
        }
        return core.run(stream, total - split);
    }

    core.run(stream, split);
    {
        obs::ScopedSpan span(obs::trace(), "checkpoint", "save");
        sim::CheckpointWriter w;
        walk(w);
        store.save(storeKey, w.bytes());
    }
    return core.run(stream, total - split);
}

/** Record @p bench's first @p instrs instructions (one workload
 *  span per recording). */
std::shared_ptr<const FetchRecording>
recordStream(const BenchmarkInfo &bench, InstCount instrs)
{
    obs::ScopedSpan span(obs::trace(), "workload",
                         bench.name + "/record");
    return std::make_shared<const FetchRecording>(programImageFor(bench),
                                                  instrs);
}

/**
 * The recording a fast run replays: the calibration's (recorded now
 * if its slot is still empty) when it was made from the same image
 * and covers the run, else the run's own, freed with the run.
 */
std::shared_ptr<const FetchRecording>
fastRecording(const BenchmarkInfo &bench, const RunConfig &config,
              const FastCalibration &cal)
{
    const auto record = [&] {
        return recordStream(bench, config.maxInstrs);
    };
    if (!cal.recording)
        return record();
    std::shared_ptr<const FetchRecording> rec =
        cal.recording->get(record);
    return rec->covers(programImageFor(bench), config.maxInstrs) ? rec
                                                                 : record();
}

/** The series a run's trace span and interval samples share. */
std::string
obsSeries(const BenchmarkInfo &bench, const std::string &mode,
          const sim::ConfigKey &key)
{
    return bench.name + "/" + mode + "#" + key.hashHex();
}

/**
 * A one-core system's cumulative interval readings: the core clock,
 * the L1D, the L2, DRAM and MSHR counters as readShared() reads them
 * into RunOutput, and the L1I's (l1iReadings).
 */
obs::Readings
runReadings(CmpSystem &sys, bool banked)
{
    RunOutput o;
    sys.readShared(o);
    const Cycles cycles = sys.core(0).stats().cycles;
    obs::Readings r = l1iReadings(sys.policy(0), sys.l1i(0), cycles, false);
    r["cycles"] = static_cast<double>(cycles);
    r["l1d_accesses"] = static_cast<double>(sys.l1d(0).accesses());
    r["l1d_misses"] = static_cast<double>(sys.l1d(0).misses());
    r["l2_accesses"] = static_cast<double>(o.l2Accesses);
    r["l2_misses"] = static_cast<double>(o.l2Misses);
    r["mshr_peak_occupancy"] = static_cast<double>(o.mshrPeakOccupancy);
    if (banked)
        r["dram_busy_cycles"] = static_cast<double>(o.dramBusyCycles);
    return r;
}

/**
 * Interval-metered alternative to runCheckpointed: chunk the run at
 * the recorder's interval (a multiple of the fast model's
 * 64-instruction retire batch, so chunked execution is bit-identical
 * to one call) and hand @p read()'s readings to @p sampler after
 * every chunk. Only reached when a metrics sink is installed;
 * checkpoints are skipped for the run — observability is
 * execution-only, so results are unchanged either way.
 */
template <typename Read>
CoreStats
runMetered(Core &core, InstrStream &stream, InstCount total,
           InstCount interval, obs::IntervalSampler &sampler, Read &&read)
{
    CoreStats cs = core.stats();
    InstCount done = 0;
    while (done < total) {
        const InstCount chunk = std::min(interval, total - done);
        const InstCount before = core.stats().instructions;
        cs = core.run(stream, chunk);
        const InstCount ran = cs.instructions - before;
        done += ran;
        sampler.sample(cs.instructions, read());
        if (ran < chunk)
            break; // stream drained
    }
    return cs;
}

/**
 * The body of run(): build a one-core system with the spec's L1I and
 * core model, drive its core over the run's stream by one of three
 * branches (sampled, interval-metered or through the checkpoint seam,
 * which restores a stored snapshot only when @p restore is set), and
 * read the system out.
 */
RunOutput
simulate(const BenchmarkInfo &bench, const RunConfig &config,
         const RunSpec &spec, const sim::ConfigKey &key, bool restore)
{
    // A DRI L1I is the Dri leakage policy. Only its policyBlocksLost
    // (never reported, 0) and its gated share (charged at zero, the
    // paper's rounding) stay DRI-specific.
    const DriParams *dri = std::get_if<DriParams>(&spec.l1i);
    CmpConfig one;
    if (dri)
        one.coreConfigs.push_back({"", PolicyConfig{.dri = *dri}});
    else if (const auto *pol = std::get_if<PolicyConfig>(&spec.l1i))
        one.coreConfigs.push_back({"", *pol});

    const std::string series = obsSeries(
        bench, std::string(l1iMode(spec)) + (spec.fast ? "-fast" : ""),
        key);
    obs::ScopedSpan runSpan(obs::trace(), "run", series);
    std::shared_ptr<const FetchRecording> rec;
    std::optional<FetchReplay> replay;
    FastModel fast;
    if (spec.fast) {
        rec = fastRecording(bench, config, *spec.fast);
        replay.emplace(*rec);
        fast = {{.baseCpi = spec.fast->baseCpi,
                 .missOverlap = spec.fast->missOverlap},
                &*replay};
    }
    stats::StatGroup root(spec.fast ? "fast" : "sim");
    CmpSystem sys(one, config.hier, config.core, {&programImageFor(bench)},
                  &root, spec.fast ? &fast : nullptr);

    Core &core = sys.core(0);
    CoreStats cs;
    if (!spec.fast && config.sampling.enabled) {
        cs = sim::runSampled(core, &sys.l1i(0), &sys.l1d(0), sys.stream(0),
                             config.maxInstrs, config.sampling,
                             config.core.fetchBlockBytes);
    } else if (obs::TimeSeriesRecorder *m = obs::metrics()) {
        obs::IntervalSampler sampler(*m, series);
        cs = runMetered(core, sys.stream(0), config.maxInstrs,
                        m->interval(), sampler, [&] {
                            return runReadings(sys,
                                               config.hier.dram.banked);
                        });
    } else {
        cs = runCheckpointed(config, key, restore,
                             snapshotVersion(spec.fast != nullptr), sys);
    }

    RunOutput out;
    sys.readCore(0, cs, dri != nullptr, out);
    sys.readShared(out);
    return out;
}

/** calibrateFast()'s floor on base CPI: the 8-wide ideal. */
constexpr double kMinBaseCpi = 0.125;

FastCalibration
calibrateFastImpl(const BenchmarkInfo &bench, const RunConfig &config,
                  const RunOutput &convDetailed)
{
    FastCalibration cal;
    obs::ScopedSpan runSpan(obs::trace(), "run",
                            bench.name + "/calibrate");
    // Measure the conventional fetch-miss stall with the fast model
    // (independent of CPI), then solve baseCpi so the fast model
    // reproduces the detailed conventional cycle count. The L2 stays
    // at full size: a DRI L2 that hears no retire broadcast is the
    // conventional L2 it replaces (ResizableCacheIsACache.*).
    const std::shared_ptr<const FetchRecording> rec =
        recordStream(bench, config.maxInstrs);
    cal.recording = std::make_shared<RecordingSlot>(rec);
    FetchReplay replay(*rec);
    HierarchyParams hier = config.hier;
    hier.l2Dri = false;
    // baseCpi is irrelevant to the stall measurement.
    const FastModel fast{{.baseCpi = 1.0}, &replay};
    stats::StatGroup root("cal");
    CmpSystem sys(CmpConfig{}, hier, config.core, {&programImageFor(bench)},
                  &root, &fast);
    sys.core(0).run(replay, config.maxInstrs);
    const double stall = static_cast<double>(
        static_cast<const SimpleCore &>(sys.core(0)).missStallCycles());

    const double instrs =
        static_cast<double>(convDetailed.meas.instructions);
    const double cycles =
        static_cast<double>(convDetailed.meas.cycles);
    drisim_assert(instrs > 0, "calibration needs a non-empty run");
    cal.baseCpi =
        std::max(kMinBaseCpi, (cycles - cal.missOverlap * stall) / instrs);
    return cal;
}

} // namespace

sim::ConfigKey
runKey(const BenchmarkInfo &bench, const RunConfig &config,
       const RunSpec &spec)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode",
          std::string(l1iMode(spec)) + (spec.fast ? "_fast" : ""));
    if (const auto *dri = std::get_if<DriParams>(&spec.l1i))
        addDriKey(k, "dri", *dri);
    else if (const auto *pol = std::get_if<PolicyConfig>(&spec.l1i))
        addPolicyKey(k, "pol", "kind", *pol);
    if (spec.fast)
        addCalKey(k, *spec.fast);
    return k;
}

sim::ConfigKey
runKeyCalibrate(const BenchmarkInfo &bench, const RunConfig &config)
{
    sim::ConfigKey k = baseRunKey(bench, config);
    k.add("mode", "calibrate");
    return k;
}

const ProgramImage &
programImageFor(const BenchmarkInfo &bench)
{
    return imageCache().get(bench);
}

InstCount
defaultRunInstrs()
{
    constexpr double kDefaultInstrs = 10.0e6;
    const char *scale = std::getenv("DRISIM_SCALE");
    if (!scale || !*scale)
        return static_cast<InstCount>(kDefaultInstrs);
    // A typo must not silently run the full-length default.
    double mult = 0.0;
    const bool ok = parseFiniteValue(scale, mult) &&
                    kDefaultInstrs * mult >= 1.0 &&
                    kDefaultInstrs * mult <= 1.0e18;
    if (!ok)
        drisim_fatal("DRISIM_SCALE='%s' is not a positive multiplier "
                     "on the 10M-instruction default run length",
                     scale);
    return static_cast<InstCount>(kDefaultInstrs * mult);
}

RunOutput
run(const BenchmarkInfo &bench, const RunConfig &config,
    const RunSpec &spec)
{
    const sim::ConfigKey key = runKey(bench, config, spec);
    return memoizedRun(config, key, [&] {
        try {
            return simulate(bench, config, spec, key, true);
        } catch (const UnusableSnapshot &) {
            return simulate(bench, config, spec, key, false);
        }
    });
}

FastCalibration
calibrateFast(const BenchmarkInfo &bench, const RunConfig &config,
              const RunOutput &convDetailed)
{
    if (!config.resultCache)
        return calibrateFastImpl(bench, config, convDetailed);

    // A record outside what calibrateFastImpl can produce is a miss,
    // recomputed and overwritten: the fast model must never see it.
    const sim::ConfigKey key = runKeyCalibrate(bench, config);
    sim::ResultCache::Fields f;
    FastCalibration cal;
    if (config.resultCache->lookup(key, f) &&
        parseField(f, "base_cpi", cal.baseCpi) &&
        parseField(f, "miss_overlap", cal.missOverlap) &&
        cal.baseCpi >= kMinBaseCpi && cal.missOverlap >= 0.0 &&
        cal.missOverlap <= 1.0) {
        // Nothing was simulated, so nothing was recorded: the first
        // fast run that simulates records for all of them.
        cal.recording = std::make_shared<RecordingSlot>();
        return cal;
    }

    cal = calibrateFastImpl(bench, config, convDetailed);
    sim::ResultCache::Fields out;
    out["base_cpi"] = fieldText(cal.baseCpi);
    out["miss_overlap"] = fieldText(cal.missOverlap);
    config.resultCache->store(key, out);
    return cal;
}

std::vector<std::string>
cmpBenchNames(const CmpConfig &cmp, const std::string &defaultBench)
{
    std::vector<std::string> names;
    names.reserve(cmp.cores);
    for (unsigned k = 0; k < cmp.cores; ++k) {
        const CmpCoreConfig cfg = cmp.coreConfig(k);
        names.push_back(cfg.bench.empty() ? defaultBench
                                          : cfg.bench);
    }
    return names;
}

sim::ConfigKey
runKeyCmp(const RunConfig &config, const CmpConfig &cmp,
          const std::string &defaultBench)
{
    // Sampling stays out: CmpSystem ignores it.
    sim::ConfigKey k;
    k.add("mode", "cmp");
    k.add("instrs", config.maxInstrs);
    k.add("cores", static_cast<std::uint64_t>(cmp.cores));
    k.add("quantum", cmp.quantum);
    k.add("bus.banks", static_cast<std::uint64_t>(cmp.l2Banks));
    k.add("bus.penalty",
          static_cast<std::uint64_t>(cmp.l2ContentionPenalty));
    addMachineKey(k, config);
    const std::vector<std::string> names =
        cmpBenchNames(cmp, defaultBench);
    for (unsigned c = 0; c < cmp.cores; ++c) {
        const CmpCoreConfig cc = cmp.coreConfig(c);
        const std::string p = "core" + std::to_string(c);
        k.add(p + ".bench", names[c]);
        k.add(p + ".dri", cc.l1i.has_value());
        if (cc.l1i)
            addPolicyKey(k, p, "policy", *cc.l1i);
    }
    // Conditional like dram.banked: non-coherent keys carry no
    // coherence columns, but a coherent run can never collide with
    // a non-coherent one (or with a differently-sized directory).
    if (cmp.coherence.enabled) {
        k.add("coh.enabled", true);
        k.add("coh.entries", cmp.coherence.directoryEntries);
        k.add("coh.msg_latency",
              static_cast<std::uint64_t>(cmp.coherence.msgLatency));
    }
    return k;
}

CmpRunOutput
runCmp(const RunConfig &config, const CmpConfig &cmp,
       const std::string &defaultBench)
{
    const std::vector<std::string> names =
        cmpBenchNames(cmp, defaultBench);
    std::vector<const ProgramImage *> images;
    images.reserve(names.size());
    for (const std::string &name : names)
        images.push_back(&programImageFor(findBenchmark(name)));

    CmpConfig resolved = cmp;
    for (CmpCoreConfig &core : resolved.coreConfigs)
        if (core.l1i)
            core.l1i->dri =
                driParamsForLevel(config.hier.l1i, core.l1i->dri);
    stats::StatGroup root("cmp");
    CmpSystem sys(resolved, config.hier, config.core, images, &root);
    obs::ScopedSpan runSpan(obs::trace(), "run",
                            defaultBench + "/cmp");
    if (obs::metrics())
        sys.setObsSeries(
            defaultBench + "/cmp#" +
            runKeyCmp(config, cmp, defaultBench).hashHex());
    CmpRunOutput out = sys.run(config.maxInstrs);
    for (std::size_t k = 0; k < out.cores.size(); ++k)
        out.cores[k].bench = names[k];
    return out;
}

namespace
{

LevelInput
l1iLevel(std::string name, const CoreOutput &c)
{
    const RunMeasurement &m = c.meas;
    LevelInput l{std::move(name), LevelInput::Tier::L1, m.l1iBytes};
    l.active = m.avgActiveFraction;
    l.drowsy = c.l1DrowsyFraction;
    l.gated = c.l1GatedFraction;
    l.tagBits = m.resizingTagBits;
    l.lookups = m.l1iAccesses;
    l.wakes = c.wakeTransitions;
    return l;
}

/** The levels below the L1Is: the L2, which reads its resizing tags
 *  on every access it receives, and memory. */
void
appendL2AndMem(std::vector<LevelInput> &levels, const SharedOutput &out,
               std::uint64_t probes)
{
    LevelInput l2{"l2", LevelInput::Tier::L2, out.l2SizeBytes};
    l2.active = out.l2AvgActiveFraction;
    l2.tagBits = out.l2ResizingTagBits;
    l2.lookups = out.l2Accesses;
    l2.received = out.l2Accesses;
    l2.probes = probes;
    levels.push_back(std::move(l2));
    LevelInput mem{"mem", LevelInput::Tier::Mem};
    mem.received = out.memAccesses;
    levels.push_back(std::move(mem));
}

} // namespace

std::vector<LevelInput>
paperView(const RunOutput &out)
{
    LevelInput l2{"l2", LevelInput::Tier::L2};
    l2.received = out.meas.l1iMisses;
    return {l1iLevel("l1i", out), std::move(l2)};
}

std::vector<LevelInput>
hierarchyView(const RunOutput &out)
{
    std::vector<LevelInput> levels{l1iLevel("l1i", out)};
    appendL2AndMem(levels, out, 0);
    return levels;
}

std::vector<LevelInput>
cmpView(const CmpRunOutput &out)
{
    std::vector<LevelInput> levels;
    for (std::size_t k = 0; k < out.cores.size(); ++k)
        levels.push_back(
            l1iLevel("l1i[" + std::to_string(k) + "]", out.cores[k]));
    appendL2AndMem(levels, out,
                   out.coherenceInvalidations + out.coherenceDowngrades);
    return levels;
}

} // namespace drisim
