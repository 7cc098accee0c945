/**
 * @file
 * Run orchestration: builds a benchmark's program image and a
 * one-core CmpSystem (system/cmp.hh) with its L1 i-cache and core,
 * drives the core (sampled, interval-metered or through the midpoint
 * checkpoint) and reads the system's per-core and shared-level
 * outputs. One entry point, run(), takes a RunSpec: the L1I
 * (conventional, DRI or any leakage policy) and the core model (the
 * detailed out-of-order core, or the fast fetch-driven model used
 * only for parameter search; see SimpleCore). runKey() names the
 * run; the CMP study has its own pair, runCmp() and runKeyCmp(), over
 * an N-core CmpSystem. paperView(), hierarchyView() and cmpView() turn
 * an output into the energy ledger's input.
 *
 * A run whose key differs from a finished run's only in the L1I's
 * miss-bound and size-bound is that run's sibling: both read those
 * knobs only at sense-interval boundaries. A sibling named in
 * RunSpec::leaders is served from the finished run's RunLead when its
 * own controller, replayed over the leader's boundary history,
 * reproduces every decision (core/resize_controller.hh). Serving sits
 * inside run()'s result-cache memoization: a served run is looked up
 * and stored under its own key like a simulated one, opens no run
 * span, and leaves an instant cache-category "served" trace event.
 */

#ifndef DRISIM_HARNESS_RUNNER_HH
#define DRISIM_HARNESS_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/dri_params.hh"
#include "core/resize_controller.hh"
#include "cpu/ooo_core.hh"
#include "farm/shard_plan.hh"
#include "energy/ledger.hh"
#include "mem/hierarchy.hh"
#include "policy/leakage_policy.hh"
#include "sim/result_cache.hh"
#include "sim/sampling.hh"
#include "system/cmp.hh"
#include "workload/spec_suite.hh"

namespace drisim
{

struct ProgramImage;   // workload/cfg.hh
class RecordingSlot;   // workload/fetch_replay.hh

/** Common knobs for one simulation run. */
struct RunConfig
{
    /**
     * Cache geometries (Table 1 defaults). Setting `hier.l2Dri`
     * turns any run — conventional or DRI L1I, fast or detailed —
     * into a multi-level scenario: the L2 is built resizable and is
     * driven by the core's retire/cycle broadcast alongside any
     * DRI L1I.
     */
    HierarchyParams hier{};
    /** Core shape (Table 1 defaults). */
    OooParams core{};
    /** Instructions to simulate. */
    InstCount maxInstrs = 10 * 1000 * 1000;
    /**
     * Worker count for sweep-shaped work (the --jobs knob): 0 defers
     * to the DRISIM_JOBS environment variable, absent which runs are
     * serial. Results are bit-identical at any value; see
     * harness/executor.hh.
     */
    unsigned jobs = 0;

    /**
     * Phase sampling (sim/sampling.hh): detailed windows separated
     * by functional fast-forward. Applies to detailed runs only
     * (the fast model is already an approximation);
     * changes results, so it participates in the run key. When
     * enabled, mid-run checkpointing is skipped.
     */
    sim::SamplingConfig sampling{};

    /**
     * Directory for mid-run architectural snapshots ("" = off).
     * A run first looks for a snapshot of its own key at the
     * midpoint; on a hit it restores and simulates only the second
     * half, bit-identically (locked by tests/checkpoint_test.cc).
     * A snapshot that fails to restore is a miss, overwritten.
     */
    std::string checkpointDir;

    /**
     * Sweep-farm shard assignment (--shard K/N, shard=K/N): a
     * sharded bench runs only the sweep units whose stable config
     * hash lands on this shard (farm/shard_plan.hh). Default =
     * unsharded. Execution-only, like jobs: which process ran a
     * unit cannot change its result, so the plan never enters run
     * keys (locked by tests/options_test.cc).
     */
    farm::ShardPlan shard;

    /**
     * Content-addressed result memoization (null = off). Completed
     * RunOutputs are stored under the canonical config hash and
     * served without simulating on later identical runs — across
     * binaries and processes (sim/result_cache.hh).
     * jobs/checkpointDir/resultCache never enter the key: they
     * cannot change results.
     */
    std::shared_ptr<sim::ResultCache> resultCache;
};

/** What one run produced: its one core's output and the shared
 *  levels' (system/cmp.hh). */
struct RunOutput : CoreOutput, SharedOutput
{
};

/**
 * Call f(name, field) for every field of @p out (a RunOutput, const
 * or not) under its result-cache payload name: the CoreOutput part,
 * then the SharedOutput part. Each field is a std::uint64_t, an
 * unsigned or a double. The payload writer and reader and the tests'
 * run comparator walk this one list, so a new field is named here and
 * nowhere else.
 */
template <typename Out, typename F>
void
forEachCounter(Out &out, F &&f)
{
    f("cycles", out.meas.cycles);
    f("instructions", out.meas.instructions);
    f("l1i_accesses", out.meas.l1iAccesses);
    f("l1i_misses", out.meas.l1iMisses);
    f("l1i_active_fraction", out.meas.avgActiveFraction);
    f("l1i_tag_bits", out.meas.resizingTagBits);
    f("l1i_bytes", out.meas.l1iBytes);
    f("ipc", out.ipc);
    f("l1d_miss_rate", out.l1dMissRate);
    f("resizes", out.resizes);
    f("throttle_events", out.throttleEvents);
    f("l1_drowsy_fraction", out.l1DrowsyFraction);
    f("l1_gated_fraction", out.l1GatedFraction);
    f("wake_transitions", out.wakeTransitions);
    f("wake_stall_cycles", out.wakeStallCycles);
    f("policy_blocks_lost", out.policyBlocksLost);

    f("l2_miss_rate", out.l2MissRate);
    f("l2_accesses", out.l2Accesses);
    f("l2_misses", out.l2Misses);
    f("mem_accesses", out.memAccesses);
    f("mem_reads", out.memReads);
    f("mem_writebacks", out.memWritebacks);
    f("mshr_coalesced", out.mshrCoalesced);
    f("mshr_full_stalls", out.mshrFullStalls);
    f("mshr_full_stall_cycles", out.mshrFullStallCycles);
    f("mshr_peak_occupancy", out.mshrPeakOccupancy);
    f("dram_row_hits", out.dramRowHits);
    f("dram_row_misses", out.dramRowMisses);
    f("dram_queue_full", out.dramQueueFullEvents);
    f("dram_busy_cycles", out.dramBusyCycles);
    f("l2_size_bytes", out.l2SizeBytes);
    f("l2_active_fraction", out.l2AvgActiveFraction);
    f("l2_tag_bits", out.l2ResizingTagBits);
    f("l2_resizes", out.l2Resizes);
}

/**
 * The ledger's views of a run (energy/ledger.hh). The paper view
 * (Figures 3-6, Section 5.6, the policy study) is the L1I row plus
 * an L2 row that carries only the extra-miss traffic. The hierarchy
 * view (Bai et al.) is l1i, l2 and mem, each level with its own
 * leakage and tag overhead and the traffic it receives. The CMP view
 * is the hierarchy view with an l1i[k] row per core and the
 * coherence probes on the shared l2.
 */
std::vector<LevelInput> paperView(const RunOutput &out);
std::vector<LevelInput> hierarchyView(const RunOutput &out);
std::vector<LevelInput> cmpView(const CmpRunOutput &out);

/**
 * Default run length honouring the DRISIM_SCALE environment
 * variable (a multiplier on 10 M instructions; see docs/DESIGN.md,
 * Scaling methodology). Unset or empty means 1. A value that is not
 * a finite number, or that makes the run shorter than one
 * instruction, is a user error: fatal, exit status 1.
 */
InstCount defaultRunInstrs();

/**
 * Build (or fetch) the cached deterministic program image for
 * @p bench. Thread-safe and read-mostly: concurrent runs of the same
 * benchmark share one image without serializing on a writer lock.
 * Sweep graphs may call this from a root job to warm the cache
 * before fanning out.
 */
const ProgramImage &programImageFor(const BenchmarkInfo &bench);

/** Fast-model calibration from a detailed conventional run. */
struct FastCalibration
{
    /** Base CPI once i-cache stalls are removed. */
    double baseCpi = 0.5;
    /** Stall-to-time transfer fraction. */
    double missOverlap = 0.85;
    /**
     * The benchmark's fetch stream, shared by the fast runs that use
     * this calibration (and its copies). calibrateFast() fills it
     * when it simulates; a calibration served from the result cache
     * leaves it to the first fast run that simulates. Null (a
     * calibration built by hand): each fast run records its own.
     * Execution-only: a fast run replays the recording when it
     * covers the run, and it never enters a run key or a cache
     * payload.
     */
    std::shared_ptr<RecordingSlot> recording;
};

/**
 * Derive the fast-model calibration for a benchmark from its
 * detailed conventional run (see SimpleCore docs). The calibration
 * carries a recording slot, so the fast runs sharing it generate
 * the stream at most once between them.
 */
FastCalibration calibrateFast(const BenchmarkInfo &bench,
                              const RunConfig &config,
                              const RunOutput &convDetailed);

/** A conventional L1 i-cache, shaped by RunConfig::hier.l1i. */
struct ConventionalL1i
{
};

/**
 * What a finished run offers its siblings, the runs whose keys equal
 * its own once the L1I's miss_bound and size_bound columns are
 * dropped (dri.* for a DriParams L1I, pol.dri.* for a PolicyConfig):
 * its output, that reduced key, and its DRI L1I's boundary history.
 * Only a run that simulated every boundary in this process has one:
 * not a result-cache hit, not a sampled or metered run, and none
 * while a checkpoint directory is configured.
 */
struct RunLead
{
    RunOutput out;
    std::string siblingKey;
    ResizeHistory history;
};

/**
 * What one run asks of the machine RunConfig describes: which L1
 * i-cache (conventional, the paper's DRI i-cache, or any leakage
 * policy, policy/leakage_policy.hh) on which core model (detailed
 * when fast is null, else the calibrated fast model).
 */
struct RunSpec
{
    std::variant<ConventionalL1i, DriParams, PolicyConfig> l1i;
    /** Non-null: run SimpleCore on this calibration. Sampling then
     *  does not apply (the fast model is already an approximation). */
    const FastCalibration *fast = nullptr;
    /**
     * Finished siblings this run may be served from, tried in order
     * (null entries are skipped). The first whose history this run's
     * own controller reproduces (replayReproduces) serves it: the run
     * returns that leader's output with its own resizing tag bits,
     * and nothing is simulated. Execution-only, like RunConfig::jobs:
     * a served run equals its simulation, so leaders never enter the
     * key.
     */
    std::vector<std::shared_ptr<const RunLead>> leaders{};
};

/**
 * Run @p bench on the machine @p config describes with the L1I and
 * core model @p spec names, as a one-core CmpSystem whose L1I
 * geometry is the spec's as given. A DRI L1I is the Dri leakage
 * policy, a DriICache built by makeLeakagePolicy, bit-identical to
 * wiring one by hand (locked by tests/policy_test.cc). Results are
 * memoized in config.resultCache under runKey().
 */
RunOutput run(const BenchmarkInfo &bench, const RunConfig &config,
              const RunSpec &spec = {});

/**
 * run(), handing back in @p lead what the run offers its siblings: a
 * RunLead of its own when it simulated every boundary of a DRI L1I,
 * its leader's when it was served, null otherwise.
 */
RunOutput run(const BenchmarkInfo &bench, const RunConfig &config,
              const RunSpec &spec, std::shared_ptr<const RunLead> &lead);

/** Runs served from a sibling's in this process, for bench-side
 *  reporting (like sim::checkpointCounters()). */
std::uint64_t servedRuns();

/**
 * Canonical configuration key of run(): every knob that can change
 * the run's result, in sorted-key canonical form
 * (sim/result_cache.hh). The hash of the key names the run in the
 * result cache, in the checkpoint store and in every --json report
 * row (config_hash), so artifacts from different binaries and
 * processes join on it. jobs/checkpointDir/resultCache are
 * deliberately absent: they cannot change results. The mode column
 * is conv, dri or policy, with _fast on the fast model.
 */
sim::ConfigKey runKey(const BenchmarkInfo &bench,
                      const RunConfig &config, const RunSpec &spec = {});

/** Key of calibrateFast(): the machine plus mode=calibrate. */
sim::ConfigKey runKeyCalibrate(const BenchmarkInfo &bench,
                               const RunConfig &config);

/**
 * The benchmark each CMP core runs: its coreK.bench override, or
 * @p defaultBench where none was given. One entry per configured
 * core.
 */
std::vector<std::string> cmpBenchNames(const CmpConfig &cmp,
                                       const std::string &defaultBench);

/**
 * Canonical key for a CMP run: the machine every core shares (the
 * same cache, core, predictor and DRAM columns as runKey()), every
 * core's benchmark and L1I (a managed one under runKey()'s policy
 * columns, prefixed coreK), plus the sharing model, including the
 * coherence configuration — two runs that differ only in coherence
 * enablement, directory capacity or message latency must never
 * share a snapshot or report identity (locked by
 * tests/checkpoint_test.cc).
 */
sim::ConfigKey runKeyCmp(const RunConfig &config, const CmpConfig &cmp,
                         const std::string &defaultBench);

/**
 * Detailed CMP run (system/cmp.hh): N cores, private L1s
 * (conventional or any leakage policy per cmp.coreConfigs, each
 * managed L1I's geometry resolved against config.hier.l1i), shared
 * L2 (conventional or resizable per config.hier.l2Dri), each core
 * running config.maxInstrs instructions of its own benchmark. With
 * cmp.cores == 1 this reproduces the single-core run() bit-for-bit
 * (locked by tests).
 */
CmpRunOutput runCmp(const RunConfig &config, const CmpConfig &cmp,
                    const std::string &defaultBench);

} // namespace drisim

#endif // DRISIM_HARNESS_RUNNER_HH
