/**
 * @file
 * Parallel sweep/table execution engine.
 *
 * The paper's headline results come from empirically searching a
 * (size-bound x miss-bound) grid per benchmark (Section 5.3) — an
 * embarrassingly parallel workload the serial-era harness walked one
 * cell at a time. The executor runs such grids as a JobGraph on a
 * work-stealing pool while keeping every observable result
 * bit-identical to the serial walk:
 *
 *  - jobs carry a deterministic seed derived from their *key*
 *    (benchmark/parameter identity), never from submission or
 *    completion order;
 *  - results aggregate into index-addressed slots, so reductions
 *    scan them in grid order regardless of completion interleaving;
 *  - dependencies express the pipeline "fast-model grid -> select
 *    winner -> detailed re-run of the winner".
 *
 * `jobs == 1` degenerates to serial execution on the calling thread
 * and is the reference the determinism tests compare against.
 */

#ifndef DRISIM_HARNESS_EXECUTOR_HH
#define DRISIM_HARNESS_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_pool.hh"

namespace drisim
{

/** max(1, std::thread::hardware_concurrency()). */
unsigned hardwareJobCount();

/**
 * Resolve a --jobs style request. 0 defers to the DRISIM_JOBS
 * environment variable if set ("0" means auto, i.e. the hardware
 * count), otherwise 1 (serial; parallelism is opt-in). A DRISIM_JOBS
 * that parseJobsValue() rejects is a user error: fatal, exit status
 * 1.
 */
unsigned resolveJobCount(unsigned requested);

/**
 * Parse a --jobs / DRISIM_JOBS value. Accepts only plain decimal
 * digits ("0" = auto) up to a sanity cap of 4096 workers — in
 * particular "-1" is rejected rather than wrapping to four billion
 * threads. Returns false without touching @p out on bad input.
 */
bool parseJobsValue(std::string_view text, unsigned &out);

/**
 * Deterministic 64-bit seed from a stable job key (FNV-1a with a
 * SplitMix64 finalizer). Identical across platforms and independent
 * of scheduling, so stochastic jobs stay reproducible at any worker
 * count.
 */
std::uint64_t jobSeed(std::string_view key);

/** Index of a job within its graph. */
using JobId = std::size_t;

/** Lifecycle of a job (terminal states: Done, Failed, Skipped). */
enum class JobState
{
    Pending, ///< waiting on dependencies
    Running, ///< body executing
    Done,    ///< body returned
    Failed,  ///< body threw (first failure is rethrown by run())
    Skipped  ///< cancelled before its body ran
};

/** What a job body may learn about itself. */
struct JobContext
{
    JobId id = 0;
    /** jobSeed(key) — feed this to Rng for per-job randomness. */
    std::uint64_t seed = 0;
    /** Executing pool slot (0 = the thread that called run()). */
    unsigned worker = 0;
};

/**
 * A DAG of jobs. Dependencies must refer to already-added jobs, so
 * graphs are acyclic by construction. Build is single-threaded; the
 * executor owns all state transitions during run().
 */
class JobGraph
{
  public:
    /**
     * Append a job.
     *
     * @param key  stable identity (e.g. "compress/sb=4096/mbf=32");
     *             seeds the job's RNG, names it in errors
     * @param fn   the body
     * @param deps jobs that must finish first (ids < this job's)
     */
    JobId add(std::string key,
              std::function<void(const JobContext &)> fn,
              std::vector<JobId> deps = {});

    std::size_t size() const { return jobs_.size(); }
    const std::string &key(JobId id) const;
    JobState state(JobId id) const;

  private:
    friend class Executor;

    struct Job
    {
        std::string key;
        std::function<void(const JobContext &)> fn;
        std::vector<JobId> dependents;
        std::size_t depCount = 0;
        std::size_t pendingDeps = 0;
        JobState state = JobState::Pending;
    };

    std::vector<Job> jobs_;
};

/**
 * Runs JobGraphs on a work-stealing pool of `jobs` slots (the
 * calling thread participates, so `jobs == 1` spawns no threads).
 * One Executor can run many graphs, one after another or nested
 * inside each other's jobs; workers persist across runs.
 */
class Executor
{
  public:
    /** @param jobs worker count; 0 = resolveJobCount(0). */
    explicit Executor(unsigned jobs = 0);

    /** Total workers, including the helping caller. */
    unsigned workers() const { return pool_.slots(); }

    /**
     * Execute every job, honouring dependencies. The first thrown
     * exception cancels all of this graph's jobs that have not
     * started (they end Skipped) and is rethrown here once the graph
     * is quiescent.
     *
     * Re-entrant: a job body may run a graph of its own, on this
     * Executor or another one. The calling worker keeps its slot and
     * executes queued jobs (its own first, then stolen ones) until
     * its graph drains, so a nested run neither idles a worker nor
     * deadlocks. One graph must not be in two run() calls at once.
     */
    void run(JobGraph &graph);

    /**
     * Convenience: run fn(i, ctx) for i in [0, n) as n independent
     * jobs keyed "<keyPrefix>/<i>".
     */
    void forEachIndex(
        std::string_view keyPrefix, std::size_t n,
        const std::function<void(std::size_t, const JobContext &)>
            &fn);

  private:
    /** One run() call's bookkeeping (executor.cc). */
    struct RunState;

    /** @param submitSlot pool slot that enqueued the job (-1 for a
     *  thread not serving this pool) — differing from the executing
     *  slot marks the job as stolen in the trace (obs/trace.hh). */
    void runJob(RunState &run, JobId id, int submitSlot);

    WorkStealingPool pool_;
};

} // namespace drisim

#endif // DRISIM_HARNESS_EXECUTOR_HH
