/**
 * @file
 * JobGraph scheduling on the work-stealing pool.
 */

#include "harness/executor.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/str.hh"

namespace drisim
{

unsigned
hardwareJobCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

bool
parseJobsValue(std::string_view text, unsigned &out)
{
    // The shared strict parser (util/parse.hh) is what rejects the
    // "-1" wraparound; this wrapper only adds the worker sanity cap.
    std::uint64_t v = 0;
    if (!parseUnsignedValue(text, v, 4096))
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

unsigned
defaultJobCount()
{
    const char *env = std::getenv("DRISIM_JOBS");
    if (!env || !*env)
        return 1;
    // A typo must not silently run the sweep serially.
    unsigned v = 0;
    if (!parseJobsValue(env, v))
        drisim_fatal("DRISIM_JOBS='%s' is not a worker count (0 = "
                     "all hardware threads, else 1..4096)",
                     env);
    return v == 0 ? hardwareJobCount() : v;
}

unsigned
resolveJobCount(unsigned requested)
{
    return requested > 0 ? requested : defaultJobCount();
}

std::uint64_t
jobSeed(std::string_view key)
{
    // FNV-1a over the key bytes...
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    // ...then a SplitMix64 finalizer so near-identical keys (grid
    // neighbours) land far apart.
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

JobId
JobGraph::add(std::string key,
              std::function<void(const JobContext &)> fn,
              std::vector<JobId> deps)
{
    const JobId id = jobs_.size();
    Job job;
    job.key = std::move(key);
    job.fn = std::move(fn);
    job.depCount = deps.size();
    job.pendingDeps = deps.size();
    jobs_.push_back(std::move(job));
    for (const JobId dep : deps) {
        drisim_assert(dep < id,
                      "job '%s' depends on job %zu, which has not "
                      "been added yet",
                      jobs_[id].key.c_str(), dep);
        jobs_[dep].dependents.push_back(id);
    }
    return id;
}

const std::string &
JobGraph::key(JobId id) const
{
    drisim_assert(id < jobs_.size(), "bad job id %zu", id);
    return jobs_[id].key;
}

JobState
JobGraph::state(JobId id) const
{
    drisim_assert(id < jobs_.size(), "bad job id %zu", id);
    return jobs_[id].state;
}

/**
 * Lives on run()'s stack, so nested and concurrent runs on one
 * Executor never share a counter, a cancel flag or an error.
 */
struct Executor::RunState
{
    explicit RunState(JobGraph &g) : graph(g), remaining(g.size()) {}

    JobGraph &graph;
    /** Guards job states, dependency counts and firstError. */
    std::mutex mu;
    /** Jobs not yet terminal. Read by the pool's pending-predicate
     *  under the pool lock, hence atomic. */
    std::atomic<std::size_t> remaining;
    std::atomic<bool> cancelled{false};
    std::exception_ptr firstError;
};

Executor::Executor(unsigned jobs)
    : pool_(resolveJobCount(jobs) - 1)
{
}

void
Executor::run(JobGraph &graph)
{
    RunState run(graph);

    // Reset before anything is submitted: once the first job is in
    // the pool its completions mutate dependents' state concurrently.
    for (auto &job : graph.jobs_) {
        job.state = JobState::Pending;
        job.pendingDeps = job.depCount;
    }
    const int submitSlot = pool_.callerSlot();
    for (JobId id = 0; id < graph.jobs_.size(); ++id)
        if (graph.jobs_[id].depCount == 0)
            pool_.submit([this, &run, id, submitSlot] {
                runJob(run, id, submitSlot);
            });

    pool_.helpWhile([&run] {
        return run.remaining.load(std::memory_order_acquire) > 0;
    });

    if (run.firstError)
        std::rethrow_exception(run.firstError);
}

void
Executor::runJob(RunState &run, JobId id, int submitSlot)
{
    auto &job = run.graph.jobs_[id];
    const int slot = pool_.callerSlot();

    JobState outcome;
    if (run.cancelled) {
        outcome = JobState::Skipped;
    } else {
        JobContext ctx;
        ctx.id = id;
        ctx.seed = jobSeed(job.key);
        ctx.worker = slot >= 0 ? static_cast<unsigned>(slot) : 0;
        {
            std::lock_guard<std::mutex> lock(run.mu);
            job.state = JobState::Running;
        }
        // One span per job body, on the worker's lane. Worker/steal
        // annotations are scheduling-dependent, so a pinned trace
        // (byte-compared at --jobs 1 vs --jobs 4) omits them.
        obs::TraceWriter *tw = obs::trace();
        obs::ScopedSpan span(tw, "job", job.key);
        if (tw && !tw->pinned()) {
            span.arg("worker", std::to_string(ctx.worker));
            span.arg("stolen", submitSlot >= 0 && submitSlot != slot
                                   ? "true"
                                   : "false");
        }
        try {
            job.fn(ctx);
            outcome = JobState::Done;
        } catch (...) {
            outcome = JobState::Failed;
            std::lock_guard<std::mutex> lock(run.mu);
            run.cancelled = true;
            if (!run.firstError)
                run.firstError = std::current_exception();
        }
    }

    std::vector<JobId> ready;
    {
        std::lock_guard<std::mutex> lock(run.mu);
        job.state = outcome;
        for (const JobId dep : job.dependents) {
            // Dependents are released even when this job failed or
            // was skipped: with the graph cancelled they drain as
            // Skipped, keeping the remaining-jobs count exact.
            if (--run.graph.jobs_[dep].pendingDeps == 0)
                ready.push_back(dep);
        }
    }
    for (const JobId dep : ready)
        pool_.submit([this, &run, dep, slot] {
            runJob(run, dep, slot);
        });
    // Last touch of the run: once the count reaches zero, run() may
    // return and destroy it.
    run.remaining.fetch_sub(1, std::memory_order_acq_rel);
}

void
Executor::forEachIndex(
    std::string_view keyPrefix, std::size_t n,
    const std::function<void(std::size_t, const JobContext &)> &fn)
{
    JobGraph graph;
    for (std::size_t i = 0; i < n; ++i)
        graph.add(strFormat("%.*s/%zu",
                            static_cast<int>(keyPrefix.size()),
                            keyPrefix.data(), i),
                  [&fn, i](const JobContext &ctx) { fn(i, ctx); });
    run(graph);
}

} // namespace drisim
