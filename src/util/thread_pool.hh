/**
 * @file
 * Work-stealing task pool underlying the harness executor.
 *
 * Tasks live in per-slot deques: a worker pops its own deque from
 * the back (newest first, so dependent continuations run while their
 * inputs are cache-warm) and steals from another slot's front (oldest
 * first, so stolen work is the least likely to be picked up soon by
 * its owner). Slot 0 belongs to the thread that calls helpWhile() —
 * the pool's owner participates in execution instead of blocking —
 * and slots 1..background belong to OS threads the pool owns.
 *
 * helpWhile() is re-entrant: a task may itself call helpWhile() on
 * the same pool (a job that runs a nested graph). The calling thread
 * keeps its slot and goes on executing queued tasks — its own deque
 * first, then stolen ones — until its own predicate clears, so a
 * waiting worker never idles while there is work. A task may also
 * help a *different* pool; the thread then serves that pool as its
 * slot 0 for the duration and returns to its own slot afterwards.
 *
 * Queue manipulation is guarded by a single pool mutex. Tasks here
 * are whole cache simulations (milliseconds to seconds each), so
 * scheduling cost is noise; the coarse lock keeps the sleep/wake
 * logic evidently correct and ThreadSanitizer-clean rather than
 * micro-optimal.
 */

#ifndef DRISIM_UTIL_THREAD_POOL_HH
#define DRISIM_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace drisim
{

/** A task: any callable; exceptions must be handled by the caller's
 *  wrapper (the pool itself never swallows or rethrows). */
using PoolTask = std::function<void()>;

class WorkStealingPool
{
  public:
    /**
     * @param background number of OS worker threads to spawn; 0 is
     * valid and makes helpWhile() execute everything on the calling
     * thread (the serial reference configuration).
     */
    explicit WorkStealingPool(unsigned background);

    /** Joins all workers. Queues must be drained first (the executor
     *  always runs graphs to completion before destruction). */
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /** Total execution slots: background threads + the helping
     *  caller. */
    unsigned slots() const { return background_ + 1; }

    /**
     * Enqueue a task. When called from one of this pool's slots (a
     * worker thread or a helping caller) the task goes to that slot's
     * own deque; otherwise slots are chosen round-robin.
     */
    void submit(PoolTask task);

    /**
     * Execute tasks on the calling thread until @p pending returns
     * false. A thread already serving this pool keeps its slot; any
     * other thread serves as slot 0 until the call returns. @p
     * pending is evaluated under the pool lock after every task
     * completion, so any state it reads must be updated by the tasks
     * themselves (the executor uses a per-run remaining-jobs
     * counter). Sleeps when no task is runnable.
     */
    void helpWhile(const std::function<bool()> &pending);

    /** Slot the calling thread holds in this pool; -1 when it is not
     *  serving this pool. */
    int callerSlot() const;

    /**
     * Slot of the calling thread in whichever pool it is serving: 0
     * for a helping caller, 1..background for pool threads, -1 for
     * threads serving no pool. A per-thread lane, e.g. for traces.
     */
    static int currentSlot();

  private:
    void workerLoop(unsigned slot);

    /** Run tasks as @p slot until @p pending clears (or, with a null
     *  @p pending, until the pool stops). */
    void serve(unsigned slot, const std::function<bool()> *pending);

    /** Pop a task for @p slot: own deque back, then steal another
     *  deque's front. Requires the lock. */
    bool tryPop(unsigned slot, PoolTask &out);

    const unsigned background_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::deque<PoolTask>> deques_;
    std::vector<std::thread> threads_;
    unsigned submitRound_ = 0;
    bool stop_ = false;
};

} // namespace drisim

#endif // DRISIM_UTIL_THREAD_POOL_HH
