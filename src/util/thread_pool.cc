/**
 * @file
 * Work-stealing task pool implementation.
 */

#include "util/thread_pool.hh"

namespace drisim
{

namespace
{

/** The pool the current thread serves and its slot there. One pair
 *  per thread, shared by every pool: a slot is only meaningful
 *  together with its pool (callerSlot() checks both). */
thread_local const WorkStealingPool *tl_pool = nullptr;
thread_local int tl_slot = -1;

} // namespace

WorkStealingPool::WorkStealingPool(unsigned background)
    : background_(background), deques_(background + 1)
{
    threads_.reserve(background_);
    for (unsigned slot = 1; slot <= background_; ++slot)
        threads_.emplace_back(
            [this, slot] { workerLoop(slot); });
}

WorkStealingPool::~WorkStealingPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

int
WorkStealingPool::callerSlot() const
{
    return tl_pool == this ? tl_slot : -1;
}

int
WorkStealingPool::currentSlot()
{
    return tl_slot;
}

void
WorkStealingPool::submit(PoolTask task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        const int slot = callerSlot();
        if (slot >= 0) {
            deques_[static_cast<std::size_t>(slot)].push_back(
                std::move(task));
        } else {
            deques_[submitRound_ % deques_.size()].push_back(
                std::move(task));
            ++submitRound_;
        }
    }
    cv_.notify_one();
}

bool
WorkStealingPool::tryPop(unsigned slot, PoolTask &out)
{
    auto &own = deques_[slot];
    if (!own.empty()) {
        out = std::move(own.back());
        own.pop_back();
        return true;
    }
    for (std::size_t i = 1; i < deques_.size(); ++i) {
        auto &victim = deques_[(slot + i) % deques_.size()];
        if (!victim.empty()) {
            out = std::move(victim.front());
            victim.pop_front();
            return true;
        }
    }
    return false;
}

void
WorkStealingPool::serve(unsigned slot,
                        const std::function<bool()> *pending)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        if (pending && !(*pending)())
            break;
        PoolTask task;
        if (tryPop(slot, task)) {
            lock.unlock();
            task();
            task = nullptr; // release captures before relocking
            lock.lock();
            // A completion may unblock helpWhile() predicates or
            // expose newly-submitted dependents to sleeping peers.
            cv_.notify_all();
            continue;
        }
        if (!pending && stop_)
            return;
        cv_.wait(lock);
    }
    // The wakeup that let this helper see its predicate clear may
    // have been a submit's notify_one meant for a queued task; pass
    // it on rather than leave the task to the next completion.
    bool queued = false;
    for (const auto &d : deques_)
        queued = queued || !d.empty();
    lock.unlock();
    if (queued)
        cv_.notify_one();
}

void
WorkStealingPool::workerLoop(unsigned slot)
{
    tl_pool = this;
    tl_slot = static_cast<int>(slot);
    serve(slot, nullptr);
}

void
WorkStealingPool::helpWhile(const std::function<bool()> &pending)
{
    if (tl_pool == this) {
        // Re-entered from a task on this pool: keep the slot.
        serve(static_cast<unsigned>(tl_slot), &pending);
        return;
    }
    // The pool's owner, or a worker of another pool: serve as slot 0
    // for the duration, then return to the outer pool's slot.
    const WorkStealingPool *outerPool = tl_pool;
    const int outerSlot = tl_slot;
    tl_pool = this;
    tl_slot = 0;
    serve(0, &pending);
    tl_pool = outerPool;
    tl_slot = outerSlot;
}

} // namespace drisim
