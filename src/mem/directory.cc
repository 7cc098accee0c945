/**
 * @file
 * Sparse directory + MSI controller for the coherent CMP.
 */

#include "mem/directory.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"

namespace drisim
{

SparseDirectory::SparseDirectory(std::uint64_t maxEntries)
    : maxEntries_(maxEntries)
{
    drisim_assert(maxEntries > 0 && maxEntries < ~std::uint32_t{0},
                  "directory needs 1 to 2^32 - 2 entries");
    slots_.resize(maxEntries);
    index_.reserve(maxEntries);
    lru_.resize(maxEntries + 1);
    rebuildOrder();
}

void
SparseDirectory::rebuildOrder()
{
    std::vector<std::uint32_t> order(slots_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         const Entry &x = slots_[a];
                         const Entry &y = slots_[b];
                         if (x.valid != y.valid)
                             return y.valid;
                         return x.valid && x.lastTouch < y.lastTouch;
                     });
    const auto sentinel = static_cast<std::uint32_t>(maxEntries_);
    std::uint32_t prev = sentinel;
    for (const std::uint32_t s : order) {
        lru_[prev].next = s;
        lru_[s].prev = prev;
        prev = s;
    }
    lru_[prev].next = sentinel;
    lru_[sentinel].prev = prev;
}

void
SparseDirectory::moveToBack(std::uint32_t s)
{
    const auto sentinel = static_cast<std::uint32_t>(maxEntries_);
    lru_[lru_[s].prev].next = lru_[s].next;
    lru_[lru_[s].next].prev = lru_[s].prev;
    lru_[s].prev = lru_[sentinel].prev;
    lru_[s].next = sentinel;
    lru_[lru_[sentinel].prev].next = s;
    lru_[sentinel].prev = s;
}

void
SparseDirectory::touch(Entry &e)
{
    e.lastTouch = ++tick_;
    moveToBack(static_cast<std::uint32_t>(&e - slots_.data()));
}

SparseDirectory::Entry *
SparseDirectory::find(Addr block)
{
    auto it = index_.find(block);
    return it == index_.end() ? nullptr : &slots_[it->second];
}

SparseDirectory::Entry &
SparseDirectory::allocate(Addr block, Entry *evictedOut)
{
    drisim_assert(index_.find(block) == index_.end(),
                  "allocate of a present directory block");
    evictedOut->valid = false;
    ++allocations_;

    // The lowest free slot; with none left, the least-recently-
    // touched entry, ties broken on the lowest slot index.
    const std::uint32_t slot = lru_[maxEntries_].next;
    Entry &e = slots_[slot];
    if (e.valid) {
        *evictedOut = e;
        index_.erase(e.block);
        ++capacityEvictions_;
    }
    e.block = block;
    e.sharers = 0;
    e.owner = -1;
    e.valid = true;
    touch(e);
    index_.emplace(block, slot);
    return e;
}

CoherenceController::CoherenceController(const CoherenceConfig &cfg,
                                         unsigned cores,
                                         unsigned granuleBytes)
    : cfg_(cfg), granuleBytes_(granuleBytes), clients_(cores),
      stats_(cores), dir_(cfg.directoryEntries)
{
    drisim_assert(cores >= 1 && cores <= 64,
                  "coherence supports 1..64 cores (sharer bitmask)");
    drisim_assert(granuleBytes > 0, "granule must be positive");
}

void
CoherenceController::addClient(unsigned core,
                               CoherenceClient *client)
{
    drisim_assert(core < clients_.size(), "client core out of range");
    clients_[core].push_back(client);
}

const CoherenceController::CoreStats &
CoherenceController::coreStats(unsigned core) const
{
    drisim_assert(core < stats_.size(), "core out of range");
    return stats_[core];
}

std::uint64_t
CoherenceController::invalidationsSent() const
{
    std::uint64_t n = 0;
    for (const CoreStats &s : stats_)
        n += s.invalidationsReceived;
    return n;
}

std::uint64_t
CoherenceController::downgradesSent() const
{
    std::uint64_t n = 0;
    for (const CoreStats &s : stats_)
        n += s.downgradesReceived;
    return n;
}

Cycles
CoherenceController::probeCore(unsigned target, unsigned requester,
                               Addr block, bool invalidate)
{
    const Addr addr = block * granuleBytes_;
    Cycles extra = cfg_.msgLatency;
    stats_[requester].messageCycles += cfg_.msgLatency;
    bool present = false;
    bool dirty = false;
    for (CoherenceClient *c : clients_[target]) {
        const CoherenceProbe p =
            invalidate ? c->coherenceInvalidate(addr, granuleBytes_)
                       : c->coherenceDowngrade(addr, granuleBytes_);
        extra += p.extraCycles;
        present = present || p.wasPresent;
        dirty = dirty || p.wasDirty;
    }
    if (present) {
        if (invalidate) {
            ++stats_[target].invalidationsReceived;
            ++stats_[requester].invalidationsCaused;
        } else {
            ++stats_[target].downgradesReceived;
        }
    }
    if (dirty)
        ++stats_[target].coherenceWritebacks;
    return extra;
}

Cycles
CoherenceController::invalidateHolders(
    const SparseDirectory::Entry &e, unsigned requester,
    bool spareRequester)
{
    Cycles extra = 0;
    for (unsigned c = 0; c < clients_.size(); ++c) {
        const bool holds = ((e.sharers >> c) & 1) != 0 ||
                           e.owner == static_cast<int>(c);
        if (!holds)
            continue;
        if (spareRequester && c == requester)
            continue;
        extra += probeCore(c, requester, e.block, true);
    }
    return extra;
}

Cycles
CoherenceController::fill(unsigned core, Addr addr, bool exclusive)
{
    drisim_assert(core < clients_.size(), "fill core out of range");
    const Addr block = addr / granuleBytes_;
    Cycles extra = 0;

    SparseDirectory::Entry *e = dir_.find(block);
    if (!e) {
        SparseDirectory::Entry victim;
        SparseDirectory::Entry &fresh = dir_.allocate(block, &victim);
        // A sparse directory cannot track an untracked holder: the
        // capacity-evicted entry's holders are force-invalidated
        // (even the requester — its copy is of a different block).
        if (victim.valid)
            extra += invalidateHolders(victim, core,
                                       /*spareRequester=*/false);
        e = &fresh;
    }
    dir_.touch(*e);

    if (exclusive) {
        extra += invalidateHolders(*e, core, /*spareRequester=*/true);
        e->sharers = std::uint64_t{1} << core;
        e->owner = static_cast<int>(core);
    } else {
        if (e->owner >= 0 && e->owner != static_cast<int>(core)) {
            extra += probeCore(static_cast<unsigned>(e->owner), core,
                               block, /*invalidate=*/false);
            e->owner = -1;
        }
        e->sharers |= std::uint64_t{1} << core;
    }
    return extra;
}

Cycles
CoherenceController::upgrade(unsigned core, Addr addr)
{
    drisim_assert(core < clients_.size(),
                  "upgrade core out of range");
    const Addr block = addr / granuleBytes_;
    Cycles extra = 0;

    SparseDirectory::Entry *e = dir_.find(block);
    if (!e) {
        // A holder's entry should exist (eviction would have
        // invalidated the line); be conservative and re-allocate.
        SparseDirectory::Entry victim;
        SparseDirectory::Entry &fresh = dir_.allocate(block, &victim);
        if (victim.valid)
            extra += invalidateHolders(victim, core,
                                       /*spareRequester=*/false);
        e = &fresh;
    }
    dir_.touch(*e);
    extra += invalidateHolders(*e, core, /*spareRequester=*/true);
    e->sharers = std::uint64_t{1} << core;
    e->owner = static_cast<int>(core);
    return extra;
}

} // namespace drisim
