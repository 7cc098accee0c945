/**
 * @file
 * The cache access path (write-allocate, write-back), the coherence
 * probe pair and the coherence refetch rule.
 */

#include "mem/cache.hh"

#include "util/bitops.hh"
#include "util/logging.hh"

namespace drisim
{

Cache::Cache(const CacheParams &params, MemoryLevel *below,
             stats::StatGroup *parent)
    : params_(params),
      below_(below),
      offsetBits_(exactLog2(params.blockBytes)),
      store_(params.sizeBytes /
                 (static_cast<std::uint64_t>(params.blockBytes) *
                  params.assoc),
             params.assoc, params.repl),
      indexMask_(store_.numSets() - 1),
      mshr_(params.mshrs),
      coherenceLost_(store_.numSets() * params.assoc, 0),
      group_(parent, params.name),
      accesses_(&group_, "accesses", "total accesses"),
      misses_(&group_, "misses", "total misses"),
      fetchAccesses_(&group_, "fetch_accesses", "instruction fetches"),
      loadAccesses_(&group_, "load_accesses", "data loads"),
      storeAccesses_(&group_, "store_accesses", "data stores"),
      writebacks_(&group_, "writebacks", "dirty blocks written back"),
      evictions_(&group_, "evictions", "valid blocks evicted"),
      mshrCoalesced_(&group_, "mshr_coalesced",
                     "secondary misses merged onto in-flight fills"),
      mshrFullStalls_(&group_, "mshr_full_stalls",
                      "primary misses finding every MSHR busy"),
      mshrFullStallCycles_(&group_, "mshr_full_stall_cycles",
                           "cycles stalled waiting for a free MSHR"),
      mshrPeak_(&group_, "mshr_peak", "peak live MSHR entries"),
      coherenceInvalidations_(&group_, "coherence_invalidations",
                              "lines dropped by coherence probes"),
      coherenceDowngrades_(&group_, "coherence_downgrades",
                           "lines demoted Modified -> Shared"),
      coherenceWritebacks_(&group_, "coherence_writebacks",
                           "dirty lines flushed to answer probes"),
      coherenceRefetches_(&group_, "coherence_refetches",
                          "fills replacing probe-invalidated lines")
{
    drisim_assert(isPowerOf2(params.sizeBytes) &&
                  isPowerOf2(params.blockBytes),
                  "%s: size and block size must be powers of two",
                  params.name.c_str());
    drisim_assert(params.sizeBytes >=
                  static_cast<std::uint64_t>(params.blockBytes) *
                  params.assoc,
                  "%s: size too small for one set", params.name.c_str());
}

bool
Cache::contains(Addr addr) const
{
    const Addr ba = blockAddr(addr);
    return store_.findWay(indexOf(ba), ba) != TagStore::kNoWay;
}

AccessResult
Cache::accessTimed(Addr addr, AccessType type, Cycles now)
{
    ++accesses_;
    switch (type) {
      case AccessType::InstFetch: ++fetchAccesses_; break;
      case AccessType::Load:      ++loadAccesses_; break;
      case AccessType::Store:     ++storeAccesses_; break;
    }

    if (mshr_.enabled())
        mshr_.prune(now);

    const Addr ba = blockAddr(addr);
    const std::uint64_t set = indexOf(ba);

    int way = store_.findWay(set, ba);
    if (way != TagStore::kNoWay) {
        const Cycles wake =
            onLineHit(set, static_cast<unsigned>(way));
        store_.touch(set, static_cast<unsigned>(way));
        Cycles latency = params_.hitLatency + wake;
        if (type == AccessType::Store) {
            store_.markDirty(set, static_cast<unsigned>(way));
            // A store to a line held Shared needs exclusive
            // ownership: the directory invalidates other copies
            // before this write may retire (write upgrade).
            if (coherence_ &&
                store_.coherenceState(
                    set, static_cast<unsigned>(way)) !=
                    CoherenceState::Modified) {
                latency += coherence_->coherentUpgrade(
                    coherenceCore_, ba << offsetBits_);
                store_.setCoherenceState(
                    set, static_cast<unsigned>(way),
                    CoherenceState::Modified);
            }
        }
        // The block was inserted at miss time; if its fill is still
        // in flight this is a secondary miss that coalesces onto
        // the outstanding MSHR and waits out the remaining fill.
        Cycles fill_at = 0;
        if (mshr_.enabled() && mshr_.find(ba, fill_at)) {
            ++mshrCoalesced_;
            latency += fill_at - now;
        }
        return {true, latency};
    }

    ++misses_;
    onMiss();
    // A primary miss with every register busy stalls until the
    // earliest outstanding fill frees one (structural hazard).
    Cycles stall = 0;
    if (mshr_.enabled() && mshr_.full()) {
        const Cycles free_at = mshr_.earliestFillAt();
        if (free_at > now)
            stall = free_at - now;
        mshr_.prune(now + stall);
        ++mshrFullStalls_;
        mshrFullStallCycles_ += stall;
    }
    Cycles latency = params_.hitLatency + stall;
    if (below_)
        latency += below_->accessAt(ba << offsetBits_,
                                    type == AccessType::Store
                                        ? AccessType::Load // fill read
                                        : type,
                                    now + stall)
                       .latency;
    if (mshr_.enabled()) {
        mshr_.allocate(ba, now + latency);
        if (mshr_.occupancy() > mshrPeak_.value())
            mshrPeak_.set(mshr_.occupancy());
    }

    unsigned filled = 0;
    const CacheBlk evicted = store_.insert(set, ba, allocWays(),
                                           &filled);
    char &lost = coherenceLost_[frameIndex(set, filled)];
    if (lost) {
        // Refilling a frame a coherence probe emptied: the refetch
        // the directory forced on this core.
        lost = 0;
        ++coherenceRefetches_;
    }
    onLineFill(set, filled);
    if (evicted.valid) {
        ++evictions_;
        if (evicted.dirty) {
            ++writebacks_;
            // Writeback traffic is off the critical path (write
            // buffer); count it at the lower level without latency.
            if (below_)
                below_->access(evicted.blockAddr << offsetBits_,
                               AccessType::Store);
        }
    }
    if (type == AccessType::Store) {
        int w = store_.findWay(set, ba);
        drisim_assert(w != TagStore::kNoWay, "fill lost its block");
        store_.markDirty(set, static_cast<unsigned>(w));
    }
    if (coherence_) {
        // Register the fill with the directory: a store miss takes
        // the granule Modified (remote copies invalidated), a
        // load/fetch fill takes it Shared (a remote Modified owner
        // is downgraded). Probe latency lands on this miss.
        latency += coherence_->coherentFill(
            coherenceCore_, ba << offsetBits_,
            type == AccessType::Store);
        const int w = store_.findWay(set, ba);
        if (w != TagStore::kNoWay)
            store_.setCoherenceState(set, static_cast<unsigned>(w),
                                     type == AccessType::Store
                                         ? CoherenceState::Modified
                                         : CoherenceState::Shared);
    }
    return {false, latency};
}

CoherenceProbe
Cache::coherenceInvalidate(Addr addr, unsigned bytes)
{
    CoherenceProbe res;
    for (Addr a = addr; a < addr + bytes; a += params_.blockBytes) {
        const Addr ba = blockAddr(a);
        const std::uint64_t set = indexOf(ba);
        const int way = store_.findWay(set, ba);
        if (way == TagStore::kNoWay)
            continue;
        res.wasPresent = true;
        res.extraCycles +=
            onLineCoherenceEvent(set, static_cast<unsigned>(way),
                                 /*invalidate=*/true);
        if (store_.set(set)[static_cast<unsigned>(way)].dirty) {
            res.wasDirty = true;
            ++writebacks_;
            ++coherenceWritebacks_;
            // Flushed like a dirty eviction: counted below, off the
            // victim's latency path (write-buffer assumption).
            if (below_)
                below_->access(ba << offsetBits_, AccessType::Store);
        }
        ++coherenceInvalidations_;
        coherenceLost_[frameIndex(set, static_cast<unsigned>(way))] = 1;
        store_.invalidate(set, static_cast<unsigned>(way));
    }
    return res;
}

CoherenceProbe
Cache::coherenceDowngrade(Addr addr, unsigned bytes)
{
    CoherenceProbe res;
    for (Addr a = addr; a < addr + bytes; a += params_.blockBytes) {
        const Addr ba = blockAddr(a);
        const std::uint64_t set = indexOf(ba);
        const int way = store_.findWay(set, ba);
        if (way == TagStore::kNoWay)
            continue;
        res.wasPresent = true;
        res.extraCycles +=
            onLineCoherenceEvent(set, static_cast<unsigned>(way),
                                 /*invalidate=*/false);
        if (store_.set(set)[static_cast<unsigned>(way)].dirty) {
            res.wasDirty = true;
            ++writebacks_;
            ++coherenceWritebacks_;
            if (below_)
                below_->access(ba << offsetBits_, AccessType::Store);
            store_.clearDirty(set, static_cast<unsigned>(way));
        }
        ++coherenceDowngrades_;
        store_.setCoherenceState(set, static_cast<unsigned>(way),
                                 CoherenceState::Shared);
    }
    return res;
}

void
Cache::invalidateAll()
{
    store_.invalidateAll();
    mshr_.clear();
}

double
Cache::missRate() const
{
    return accesses_.value() == 0
               ? 0.0
               : static_cast<double>(misses_.value()) /
                     static_cast<double>(accesses_.value());
}

} // namespace drisim
