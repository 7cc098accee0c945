/**
 * @file
 * Shared plumbing of the line-granularity policy caches: interval
 * counting and powered/drowsy time integrals.
 */

#include "policy/policy_cache.hh"

#include "mem/resizable_cache.hh"
#include "util/logging.hh"

namespace drisim
{

PolicyCacheBase::PolicyCacheBase(const PolicyConfig &config,
                                 MemoryLevel *below,
                                 stats::StatGroup *parent,
                                 const std::string &groupName)
    : LeakagePolicy(cacheParamsFor(config.dri, groupName), below,
                    parent),
      config_(config),
      totalLines_(numSets() * params().assoc)
{
}

AccessResult
PolicyCacheBase::access(Addr addr, AccessType type)
{
    drisim_assert(type == AccessType::InstFetch,
                  "%s is an i-cache: only fetches are legal",
                  params().name.c_str());
    return Cache::access(addr, type);
}

AccessResult
PolicyCacheBase::accessAt(Addr addr, AccessType type, Cycles now)
{
    drisim_assert(type == AccessType::InstFetch,
                  "%s is an i-cache: only fetches are legal",
                  params().name.c_str());
    return Cache::accessAt(addr, type, now);
}

void
PolicyCacheBase::onRetire(InstCount n)
{
    const InstCount interval = intervalLength();
    if (interval == 0)
        return;
    instrsIntoInterval_ += n;
    // A large n can cross several boundaries; honour each (the same
    // contract as the DRI sense interval).
    while (instrsIntoInterval_ >= interval) {
        instrsIntoInterval_ -= interval;
        intervalTick();
    }
}

void
PolicyCacheBase::onCycles(Cycles delta)
{
    activeLineCycles_ += static_cast<double>(poweredLines()) *
                         static_cast<double>(delta);
    drowsyLineCycles_ += static_cast<double>(drowsyLines()) *
                         static_cast<double>(delta);
    integratedCycles_ += delta;
}

PolicyActivity
PolicyCacheBase::baseActivity() const
{
    PolicyActivity a;
    const double denom =
        static_cast<double>(totalLines_) *
        static_cast<double>(integratedCycles_);
    if (integratedCycles_ == 0) {
        // No time integrated yet: report the instantaneous state.
        a.avgActiveFraction =
            static_cast<double>(poweredLines()) /
            static_cast<double>(totalLines_);
        a.avgDrowsyFraction =
            static_cast<double>(drowsyLines()) /
            static_cast<double>(totalLines_);
    } else {
        a.avgActiveFraction = activeLineCycles_ / denom;
        a.avgDrowsyFraction = drowsyLineCycles_ / denom;
    }
    a.wakeTransitions = wakeTransitions_;
    a.wakeStallCycles = wakeStallCycles_;
    a.coherenceWakes = coherenceWakes_;
    a.coherenceRefetches = coherenceRefetches();
    return a;
}

} // namespace drisim
