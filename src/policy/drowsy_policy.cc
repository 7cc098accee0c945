/**
 * @file
 * Drowsy policy: periodic whole-array standby, per-line wakes.
 */

#include "policy/drowsy_policy.hh"

#include "util/logging.hh"

namespace drisim
{

DrowsyCache::DrowsyCache(const PolicyConfig &config,
                         MemoryLevel *below,
                         stats::StatGroup *parent)
    : PolicyCacheBase(config, below, parent, "drowsy_l1i"),
      drowsy_(totalLines_, 0)
{
    drisim_assert(config.drowsy.drowsyInterval > 0,
                  "drowsy interval must be positive");
}

void
DrowsyCache::intervalTick()
{
    // The simple policy: everything goes drowsy, the working set
    // wakes itself back up access by access.
    ++episodes_;
    std::fill(drowsy_.begin(), drowsy_.end(), 1);
    drowsyCount_ = totalLines_;
}

void
DrowsyCache::wakeLine(std::size_t i)
{
    drowsy_[i] = 0;
    --drowsyCount_;
    ++wakeTransitions_;
}

Cycles
DrowsyCache::onLineHit(std::uint64_t set, unsigned way)
{
    const std::size_t i = frameIndex(set, way);
    if (!drowsy_[i])
        return 0;
    // First touch after an episode: recharge the rail. Charged
    // exactly once — the line stays active until the next episode.
    wakeLine(i);
    const Cycles stall = config_.drowsy.wakeLatency;
    wakeStallCycles_ += stall;
    return stall;
}

void
DrowsyCache::onLineFill(std::uint64_t set, unsigned way)
{
    const std::size_t i = frameIndex(set, way);
    // The fill drives the frame at full rail; the wake transition
    // happens but its latency hides under the miss itself.
    if (drowsy_[i])
        wakeLine(i);
}

Cycles
DrowsyCache::onLineCoherenceEvent(std::uint64_t set, unsigned way,
                                  bool invalidate)
{
    (void)invalidate;
    const std::size_t i = frameIndex(set, way);
    if (!drowsy_[i])
        return 0;
    // A drowsy line cannot be snooped at the retention voltage: the
    // probe recharges the rail first (invalidation and downgrade
    // both), and that wake stall rides the requester's probe.
    wakeLine(i);
    ++coherenceWakes_;
    const Cycles stall = config_.drowsy.wakeLatency;
    wakeStallCycles_ += stall;
    return stall;
}

PolicyActivity
DrowsyCache::activity() const
{
    return baseActivity();
}

bool
DrowsyCache::lineDrowsy(std::uint64_t set, unsigned way) const
{
    return drowsy_[frameIndex(set, way)] != 0;
}

} // namespace drisim
