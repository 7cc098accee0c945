/**
 * @file
 * Cache-decay policy: generational counters, per-line gating.
 */

#include "policy/decay_policy.hh"

#include "util/logging.hh"

namespace drisim
{

DecayCache::DecayCache(const PolicyConfig &config, MemoryLevel *below,
                       stats::StatGroup *parent)
    : PolicyCacheBase(config, below, parent, "decay_l1i"),
      counters_(totalLines_, 0),
      lit_(totalLines_, 1),
      powered_(totalLines_)
{
    drisim_assert(config.decay.decayInterval > 0,
                  "decay interval must be positive");
    drisim_assert(config.decay.counterLimit >= 1,
                  "decay counter limit must be at least 1");
}

void
DecayCache::intervalTick()
{
    ++generations_;
    const unsigned limit = config_.decay.counterLimit;
    for (std::uint64_t s = 0; s < numSets(); ++s) {
        for (unsigned w = 0; w < params().assoc; ++w) {
            const std::size_t i = frameIndex(s, w);
            if (!lit_[i])
                continue;
            // Saturating increment; at the limit the line is dead.
            if (counters_[i] < limit)
                ++counters_[i];
            if (counters_[i] < limit)
                continue;
            lit_[i] = 0;
            --powered_;
            // Gating destroys the state (gated-Vdd); the i-stream
            // is read-only, so no writeback is owed.
            if (store_.set(s)[w].valid) {
                ++blocksLost_;
                store_.invalidate(s, w);
            }
        }
    }
}

Cycles
DecayCache::onLineHit(std::uint64_t set, unsigned way)
{
    // A hit proves the line is live: restart its generation clock.
    counters_[frameIndex(set, way)] = 0;
    return 0;
}

// No onLineCoherenceEvent override: a gated frame is already
// invalid (probes never find it), and a probe on a lit frame costs
// no extra stall here — the frame's supply stays on, so a later
// refill of the invalidated block is Cache's coherence refetch.

void
DecayCache::onLineFill(std::uint64_t set, unsigned way)
{
    const std::size_t i = frameIndex(set, way);
    counters_[i] = 0;
    if (!lit_[i]) {
        // Restoring a gated frame's supply: the wake's latency
        // hides under the fill itself, but the transition is a real
        // energy event the accounting charges.
        lit_[i] = 1;
        ++powered_;
        ++wakeTransitions_;
    }
}

PolicyActivity
DecayCache::activity() const
{
    PolicyActivity a = baseActivity();
    a.blocksLost = blocksLost_;
    return a;
}

bool
DecayCache::linePowered(std::uint64_t set, unsigned way) const
{
    return lit_[frameIndex(set, way)] != 0;
}

unsigned
DecayCache::lineCounter(std::uint64_t set, unsigned way) const
{
    return counters_[frameIndex(set, way)];
}

} // namespace drisim
