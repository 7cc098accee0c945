/**
 * @file
 * The Cache Decay leakage policy (Kaxiras, Hu, Martonosi, ISCA
 * 2001): per-line generational counters gate dead lines via
 * gated-Vdd.
 *
 * Every decayInterval retired instructions a generation elapses and
 * each powered line's saturating counter increments; a line whose
 * counter reaches counterLimit is declared dead and its supply is
 * gated — state-destroying, like the paper's set-granularity DRI,
 * but at line granularity and with no global controller. Any touch
 * (hit) resets the line's counter; a miss that fills a gated frame
 * restores its supply (a wake transition whose latency hides under
 * the fill).
 *
 * The read-only i-stream needs no writeback on gating, mirroring
 * ResizePolicy::icache().
 */

#ifndef DRISIM_POLICY_DECAY_POLICY_HH
#define DRISIM_POLICY_DECAY_POLICY_HH

#include <vector>

#include "policy/policy_cache.hh"

namespace drisim
{

/** Per-line generational decay over a conventional i-cache. */
class DecayCache : public PolicyCacheBase
{
  public:
    DecayCache(const PolicyConfig &config, MemoryLevel *below,
               stats::StatGroup *parent);

    PolicyKind kind() const override { return PolicyKind::Decay; }
    PolicyActivity activity() const override;

    // Inspection (tests).
    bool linePowered(std::uint64_t set, unsigned way) const;
    unsigned lineCounter(std::uint64_t set, unsigned way) const;
    std::uint64_t poweredLineCount() const { return powered_; }
    std::uint64_t decayGatedBlocks() const { return blocksLost_; }
    std::uint64_t generations() const { return generations_; }

  protected:
    InstCount intervalLength() const override
    {
        return config_.decay.decayInterval;
    }
    void intervalTick() override;
    std::uint64_t poweredLines() const override { return powered_; }

    Cycles onLineHit(std::uint64_t set, unsigned way) override;
    void onLineFill(std::uint64_t set, unsigned way) override;

    void checkpointExtra(sim::StateIO io) override;

  private:
    /** Saturating generation counter per line frame. */
    std::vector<unsigned> counters_;
    /** Supply state per line frame (true = full Vdd). */
    std::vector<char> lit_;

    std::uint64_t powered_;
    std::uint64_t generations_ = 0;
    std::uint64_t blocksLost_ = 0;
};

} // namespace drisim

#endif // DRISIM_POLICY_DECAY_POLICY_HH
