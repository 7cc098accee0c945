/**
 * @file
 * The Drowsy leakage policy (Flautner, Kim, Martin, Blaauw, Mudge,
 * ISCA 2002): periodic whole-array state-preserving standby.
 *
 * Every drowsyInterval retired instructions the whole array drops
 * its supply rails to the retention voltage (the drowsy paper's
 * "simple policy" — no per-line prediction). Contents survive; a
 * subsequent hit to a drowsy line stalls wakeLatency extra cycles
 * while its rail recharges — charged exactly once per wake, after
 * which the line is active until the next episode (locked by
 * tests). A miss that fills a drowsy frame wakes it under the
 * fill's own latency.
 *
 * Leakage-wise the drowsy fraction is state-preserving: the
 * accounting charges it at the drowsy cell's residual rate
 * (circuit/drowsy_cell.hh) instead of the ~zero gated-Vdd rate —
 * the trade Bai et al. quantify between the two technique families.
 */

#ifndef DRISIM_POLICY_DROWSY_POLICY_HH
#define DRISIM_POLICY_DROWSY_POLICY_HH

#include <vector>

#include "policy/policy_cache.hh"

namespace drisim
{

/** Periodic whole-array drowsy mode over a conventional i-cache. */
class DrowsyCache : public PolicyCacheBase
{
  public:
    DrowsyCache(const PolicyConfig &config, MemoryLevel *below,
                stats::StatGroup *parent);

    PolicyKind kind() const override { return PolicyKind::Drowsy; }
    PolicyActivity activity() const override;

    // Inspection (tests).
    bool lineDrowsy(std::uint64_t set, unsigned way) const;
    std::uint64_t drowsyLineCount() const { return drowsyCount_; }
    std::uint64_t episodes() const { return episodes_; }

  protected:
    InstCount intervalLength() const override
    {
        return config_.drowsy.drowsyInterval;
    }
    void intervalTick() override;
    std::uint64_t poweredLines() const override
    {
        return totalLines_ - drowsyCount_;
    }
    std::uint64_t drowsyLines() const override
    {
        return drowsyCount_;
    }

    Cycles onLineHit(std::uint64_t set, unsigned way) override;
    void onLineFill(std::uint64_t set, unsigned way) override;
    Cycles onLineCoherenceEvent(std::uint64_t set, unsigned way,
                                bool invalidate) override;

    void checkpointExtra(sim::StateIO io) override;

  private:
    void wakeLine(std::size_t i);

    /** Standby state per line frame (true = drowsy rail). */
    std::vector<char> drowsy_;
    std::uint64_t drowsyCount_ = 0;
    std::uint64_t episodes_ = 0;
};

} // namespace drisim

#endif // DRISIM_POLICY_DROWSY_POLICY_HH
