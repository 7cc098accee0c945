/**
 * @file
 * Shared base of the line-granularity policy caches (Decay, Drowsy,
 * StaticWays): a LeakagePolicy (policy/leakage_policy.hh), so a
 * conventional i-cache (mem/cache.hh) that hears the core's
 * broadcast, plus the reporting plumbing — interval counting in
 * retired instructions and the time integrals of the powered/drowsy
 * line populations. The flavours override Cache's per-line hooks
 * directly (hit, fill, probe, victim ways); coherence refetches are
 * Cache's count. The Dri policy does not use this base: it is the
 * set-granularity ResizableCache (mem/resizable_cache.hh), the other
 * branch under LeakagePolicy.
 */

#ifndef DRISIM_POLICY_POLICY_CACHE_HH
#define DRISIM_POLICY_POLICY_CACHE_HH

#include <string>

#include "policy/leakage_policy.hh"

namespace drisim
{

/** Cache + policy bookkeeping shared by the per-line policies. */
class PolicyCacheBase : public LeakagePolicy
{
  public:
    /**
     * @param config    full policy configuration (geometry from
     *                  config.dri)
     * @param below     next level; may be nullptr (standalone)
     * @param parent    stats parent
     * @param groupName stats group name (e.g. "decay_l1i")
     */
    PolicyCacheBase(const PolicyConfig &config, MemoryLevel *below,
                    stats::StatGroup *parent,
                    const std::string &groupName);

    /** I-cache: only instruction fetches are legal. */
    AccessResult access(Addr addr, AccessType type) override;
    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override;

    /** Count retired instructions; crossing an interval boundary
     *  (config-specific length) triggers intervalTick() once per
     *  boundary crossed. */
    void onRetire(InstCount n) override;

    /** Integrate the powered/drowsy populations over time. */
    void onCycles(Cycles delta) override;

    std::uint64_t totalLines() const { return totalLines_; }

    /** Cache contents + stats, the shared policy bookkeeping, then
     *  the flavour hook below. */
    void checkpoint(sim::StateIO io) override;

  protected:
    /** Flavour-specific per-line state (decay counters, drowsy
     *  bits). Empty by default, for stateless flavours. */
    virtual void checkpointExtra(sim::StateIO io);

    /** Length of this policy's interval in instructions (0 = no
     *  periodic behaviour; onRetire then never ticks). */
    virtual InstCount intervalLength() const = 0;

    /** One interval boundary crossed (decay generation / drowsy
     *  episode). */
    virtual void intervalTick() {}

    /** Lines currently at full supply (for the time integral). */
    virtual std::uint64_t poweredLines() const { return totalLines_; }

    /** Lines currently in drowsy standby (for the time integral). */
    virtual std::uint64_t drowsyLines() const { return 0; }

    /** Fill the common fields of an activity report. */
    PolicyActivity baseActivity() const;

    PolicyConfig config_;
    std::uint64_t totalLines_;

    InstCount instrsIntoInterval_ = 0;
    Cycles integratedCycles_ = 0;
    double activeLineCycles_ = 0.0;
    double drowsyLineCycles_ = 0.0;

    std::uint64_t wakeTransitions_ = 0;
    Cycles wakeStallCycles_ = 0;

    /** Wakes forced by coherence probes (flavours bump this from
     *  onLineCoherenceEvent when they wake a line to answer). */
    std::uint64_t coherenceWakes_ = 0;
};

} // namespace drisim

#endif // DRISIM_POLICY_POLICY_CACHE_HH
