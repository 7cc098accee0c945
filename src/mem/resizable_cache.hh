/**
 * @file
 * The reusable dynamically-resizable cache layer.
 *
 * A resizable level is a Cache (mem/cache.hh) whose index mask a
 * resize controller narrows and widens (paper Section 2.1, Figure 1):
 * the access path, the MSHR file, the coherence probes and the
 * refetch rule are Cache's. It is the Dri leakage policy
 * (policy/leakage_policy.hh): a LeakagePolicy, so a Cache that hears
 * the core's retire and cycle broadcast, and it reports its resizing
 * as that interface's activity. This class adds what resizing needs,
 * and nothing else: the size mask, the miss-bound/size-bound
 * controller sampled at sense-interval boundaries, the resize steps
 * and the time-integrated active-size bookkeeping. The machinery is
 * level-agnostic, so the L1 i-cache and the DRI-enabled L2 differ
 * only in their access-type restrictions and in one policy bit,
 * `holdsData`: a level that holds data (anything but the read-only
 * i-stream) writes dirty blocks back before their set's supply is
 * gated, and evicts blocks whose set index changes under a wider
 * mask, since stale aliases of them are not harmless.
 *
 * Every boundary takes the controller's one step
 * (ResizeController::step) and appends {misses, sets after} to the
 * cache's boundary history, whatever the flavour. The history is
 * not part of a snapshot; a run that restores one knows only the
 * boundaries after it. The harness replays a finished run's history
 * under a sibling cell's miss-bound and size-bound to serve that
 * cell without simulating it (harness/runner.hh, RunLead).
 *
 * Used directly with ResizePolicy::writeback(), the class is a
 * resizable unified write-back, write-allocate cache: the DRI L2,
 * and the DRI d-cache the paper defers (tests/dri_dcache_test.cc).
 * DriICache derives from it to serve instruction fetches only.
 */

#ifndef DRISIM_MEM_RESIZABLE_CACHE_HH
#define DRISIM_MEM_RESIZABLE_CACHE_HH

#include <cstdint>
#include <string>

#include "core/dri_params.hh"
#include "core/resize_controller.hh"
#include "core/size_mask.hh"
#include "mem/cache.hh"
#include "policy/leakage_policy.hh"
#include "stats/stats.hh"

namespace drisim
{

/** The behavioural knob distinguishing the resizable-cache
 *  flavours. */
struct ResizePolicy
{
    /** Write dirty blocks back before gating or remapping them, and
     *  evict index-changing blocks when the mask widens. */
    bool holdsData = true;

    /** The read-only i-stream tolerates aliases and has no dirt. */
    static constexpr ResizePolicy icache() { return {false}; }
    /** Any level holding modified data needs both protections. */
    static constexpr ResizePolicy writeback() { return {true}; }
};

/** The cache geometry of a DRI parameter set, under stats group
 *  @p name. */
CacheParams cacheParamsFor(const DriParams &params,
                           const std::string &name);

/**
 * A dynamically-resizable cache level (gated-Vdd semantics: sets
 * above the current size keep no state and leak nothing).
 */
class ResizableCache : public LeakagePolicy
{
  public:
    /**
     * @param params    geometry plus all resize knobs
     * @param policy    flavour bits (see ResizePolicy)
     * @param below     next level; may be nullptr (standalone)
     * @param parent    stats parent
     * @param groupName stats group name (e.g. "dri_l2")
     */
    ResizableCache(const DriParams &params, const ResizePolicy &policy,
                   MemoryLevel *below, stats::StatGroup *parent,
                   const std::string &groupName);

    /**
     * Account @p n retired instructions; at sense-interval
     * boundaries takes the controller's step and records it in
     * history(). Returns true if the cache resized.
     */
    bool retireInstructions(InstCount n);

    /** Every boundary this cache object has taken, in order. */
    const ResizeHistory &history() const { return history_; }

    /** RetireSink: retirement broadcast from the core. */
    void onRetire(InstCount n) override { retireInstructions(n); }

    /** RetireSink: cycle-advance broadcast from the core. */
    void onCycles(Cycles delta) override { integrateCycles(delta); }

    /** Set-granularity resizing is the Dri technique. */
    PolicyKind kind() const override { return PolicyKind::Dri; }

    /** The resizing as policy activity: the average powered share,
     *  no drowsy lines (gated sets are state-destroying), so no
     *  wakes. */
    PolicyActivity activity() const override;

    /** Fraction of sets currently powered. */
    double activeFraction() const override;

    /** Current capacity in bytes. */
    std::uint64_t currentSizeBytes() const;

    std::uint64_t currentSets() const { return mask_.numSets(); }

    /** Write back everything dirty (if the policy says so), then
     *  invalidate. */
    void invalidateAll() override;

    const DriParams &params() const { return dri_; }
    const SizeMask &sizeMask() const { return mask_; }
    const ResizeController &controller() const { return controller_; }

    std::uint64_t upsizes() const { return upsizes_.value(); }
    std::uint64_t downsizes() const { return downsizes_.value(); }

    /** Valid blocks destroyed by gating their sets off. */
    std::uint64_t blocksLost() const { return blocksLost_.value(); }

    /** Dirty blocks written back because their set was gated off
     *  or their index was remapped by a resize. */
    std::uint64_t resizeWritebacks() const
    {
        return resizeWritebacks_.value();
    }

    /**
     * Time-integral bookkeeping: the run loop adds the cycles spent
     * since the last call; the integral of the active fraction over
     * cycles gives the average active size (paper's "average cache
     * size ... averaged over the benchmark execution time").
     */
    void integrateCycles(Cycles delta);

    /** Average active fraction over the integrated run. */
    double averageActiveFraction() const;

    /** Number of sets whose supply is currently gated off. */
    std::uint64_t gatedSets() const
    {
        return mask_.maxSets() - mask_.numSets();
    }

    /**
     * Verification hook: true iff no reachable frame holds a block
     * whose current-mask index differs from the set it sits in (the
     * invariant a level that holds data maintains; alias-tolerant
     * caches may legitimately violate it after upsizing).
     */
    bool mappingConsistent() const;

    /** Serialize the set count, controller and integrals, then the
     *  cache (sim/checkpoint.hh). Restore requires identical params
     *  and a set count the mask can take. Covers derived flavours
     *  (their extra stats register in the same group and are walked
     *  with it). */
    void checkpoint(sim::StateIO io) override;

  protected:
    /** Cache hook: the controller counts every miss. */
    void onMiss() override { controller_.recordMiss(); }

    void resizeTo(std::uint64_t newSets);
    /** Move the size mask, and the index mask with it. */
    void setSets(std::uint64_t sets);
    void writebackBlock(const CacheBlk &blk);

    DriParams dri_;
    ResizePolicy policy_;
    SizeMask mask_;
    ResizeController controller_;
    ResizeHistory history_;

    double activeSetCycles_ = 0.0;
    Cycles integratedCycles_ = 0;

    stats::Scalar upsizes_;
    stats::Scalar downsizes_;
    stats::Scalar holds_;
    stats::Scalar blocksLost_;
    stats::Scalar resizeWritebacks_;
    stats::Scalar remapInvalidations_;
};

} // namespace drisim

#endif // DRISIM_MEM_RESIZABLE_CACHE_HH
