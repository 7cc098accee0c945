/**
 * @file
 * The Dynamically ResIzable instruction cache (paper Section 2).
 *
 * Architecturally a direct-mapped or set-associative i-cache whose
 * set count shrinks/grows by the divisibility factor at sense-
 * interval boundaries, under miss-bound / size-bound control. Sets
 * above the current size are gated off (gated-Vdd): they keep no
 * state and leak (nearly) nothing.
 *
 * All of that machinery lives in the level-agnostic ResizableCache
 * base (mem/resizable_cache.hh), itself a Cache with a size mask, so
 * a fetch takes the one cache access path (mem/cache.hh). That base
 * is also the Dri leakage policy (policy/leakage_policy.hh): run()
 * and CmpSystem build this class through makeLeakagePolicy like any
 * other technique, and its kind, activity and checkpoint are the
 * base's. This class adds only the i-cache specifics: fetches only,
 * and alias-sweeping invalidation. Lookup correctness across sizes
 * comes from maintaining the tag bits required by the *smallest*
 * size at all times (resizing tag bits). Upsizing can leave stale
 * aliases of a block in low-numbered sets; because the i-stream is
 * read-only these are harmless (Section 2.2, ResizePolicy::icache()),
 * but invalidateBlock() must sweep all candidate alias sets (page
 * unmap / self-modifying code paths).
 */

#ifndef DRISIM_CORE_DRI_ICACHE_HH
#define DRISIM_CORE_DRI_ICACHE_HH

#include <cstdint>

#include "mem/resizable_cache.hh"

namespace drisim
{

/** The DRI i-cache. Drop-in replacement for a conventional L1I. */
class DriICache : public ResizableCache
{
  public:
    DriICache(const DriParams &params, MemoryLevel *below,
              stats::StatGroup *parent);

    /** Fetch access (loads/stores are rejected: i-cache only). */
    AccessResult access(Addr addr, AccessType type) override;
    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override;

    /**
     * Invalidate every alias of the block containing @p addr
     * (all active sets congruent to the block's minimum-size index).
     */
    void invalidateBlock(Addr addr);

  private:
    stats::Scalar aliasInvalidations_;
};

} // namespace drisim

#endif // DRISIM_CORE_DRI_ICACHE_HH
