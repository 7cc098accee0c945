/**
 * @file
 * The Table 1 memory system: the shared levels (main memory, flat or
 * banked, and the unified L2, conventional or DRI), the L1 d-cache
 * and the L1 i-cache (conventional or caller-installed).
 */

#ifndef DRISIM_MEM_HIERARCHY_HH
#define DRISIM_MEM_HIERARCHY_HH

#include <memory>

#include "stats/stats.hh"
#include "core/dri_params.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory.hh"
#include "mem/resizable_cache.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** Parameters for the whole memory system (Table 1 defaults). */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 64 * 1024, 1, 32, 1, ReplPolicy::LRU};
    CacheParams l1d{"l1d", 64 * 1024, 2, 32, 1, ReplPolicy::LRU};
    CacheParams l2{"l2", 1024 * 1024, 4, 64, 12, ReplPolicy::LRU};

    /** Build the L2 as a resizable (gated-Vdd) cache. */
    bool l2Dri = false;
    /**
     * Resize knobs for the DRI L2. Geometry fields (size, assoc,
     * block, latency, repl) are synchronized from `l2` at
     * construction, so only the bounds/interval knobs matter here;
     * see driParamsForLevel().
     */
    DriParams l2DriParams = defaultL2DriParams();

    /** Default L2 resize knobs (Table 1 geometry, 64 KB bound). */
    static DriParams defaultL2DriParams();

    /** Memory model selection: flat Table 1 constant unless
     *  dram.banked is set (mem/dram.hh). */
    DramParams dram;
};

/**
 * Resize knobs @p dri with geometry copied from the conventional
 * level description @p level — the single source of truth for
 * per-level geometry, so a DRI level can never disagree with the
 * conventional cache it replaces.
 */
DriParams driParamsForLevel(const CacheParams &level,
                            const DriParams &dri);

/**
 * Main memory (flat, or banked DRAM when params.dram.banked is set)
 * and the unified L2 over it (a ResizableCache when params.l2Dri is
 * set, else a conventional Cache): the levels every L1 shares.
 * Hierarchy and CmpSystem build theirs here.
 */
class SharedLevels
{
  public:
    SharedLevels(const HierarchyParams &params,
                 stats::StatGroup *parent);

    /** The unified L2, whatever flavour was built. */
    Cache &l2() { return *l2_; }

    /** The L2 if it was built resizable (to resize it), else
     *  nullptr. */
    ResizableCache *driL2() { return driL2_; }

    /** The flat memory (fatal if banked DRAM was built — use
     *  dram() or the flavour-agnostic counters). */
    MainMemory &mem();

    /** Banked DRAM if built, else nullptr. */
    Dram *dram() { return dram_.get(); }

    /** Memory accesses/reads/writebacks regardless of flavour. */
    std::uint64_t memAccesses() const;
    std::uint64_t memReads() const;
    std::uint64_t memWritebacks() const;

    /**
     * Fill the fields a run's and a CMP run's output share
     * (RunOutput in harness/runner.hh, CmpRunOutput in
     * system/cmp.hh): memory accesses, the L2's size, a resizable
     * L2's activity and banked DRAM's. Fields of a flavour not built
     * keep their defaults (a fixed, fully-powered L2; flat memory).
     */
    template <typename Out>
    void fillSharedOutputs(Out &out) const
    {
        out.memAccesses = memAccesses();
        out.l2SizeBytes = l2_->params().sizeBytes;
        if (driL2_) {
            const PolicyActivity act = driL2_->activity();
            out.l2AvgActiveFraction = act.avgActiveFraction;
            out.l2ResizingTagBits = act.resizingTagBits;
            out.l2Resizes = act.resizes;
        }
        if (dram_) {
            out.dramRowHits = dram_->rowHits();
            out.dramRowMisses = dram_->rowMisses();
            out.dramQueueFullEvents = dram_->queueFullEvents();
            out.dramBusyCycles = dram_->busyCycles();
        }
    }

    /** Serialize the memory and the L2, each behind its flavour
     *  flag (sim/checkpoint.hh). */
    void checkpoint(sim::StateIO io);

  private:
    std::unique_ptr<MainMemory> mem_;
    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> l2_;
    /** l2_ as its resizable type, when it is one. */
    ResizableCache *driL2_ = nullptr;
};

/**
 * The single-core memory system: the shared levels plus an L1D and
 * (optionally) a conventional L1I. The L1I slot is a MemoryLevel
 * pointer so a DRI or policy i-cache can be substituted by the
 * caller.
 */
class Hierarchy : public SharedLevels
{
  public:
    /**
     * @param params         cache geometries (+ per-level DRI knobs)
     * @param parent         stats parent
     * @param buildConvL1i   when true, construct a conventional L1I;
     *                       when false the caller installs its own
     *                       (e.g. a DriICache) via setL1I()
     */
    Hierarchy(const HierarchyParams &params, stats::StatGroup *parent,
              bool buildConvL1i = true);

    /** Install a caller-owned L1 i-cache (e.g. DRI). */
    void setL1I(MemoryLevel *l1i) { l1i_ = l1i; }

    MemoryLevel *l1i() { return l1i_; }
    Cache &l1d() { return *l1d_; }

    /** Conventional L1I if one was built, else nullptr. */
    Cache *convL1i() { return convL1i_.get(); }

    const HierarchyParams &params() const { return params_; }

    /** Serialize every owned level — memory, L2 (either flavour),
     *  L1D, and the conventional L1I when one was built. A
     *  caller-installed L1I (DRI/policy) is the caller's to
     *  serialize (sim/checkpoint.hh). */
    void checkpoint(sim::StateIO io);

  private:
    HierarchyParams params_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> convL1i_;
    MemoryLevel *l1i_ = nullptr;
};

} // namespace drisim

#endif // DRISIM_MEM_HIERARCHY_HH
