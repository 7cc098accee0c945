/**
 * @file
 * The Table 1 memory system: L1 i-cache (conventional or DRI),
 * L1 d-cache, unified L2 (conventional or DRI), main memory.
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
 * Owns memory + L2 + L1D and (optionally) a conventional L1I.
 * The L1I slot is a MemoryLevel pointer so a DRI i-cache can be
 * substituted by the caller; the L2 slot is built either as a
 * conventional Cache or as a ResizableCache (params.l2Dri).
 */
class Hierarchy
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

    /** The flat memory (fatal if banked DRAM was built — use
     *  memLevel()/dram() or the flavour-agnostic counters). */
    MainMemory &mem();

    /** The terminal level, whatever flavour was built. */
    MemoryLevel *memLevel() { return memLevel_; }

    /** Flat memory if built, else nullptr. */
    MainMemory *flatMem() { return mem_.get(); }

    /** Banked DRAM if built, else nullptr. */
    Dram *dram() { return dram_.get(); }

    /** Memory accesses/reads/writebacks regardless of flavour. */
    std::uint64_t memAccesses() const;
    std::uint64_t memReads() const;
    std::uint64_t memWritebacks() const;

    /** The L2 as a plain MemoryLevel, whatever flavour was built. */
    MemoryLevel *l2Level() { return l2Level_; }

    /** Conventional L2 if one was built, else nullptr. */
    Cache *convL2() { return l2_.get(); }

    /** DRI L2 if one was built, else nullptr. */
    ResizableCache *driL2() { return driL2_.get(); }

    /**
     * The conventional L2 (fatal if the hierarchy was built with a
     * DRI L2 — use convL2()/driL2() in flavour-aware code).
     */
    Cache &l2();

    /** L2 accesses regardless of flavour. */
    std::uint64_t l2Accesses() const;
    /** L2 misses regardless of flavour. */
    std::uint64_t l2Misses() const;
    /** L2 miss rate regardless of flavour. */
    double l2MissRate() const;

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
    std::unique_ptr<MainMemory> mem_;
    std::unique_ptr<Dram> dram_;
    MemoryLevel *memLevel_ = nullptr;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<ResizableCache> driL2_;
    MemoryLevel *l2Level_ = nullptr;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> convL1i_;
    MemoryLevel *l1i_ = nullptr;
};

} // namespace drisim

#endif // DRISIM_MEM_HIERARCHY_HH
