/**
 * @file
 * Assembles the Table 1 memory system: main memory (flat or banked)
 * and the unified L2 (conventional or DRI) every L1 shares, then the
 * L1D and the L1I (conventional or caller-installed).
 */

#include "mem/hierarchy.hh"

#include "util/logging.hh"

namespace drisim
{

DriParams
HierarchyParams::defaultL2DriParams()
{
    DriParams p;
    // Geometry comes from the CacheParams at build time; only the
    // resize knobs below are meaningful defaults. The L2 sees far
    // fewer references per instruction than the L1, so its default
    // miss-bound is lower; the size-bound leaves a 16:1 range like
    // the paper's 64K:4K sweet spot.
    p.sizeBoundBytes = 64 * 1024;
    p.missBound = 50;
    p.senseInterval = 100 * 1000;
    return p;
}

DriParams
driParamsForLevel(const CacheParams &level, const DriParams &dri)
{
    DriParams p = dri;
    p.sizeBytes = level.sizeBytes;
    p.assoc = level.assoc;
    p.blockBytes = level.blockBytes;
    p.hitLatency = level.hitLatency;
    p.repl = level.repl;
    p.mshrs = level.mshrs;
    if (p.sizeBoundBytes > p.sizeBytes)
        p.sizeBoundBytes = p.sizeBytes;
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(p.blockBytes) * p.assoc;
    if (p.sizeBoundBytes < set_bytes)
        p.sizeBoundBytes = set_bytes;
    return p;
}

SharedLevels::SharedLevels(const HierarchyParams &params,
                           stats::StatGroup *parent)
{
    MemoryLevel *memory = nullptr;
    if (params.dram.banked) {
        dram_ = std::make_unique<Dram>(params.dram,
                                       params.l2.blockBytes, parent);
        memory = dram_.get();
    } else {
        mem_ = std::make_unique<MainMemory>(params.l2.blockBytes,
                                            parent);
        memory = mem_.get();
    }
    if (params.l2Dri) {
        auto dri = std::make_unique<ResizableCache>(
            driParamsForLevel(params.l2, params.l2DriParams),
            ResizePolicy::writeback(), memory, parent, "dri_l2");
        driL2_ = dri.get();
        l2_ = std::move(dri);
    } else {
        l2_ = std::make_unique<Cache>(params.l2, memory, parent);
    }
}

MainMemory &
SharedLevels::mem()
{
    drisim_assert(mem_ != nullptr,
                  "hierarchy was built with banked DRAM; use dram() "
                  "or memAccesses()");
    return *mem_;
}

std::uint64_t
SharedLevels::memAccesses() const
{
    return mem_ ? mem_->accesses() : dram_->accesses();
}

std::uint64_t
SharedLevels::memReads() const
{
    return mem_ ? mem_->reads() : dram_->reads();
}

std::uint64_t
SharedLevels::memWritebacks() const
{
    return mem_ ? mem_->writebacks() : dram_->writebacks();
}

Hierarchy::Hierarchy(const HierarchyParams &params,
                     stats::StatGroup *parent, bool buildConvL1i)
    : SharedLevels(params, parent), params_(params)
{
    l1d_ = std::make_unique<Cache>(params.l1d, &l2(), parent);
    if (buildConvL1i) {
        convL1i_ = std::make_unique<Cache>(params.l1i, &l2(), parent);
        l1i_ = convL1i_.get();
    }
}

} // namespace drisim
