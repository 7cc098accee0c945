/**
 * @file
 * The MemoryLevel access interface and the main-memory latency
 * model.
 *
 * Table 1: memory access latency is 80 cycles plus 4 cycles per
 * 8 bytes transferred.
 */

#ifndef DRISIM_MEM_MEMORY_HH
#define DRISIM_MEM_MEMORY_HH

#include <cstdint>

#include "stats/stats.hh"
#include "util/types.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** What kind of reference is being made. */
enum class AccessType { InstFetch, Load, Store };

/** Outcome of a memory-level access. */
struct AccessResult
{
    /** Did the access hit at this level? */
    bool hit = true;
    /** Total latency including any lower-level fills, cycles. */
    Cycles latency = 0;
};

/**
 * Anything addressable by an upper level: caches, main memory and
 * the CMP's shared-L2 ports. It carries only the access path; what
 * only a cache has (invalidation, the powered fraction) is Cache's
 * (mem/cache.hh).
 */
class MemoryLevel
{
  public:
    virtual ~MemoryLevel() = default;

    /** Perform an access; returns hit/latency at this level. */
    virtual AccessResult access(Addr addr, AccessType type) = 0;

    /**
     * Timed access: like access(), but carries the requester's
     * clock so contention-aware levels (MSHR files, banked DRAM)
     * can order this reference against in-flight work. The default
     * forwards to the untimed path — levels whose latency is
     * load-independent need not override.
     */
    virtual AccessResult accessAt(Addr addr, AccessType type,
                                  Cycles now)
    {
        (void)now;
        return access(addr, type);
    }
};

/** DRAM with the Table 1 latency model. Always hits. */
class MainMemory : public MemoryLevel
{
  public:
    /**
     * @param transferBytes bytes moved per fill (the requester's
     *                      block size)
     * @param parent        stats parent
     */
    MainMemory(unsigned transferBytes, stats::StatGroup *parent);

    AccessResult access(Addr addr, AccessType type) override;

    /** Latency for one transfer of the configured size. */
    Cycles transferLatency() const;

    /** All accesses, demand fills and writeback probes alike. */
    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    /** Serialize the access counter (sim/checkpoint.hh). */
    void checkpoint(sim::StateIO io);

    /** Table 1 constants. */
    static constexpr Cycles kBaseLatency = 80;
    static constexpr Cycles kPerChunk = 4;
    static constexpr unsigned kChunkBytes = 8;

  private:
    unsigned transferBytes_;
    stats::StatGroup group_;
    stats::Scalar accesses_;
    stats::Scalar reads_;
    stats::Scalar writebacks_;
};

} // namespace drisim

#endif // DRISIM_MEM_MEMORY_HH
