/**
 * @file
 * Miss Status Holding Registers: the bookkeeping that turns a
 * blocking cache level into a non-blocking one.
 *
 * Each live entry records one block whose fill is still in flight
 * (allocated on a primary miss, retired when the fill-completion
 * time passes). The owning cache consults the file on every access:
 *
 *  - a reference to a block with a live entry is a *secondary* miss
 *    and coalesces onto the outstanding fill (it waits only for the
 *    remaining fill time, not a fresh memory round trip);
 *  - a primary miss with every register busy is a *structural*
 *    stall: the access waits until the earliest outstanding fill
 *    frees a register.
 *
 * A file with zero entries is disabled and the owning cache keeps
 * its historical blocking behaviour bit-for-bit (the default; every
 * pre-existing golden runs this way). Entries are pruned lazily
 * against the requester's clock, so the structure stays valid
 * across the checkpoint seam (fill times are absolute cycles, and
 * the core's clock is serialized alongside).
 */

#ifndef DRISIM_MEM_MSHR_HH
#define DRISIM_MEM_MSHR_HH

#include <cstddef>
#include <vector>

#include "util/types.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** The MSHR file of one cache level. */
class MshrFile
{
  public:
    /** @param entries register count; 0 disables the file. */
    explicit MshrFile(unsigned entries) : entries_(entries) {}

    /** False means the owning cache models a blocking miss path. */
    bool enabled() const { return entries_ > 0; }

    unsigned entries() const { return entries_; }

    /** Live (in-flight) miss count. */
    std::size_t occupancy() const { return live_.size(); }

    /** Every register busy (only meaningful when enabled). */
    bool full() const { return live_.size() >= entries_; }

    /** Retire every entry whose fill completed at or before @p now. */
    void prune(Cycles now);

    /**
     * Look up an in-flight miss on @p blockAddr; fills @p fillAt
     * with its completion time when found. Call prune() first so
     * stale entries cannot match.
     */
    bool find(Addr blockAddr, Cycles &fillAt) const;

    /** Completion time of the earliest outstanding fill (the
     *  register a structural stall waits for). File must be
     *  non-empty. */
    Cycles earliestFillAt() const;

    /** Record a primary miss on @p blockAddr completing at
     *  @p fillAt. File must not be full. */
    void allocate(Addr blockAddr, Cycles fillAt);

    /** Drop every live entry (cache invalidation). */
    void clear() { live_.clear(); }

    /** Serialize live entries (sim/checkpoint.hh). */
    void checkpoint(sim::StateIO io);

  private:
    struct Entry
    {
        Addr blockAddr = 0;
        Cycles fillAt = 0;
    };

    unsigned entries_;
    std::vector<Entry> live_;
};

} // namespace drisim

#endif // DRISIM_MEM_MSHR_HH
