/**
 * @file
 * MSI coherence over the shared L2: a sparse directory plus the
 * controller that routes invalidation/downgrade probes to the
 * private L1s.
 *
 * The coherence point sits between the private L1I/L1D caches and
 * the shared L2 (system/cmp.hh). The directory is sparse — a bounded
 * table of entries co-located with the L2, not a full backing map —
 * so filling a block whose entry was capacity-evicted forces an
 * eviction-invalidation of every prior holder, exactly the
 * conservative behaviour of real sparse directories. Coherence
 * granularity is the L2 block size; an L1 with smaller blocks
 * invalidates every line it holds inside the granule.
 *
 * Probe latency model: each remote core contacted costs one
 * msgLatency on the requester's critical path (the requester waits
 * for the acks), plus whatever extra cycles the probed cache reports
 * — a drowsy line must be woken before it can answer a probe, and
 * that wake stall is part of the coherence cost the 2001 single-core
 * paper never modelled (docs/DESIGN.md, "Coherence substitutions").
 */

#ifndef DRISIM_MEM_DIRECTORY_HH
#define DRISIM_MEM_DIRECTORY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** Static configuration of the coherence layer (off by default). */
struct CoherenceConfig
{
    bool enabled = false;
    /** Sparse-directory capacity; LRU entry is evicted when full,
     *  invalidating every holder of its block. */
    std::uint64_t directoryEntries = 256;
    /** One-way probe/ack latency per remote core contacted. */
    Cycles msgLatency = 3;
};

/** What a probed cache reports back to the controller. */
struct CoherenceProbe
{
    /** Stall the probe added to the requester's critical path
     *  (e.g. a drowsy line's wake before it could be snooped). */
    Cycles extraCycles = 0;
    /** The probed cache actually held (part of) the granule. */
    bool wasPresent = false;
    /** A dirty copy was flushed to the shared level. */
    bool wasDirty = false;
};

/**
 * A private cache that can receive coherence probes. Probes carry a
 * byte range so a granule larger than the client's block covers
 * every enclosed line.
 */
class CoherenceClient
{
  public:
    virtual ~CoherenceClient() = default;

    /** Drop [addr, addr+bytes): flush dirty data, invalidate. */
    virtual CoherenceProbe coherenceInvalidate(Addr addr,
                                               unsigned bytes) = 0;

    /** Demote [addr, addr+bytes) to Shared: flush dirty data, keep
     *  the line readable. */
    virtual CoherenceProbe coherenceDowngrade(Addr addr,
                                              unsigned bytes) = 0;
};

/**
 * The requester-side interface a coherent cache calls into on fills
 * and write upgrades (implemented by SharedL2Bus, which owns the
 * controller). Returns the extra cycles on the requester's path.
 */
class CoherenceAgent
{
  public:
    virtual ~CoherenceAgent() = default;

    /**
     * Core @p core filled @p addr; @p exclusive for a store miss
     * (needs Modified), otherwise a read fill (Shared).
     */
    virtual Cycles coherentFill(unsigned core, Addr addr,
                                bool exclusive) = 0;

    /** Core @p core stores to a line it holds Shared. */
    virtual Cycles coherentUpgrade(unsigned core, Addr addr) = 0;
};

/**
 * Bounded owner/sharer table. Entries are found by block number
 * (addr / granule); a fill takes the lowest free slot, and when the
 * table is full the least-recently-touched entry is evicted
 * (deterministic: ties break on the lowest slot index). Both are
 * the head of one intrusive list over the slots, so neither scans.
 */
class SparseDirectory
{
  public:
    struct Entry
    {
        Addr block = kInvalidAddr;
        /** Bitmask over cores holding the block. */
        std::uint64_t sharers = 0;
        /** Core holding the block Modified, or -1. */
        int owner = -1;
        std::uint64_t lastTouch = 0;
        bool valid = false;
    };

    explicit SparseDirectory(std::uint64_t maxEntries);

    Entry *find(Addr block);

    /**
     * Allocate an entry for @p block (which must not be present).
     * When the table is full the LRU victim's prior contents are
     * returned through @p evictedOut (valid == true) so the caller
     * can invalidate its holders; otherwise evictedOut->valid is
     * false.
     */
    Entry &allocate(Addr block, Entry *evictedOut);

    /** Mark @p e (an entry of this directory) most-recently used. */
    void touch(Entry &e);

    std::uint64_t maxEntries() const { return maxEntries_; }
    std::uint64_t entriesInUse() const { return index_.size(); }
    std::uint64_t allocations() const { return allocations_; }
    /** Entries evicted for capacity (each forced invalidations). */
    std::uint64_t capacityEvictions() const
    {
        return capacityEvictions_;
    }

    /** Serialize entries + clock (sim/checkpoint.hh). Restore
     *  requires an identical capacity, rejects a block held by two
     *  valid slots or a lastTouch past the clock, and rebuilds the
     *  allocation order. */
    void checkpoint(sim::StateIO io);

  private:
    /** A slot's neighbours in the allocation order. */
    struct Link
    {
        std::uint32_t prev;
        std::uint32_t next;
    };

    /** Relink every slot: the free ones, lowest first, then the
     *  valid ones by (lastTouch, slot). */
    void rebuildOrder();
    /** Move slot @p s to the back of the allocation order. */
    void moveToBack(std::uint32_t s);

    std::uint64_t maxEntries_;
    std::uint64_t tick_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t capacityEvictions_ = 0;
    std::vector<Entry> slots_;
    /** block -> slot, kept in lockstep with slots_. */
    std::unordered_map<Addr, std::size_t> index_;
    /**
     * Allocation order (derived from valid and lastTouch, never
     * serialized): a circular list through every slot and the
     * sentinel node lru_[maxEntries_]. Slots never turn free at run
     * time and every touch is the newest, so moving a touched slot
     * to the back keeps the order, and its head is the slot the
     * next allocate() takes.
     */
    std::vector<Link> lru_;
};

/**
 * The MSI protocol engine: consults the sparse directory, probes the
 * registered per-core clients, and attributes message latency and
 * event counts to cores. All returned cycles land on the requester's
 * critical path.
 */
class CoherenceController
{
  public:
    /** Per-core attribution of coherence activity. */
    struct CoreStats
    {
        /** Probes that invalidated a line this core held. */
        std::uint64_t invalidationsReceived = 0;
        /** Invalidations this core's requests forced elsewhere. */
        std::uint64_t invalidationsCaused = 0;
        /** Probes that demoted this core's Modified line. */
        std::uint64_t downgradesReceived = 0;
        /** Dirty lines this core flushed to answer probes. */
        std::uint64_t coherenceWritebacks = 0;
        /** Message cycles charged to this core's requests. */
        std::uint64_t messageCycles = 0;
    };

    CoherenceController(const CoherenceConfig &cfg, unsigned cores,
                        unsigned granuleBytes);

    /** Register a probe target for @p core (its L1I and L1D). */
    void addClient(unsigned core, CoherenceClient *client);

    /** See CoherenceAgent::coherentFill. */
    Cycles fill(unsigned core, Addr addr, bool exclusive);

    /** See CoherenceAgent::coherentUpgrade. */
    Cycles upgrade(unsigned core, Addr addr);

    unsigned cores() const
    {
        return static_cast<unsigned>(stats_.size());
    }
    unsigned granuleBytes() const { return granuleBytes_; }
    const CoreStats &coreStats(unsigned core) const;
    const SparseDirectory &directory() const { return dir_; }

    /** Invalidation probes sent, over all cores. */
    std::uint64_t invalidationsSent() const;
    /** Downgrade probes sent, over all cores. */
    std::uint64_t downgradesSent() const;

    /** Serialize directory + per-core attribution. */
    void checkpoint(sim::StateIO io);

  private:
    /** Probe every client of @p target; attribute to @p requester. */
    Cycles probeCore(unsigned target, unsigned requester, Addr block,
                     bool invalidate);
    /** Invalidate every holder of @p e (directory eviction or a
     *  write by @p requester); clears sharers/owner. */
    Cycles invalidateHolders(const SparseDirectory::Entry &e,
                             unsigned requester, bool spareRequester);

    CoherenceConfig cfg_;
    unsigned granuleBytes_;
    std::vector<std::vector<CoherenceClient *>> clients_;
    std::vector<CoreStats> stats_;
    SparseDirectory dir_;
};

} // namespace drisim

#endif // DRISIM_MEM_DIRECTORY_HH
