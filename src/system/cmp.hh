/**
 * @file
 * The chip-multiprocessor system: N cores, each with a private L1
 * i-cache (conventional, or managed by any leakage policy, named by
 * the PolicyConfig a single-core run() takes) and L1 d-cache and its
 * own workload, sharing one unified L2 (conventional or resizable)
 * and main memory.
 *
 * The paper evaluates gated-Vdd resizing on a single core; leakage
 * pressure is worst where SRAM is largest and shared — the CMP
 * last-level cache (Safayenikoo et al.) and multi-level hierarchies
 * generally (Bai et al.; see docs/REPRODUCTION.md, Multiprogrammed
 * CMP study). CmpSystem opens that scenario family: multiprogrammed
 * mixes whose private DRI L1 i-caches compete for one shared
 * resizable L2.
 *
 * Execution model: trace-driven cores are interleaved round-robin in
 * instruction quanta (each core keeps its own local clock; the
 * system clock is the max). The shared L2 is reached through
 * per-core ports on a bus that attributes hits/misses to the
 * requesting core and charges a simple bank-contention latency adder
 * when consecutive references to a bank come from different cores —
 * with one core the adder never fires and the system degenerates
 * exactly to the single-core wiring (locked by tests).
 */

#ifndef DRISIM_SYSTEM_CMP_HH
#define DRISIM_SYSTEM_CMP_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/ooo_core.hh"
#include "energy/ledger.hh"
#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "policy/leakage_policy.hh"
#include "workload/generator.hh"

namespace drisim
{

/** Sanity cap for `cores=` (queues, not threads — purely a model). */
constexpr unsigned kMaxCmpCores = 64;

/** Per-core workload and L1I flavour. */
struct CmpCoreConfig
{
    /** Benchmark name; empty means "caller's default". */
    std::string bench;
    /**
     * The leakage technique managing this core's L1I and its knobs,
     * as a single-core run() takes them; none = a conventional L1I.
     * Geometry always follows hier.l1i: CmpSystem replaces the
     * geometry of l1i->dri with driParamsForLevel()'s.
     */
    std::optional<PolicyConfig> l1i;
};

/** Shape of the CMP: core count, scheduling, L2 sharing model. */
struct CmpConfig
{
    unsigned cores = 1;
    /**
     * Round-robin turn length in instructions. With one core the
     * scheduler runs the whole budget in a single turn (no sharing
     * to interleave), which keeps cores=1 bit-identical to the
     * single-core runner path.
     */
    InstCount quantum = 20 * 1000;
    /** Shared-L2 bank count for the contention adder. */
    unsigned l2Banks = 8;
    /** Extra latency when a bank's last user was another core. */
    Cycles l2ContentionPenalty = 4;
    /**
     * MSI coherence over the private L1s (mem/directory.hh).
     * Disabled by default: multiprogrammed mixes with private data
     * need no protocol and stay bit-identical to pre-coherence
     * builds (locked by the CMP goldens).
     */
    CoherenceConfig coherence{};
    /** Sparse per-core overrides; missing entries take defaults. */
    std::vector<CmpCoreConfig> coreConfigs;

    /** Core @p k's config, defaulted when not explicitly given. */
    CmpCoreConfig coreConfig(unsigned k) const
    {
        return k < coreConfigs.size() ? coreConfigs[k]
                                      : CmpCoreConfig{};
    }
};

/** What one core of a finished CMP run produced. */
struct CmpCoreOutput
{
    /** Benchmark this core ran (filled by the harness). */
    std::string bench;
    RunMeasurement meas;
    double ipc = 0.0;
    double l1dMissRate = 0.0;
    std::uint64_t resizes = 0;
    std::uint64_t throttleEvents = 0;
    /** This core's share of the shared-L2 traffic. */
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    /** Shared-L2 references that paid the bank-contention adder. */
    std::uint64_t l2ContentionEvents = 0;
    /** Cycles this core's demand L2 misses spent below the bus —
     *  the load-dependent part under banked DRAM. */
    std::uint64_t l2MissLatencyCycles = 0;

    /** Leakage-policy activity (policy-managed cores only). The
     *  gated fraction is the state-destroying remainder that the
     *  CMP accounting charges at the Table 2 residual; classic DRI
     *  cores leave it zero (paper convention). */
    double l1DrowsyFraction = 0.0;
    double l1GatedFraction = 0.0;
    std::uint64_t wakeTransitions = 0;
    std::uint64_t wakeStallCycles = 0;

    /** Coherence attribution (coherent runs only; zero otherwise).
     *  Received = probes landing on this core's L1s; caused =
     *  invalidations this core's writes forced elsewhere. */
    std::uint64_t coherenceInvalidationsReceived = 0;
    std::uint64_t coherenceInvalidationsCaused = 0;
    std::uint64_t coherenceDowngrades = 0;
    std::uint64_t coherenceWritebacks = 0;
    /** Message cycles charged to this core's requests. */
    std::uint64_t coherenceMsgCycles = 0;
    /** Policy-visible coherence effects (policy-managed L1Is). */
    std::uint64_t coherenceWakes = 0;
    std::uint64_t coherenceRefetches = 0;
};

/** What one CMP run produced. */
struct CmpRunOutput
{
    std::vector<CmpCoreOutput> cores;

    /** System time: the slowest core's local clock. */
    Cycles systemCycles = 0;

    /** Shared-L2 view (sums of the per-core attributions). */
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    double l2MissRate = 0.0;
    std::uint64_t l2ContentionEvents = 0;
    std::uint64_t memAccesses = 0;

    /** L2 activity (defaults describe a fixed, fully-powered L2). */
    std::uint64_t l2SizeBytes = 0;
    double l2AvgActiveFraction = 1.0;
    unsigned l2ResizingTagBits = 0;
    std::uint64_t l2Resizes = 0;

    /** Demand-miss latency summed over cores (see CmpCoreOutput). */
    std::uint64_t l2MissLatencyCycles = 0;

    /** MSHR activity summed over every cache level (zero when the
     *  system runs the blocking default). */
    std::uint64_t mshrCoalesced = 0;
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t mshrPeakOccupancy = 0;

    /** Banked-DRAM activity (zero in flat mode). */
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t dramQueueFullEvents = 0;
    std::uint64_t dramBusyCycles = 0;
    std::vector<std::uint64_t> dramBankRowHits;

    /** Coherence totals (sums over cores; zero when disabled). */
    std::uint64_t coherenceInvalidations = 0;
    std::uint64_t coherenceDowngrades = 0;
    std::uint64_t coherenceWritebacks = 0;
    std::uint64_t coherenceMsgCycles = 0;
    /** Directory capacity evictions (each forced invalidations). */
    std::uint64_t directoryEvictions = 0;
};

/**
 * The shared-L2 interconnect: per-core ports funnel into one access
 * path that counts per-core hits/misses and applies the
 * bank-contention latency adder. Banks are block-interleaved.
 */
class SharedL2Bus : public CoherenceAgent
{
  public:
    /**
     * @param l2         the shared level every port forwards to
     * @param blockBytes L2 block size (bank interleaving granule)
     * @param banks      bank count (>= 1)
     * @param penalty    extra cycles when the bank's previous user
     *                   was a different core
     */
    SharedL2Bus(MemoryLevel *l2, unsigned blockBytes, unsigned banks,
                Cycles penalty, unsigned cores);

    AccessResult access(unsigned core, Addr addr, AccessType type,
                        Cycles now = 0);

    std::uint64_t accesses(unsigned core) const
    {
        return stats_[core].accesses;
    }
    std::uint64_t misses(unsigned core) const
    {
        return stats_[core].misses;
    }
    std::uint64_t contentionEvents(unsigned core) const
    {
        return stats_[core].contention;
    }
    /** Cycles @p core's demand misses spent below the bus. */
    std::uint64_t missLatency(unsigned core) const
    {
        return stats_[core].missLatency;
    }

    /**
     * Build the MSI controller + sparse directory this bus routes
     * probes through (coherent CMP runs). The coherence granule is
     * the L2 block size. Must be called before the L1s register as
     * clients; off by default (coherence() then stays null and the
     * agent methods are free no-ops).
     */
    void enableCoherence(const CoherenceConfig &cfg, unsigned cores);

    CoherenceController *coherence() { return coherence_.get(); }
    const CoherenceController *coherence() const
    {
        return coherence_.get();
    }

    // CoherenceAgent: requester-side entry points (L1 fills and
    // write upgrades land here; the controller does the routing).
    Cycles coherentFill(unsigned core, Addr addr,
                        bool exclusive) override
    {
        return coherence_ ? coherence_->fill(core, addr, exclusive)
                          : 0;
    }
    Cycles coherentUpgrade(unsigned core, Addr addr) override
    {
        return coherence_ ? coherence_->upgrade(core, addr) : 0;
    }

  private:
    struct PortStats
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::uint64_t contention = 0;
        std::uint64_t missLatency = 0;
    };

    MemoryLevel *l2_;
    unsigned blockBytes_;
    Cycles penalty_;
    /** Last core to touch each bank (-1 = untouched). */
    std::vector<int> lastOwner_;
    std::vector<PortStats> stats_;
    std::unique_ptr<CoherenceController> coherence_;
};

/** One core's window onto the shared L2 (a MemoryLevel adapter). */
class SharedL2Port : public MemoryLevel
{
  public:
    SharedL2Port(SharedL2Bus *bus, unsigned core)
        : bus_(bus), core_(core)
    {
    }

    AccessResult access(Addr addr, AccessType type) override
    {
        return bus_->access(core_, addr, type);
    }

    AccessResult accessAt(Addr addr, AccessType type,
                          Cycles now) override
    {
        return bus_->access(core_, addr, type, now);
    }

  private:
    SharedL2Bus *bus_;
    unsigned core_;
};

/**
 * Owns the whole CMP: the shared levels (memory and the L2,
 * conventional or resizable per hier.l2Dri, built by the
 * SharedLevels the single-core Hierarchy uses), the bus, and per
 * core a port, an L1D, an L1I (conventional or a leakage policy, per
 * CmpCoreConfig) and an OooCore fed by its own trace generator.
 */
class CmpSystem
{
  public:
    /**
     * @param cmp        CMP shape + per-core flavours
     * @param hier       per-core L1 geometry and the shared L2
     *                   (hier.l2Dri selects the resizable flavour)
     * @param coreParams pipeline shape shared by all cores
     * @param images     one program image per core (must outlive
     *                   this object)
     * @param parent     stats parent
     */
    CmpSystem(const CmpConfig &cmp, const HierarchyParams &hier,
              const OooParams &coreParams,
              const std::vector<const ProgramImage *> &images,
              stats::StatGroup *parent);

    /**
     * Round-robin the cores until each has committed
     * @p maxInstrsPerCore instructions (or drained its stream).
     * The shared resizable L2 (if any) senses system-wide progress:
     * retirements summed over cores, time as the system clock.
     */
    CmpRunOutput run(InstCount maxInstrsPerCore);

    unsigned cores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /**
     * Enable per-core interval metrics: when the global interval
     * recorder (obs/metrics.hh) is live, run() records a sample
     * under "<prefix>/core<k>" every recorder interval of committed
     * instructions per core. Observation only — simulated state and
     * results are untouched.
     */
    void setObsSeries(std::string prefix)
    {
        obsSeries_ = std::move(prefix);
    }

  private:
    CmpConfig cmp_;
    HierarchyParams hier_;

    SharedLevels shared_;
    std::unique_ptr<SharedL2Bus> bus_;

    std::vector<std::unique_ptr<stats::StatGroup>> cpuGroups_;
    std::vector<std::unique_ptr<SharedL2Port>> ports_;
    std::vector<std::unique_ptr<Cache>> l1ds_;
    /** Core k's L1I: a conventional Cache, or a leakage policy (DRI
     *  included), which policies_[k] views as one (null for a
     *  conventional cache). */
    std::vector<std::unique_ptr<Cache>> l1is_;
    std::vector<LeakagePolicy *> policies_;
    std::vector<std::unique_ptr<OooCore>> cores_;
    std::vector<std::unique_ptr<TraceGenerator>> gens_;

    /** Interval-metrics series prefix; empty = no sampling. */
    std::string obsSeries_;
};

} // namespace drisim

#endif // DRISIM_SYSTEM_CMP_HH
