/**
 * @file
 * The machine, for one core or N: each core has a private L1 i-cache
 * (conventional, or managed by any leakage policy, named by the
 * PolicyConfig a single-core run() takes) and L1 d-cache and its own
 * workload, and they share one unified L2 (conventional or
 * resizable) and main memory. run() (harness/runner.hh) builds a
 * one-core CmpSystem and drives its core itself.
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
 * when consecutive references to a bank come from different cores.
 * One core reaches the L2 the same way: the adder never fires, and
 * the one-core CmpSystem::run() equals run() bit for bit (locked by
 * tests).
 */

#ifndef DRISIM_SYSTEM_CMP_HH
#define DRISIM_SYSTEM_CMP_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/ooo_core.hh"
#include "cpu/simple_core.hh"
#include "energy/ledger.hh"
#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "policy/leakage_policy.hh"
#include "workload/generator.hh"

namespace drisim
{

class FetchReplay; // workload/fetch_replay.hh

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
     * CmpSystem builds it as given. In the CMP study the geometry
     * follows hier.l1i: runCmp() replaces the geometry of l1i->dri
     * with driParamsForLevel()'s.
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

/** What one core, its L1I and its L1D produced: part of a run's
 *  output (RunOutput, harness/runner.hh) and of each CMP core's,
 *  filled by CmpSystem::readCore(). */
struct CoreOutput
{
    RunMeasurement meas;
    double ipc = 0.0;
    double l1dMissRate = 0.0;
    std::uint64_t resizes = 0;
    std::uint64_t throttleEvents = 0;

    /** Leakage-policy activity (defaults describe a fixed,
     *  fully-powered L1I). The gated share is what the ledger charges
     *  at the gated residual: max(0, 1 - active - drowsy), or 0 under
     *  the paper's Section 5.2 rounding (a DriParams run, a CMP core
     *  of kind Dri), which also reports no blocks lost. */
    double l1DrowsyFraction = 0.0;
    double l1GatedFraction = 0.0;
    std::uint64_t wakeTransitions = 0;
    std::uint64_t wakeStallCycles = 0;
    std::uint64_t policyBlocksLost = 0;
};

/** What the shared levels produced, and the MSHR sums over the L2,
 *  every L1D and every conventional L1I: part of a run's output and
 *  of a CMP run's, filled by CmpSystem::readShared(). */
struct SharedOutput
{
    double l2MissRate = 0.0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t memAccesses = 0;
    /** Memory traffic split: demand fills vs background drains. */
    std::uint64_t memReads = 0;
    std::uint64_t memWritebacks = 0;

    /** Non-blocking memory-system activity (all zero under the
     *  default blocking/flat configuration). */
    std::uint64_t mshrCoalesced = 0;
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t mshrFullStallCycles = 0;
    /** Max in-flight misses observed at any one level. */
    std::uint64_t mshrPeakOccupancy = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t dramQueueFullEvents = 0;
    std::uint64_t dramBusyCycles = 0;

    /** L2 activity (defaults describe a fixed, fully-powered L2). */
    std::uint64_t l2SizeBytes = 0;
    double l2AvgActiveFraction = 1.0;
    unsigned l2ResizingTagBits = 0;
    std::uint64_t l2Resizes = 0;
};

/** What one core of a finished CMP run produced. */
struct CmpCoreOutput : CoreOutput
{
    /** Benchmark this core ran (filled by the harness). */
    std::string bench;
    /** This core's share of the shared-L2 traffic. */
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    /** Shared-L2 references that paid the bank-contention adder. */
    std::uint64_t l2ContentionEvents = 0;
    /** Cycles this core's demand L2 misses spent below the bus —
     *  the load-dependent part under banked DRAM. */
    std::uint64_t l2MissLatencyCycles = 0;

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

/** What one CMP run produced: the shared levels' output (whose L2
 *  traffic the cores' attributions partition) and the cores'. */
struct CmpRunOutput : SharedOutput
{
    std::vector<CmpCoreOutput> cores;

    /** System time: the slowest core's local clock. */
    Cycles systemCycles = 0;

    /** Sums of the per-core bus attributions (see CmpCoreOutput). */
    std::uint64_t l2ContentionEvents = 0;
    std::uint64_t l2MissLatencyCycles = 0;

    /** Banked-DRAM row hits per bank (empty in flat mode). */
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

/** The fast model of a one-core CmpSystem: a SimpleCore with these
 *  params (its fetch block is its L1I's) over the caller's @p replay
 *  (which must outlive the system) instead of the image's stream. */
struct FastModel
{
    SimpleCoreParams params;
    FetchReplay *replay = nullptr;
};

/**
 * Owns the whole machine: the shared levels (memory and the L2,
 * conventional or resizable per hier.l2Dri, built by SharedLevels),
 * the bus, and per core a port to it, an L1D, an L1I (conventional or
 * a leakage policy, per CmpCoreConfig) and a core (an OooCore fed by
 * its own trace generator, or the FastModel).
 */
class CmpSystem
{
  public:
    /**
     * @param cmp        CMP shape + per-core L1Is, built as given
     * @param hier       per-core L1 geometry and the shared L2
     *                   (hier.l2Dri selects the resizable flavour)
     * @param coreParams pipeline shape shared by all detailed cores
     * @param images     one program image per core (must outlive
     *                   this object)
     * @param parent     stats parent
     * @param fast       non-null: the one core is this fast model
     */
    CmpSystem(const CmpConfig &cmp, const HierarchyParams &hier,
              const OooParams &coreParams,
              const std::vector<const ProgramImage *> &images,
              stats::StatGroup *parent, const FastModel *fast = nullptr);

    /**
     * Round-robin the cores until each has committed
     * @p maxInstrsPerCore instructions (or drained its stream), and
     * read every counter out. The shared resizable L2 (if any) senses
     * system-wide progress: retirements summed over cores, time as
     * the system clock.
     */
    CmpRunOutput run(InstCount maxInstrsPerCore);

    unsigned cores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** Core @p k, the stream it runs and its private levels, for a
     *  caller that steps a one-core system itself. */
    Core &core(unsigned k) { return *cores_[k]; }
    InstrStream &stream(unsigned k);
    Cache &l1i(unsigned k) { return *l1is_[k]; }
    Cache &l1d(unsigned k) { return *l1ds_[k]; }
    /** Core @p k's L1I as a leakage policy; null for a conventional
     *  cache. */
    const LeakagePolicy *policy(unsigned k) const { return policies_[k]; }

    /**
     * The per-core readout: core @p k's clock from @p cs (as its
     * driver reports it), its L1I as l1iReadings() picks it, its L1D
     * miss rate and its policy's blocks lost. Under @p paperRule (a
     * DriParams run, a CMP core of kind Dri) the gated share and the
     * blocks lost are 0. Returns the L1I's activity.
     */
    PolicyActivity readCore(unsigned k, const CoreStats &cs,
                            bool paperRule, CoreOutput &out) const;

    /** The shared-level readout (SharedOutput); fields of a flavour
     *  not built keep their defaults. */
    void readShared(SharedOutput &out);

    /** Serialize a one-core system (sim/checkpoint.hh): its stream,
     *  core, "hier" section, then a managed L1I. (The bus keeps no
     *  walk, so there are no CMP snapshots.) */
    void checkpoint(sim::StateIO io);

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
    std::vector<std::unique_ptr<Core>> cores_;
    /** Each detailed core's trace generator; the fast model runs
     *  replay_. */
    std::vector<std::unique_ptr<TraceGenerator>> gens_;
    FetchReplay *replay_ = nullptr;

    /** Interval-metrics series prefix; empty = no sampling. */
    std::string obsSeries_;
};

} // namespace drisim

#endif // DRISIM_SYSTEM_CMP_HH
