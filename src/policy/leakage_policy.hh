/**
 * @file
 * The pluggable leakage-policy subsystem.
 *
 * The paper's DRI i-cache is one point in the leakage-control design
 * space. Its related work names per-line decay-style gating as the
 * natural alternative, and Bai et al. (PAPERS.md) show that
 * state-preserving (drowsy) and state-destroying (gated-Vdd)
 * techniques win in different regimes. This layer makes the
 * technique a plug-in so the simulator can answer "which leakage
 * technique wins, where?" instead of only "how good is DRI?":
 *
 *  - Dri        — the paper's set-granularity resizing
 *                 (mem/resizable_cache.hh), whose fetch-only flavour
 *                 is the DRI i-cache itself (core/dri_icache.hh), so
 *                 a policy run is the paper's path by construction;
 *  - Decay      — per-line generational counters gate dead lines
 *                 via gated-Vdd (state-destroying; Kaxiras et al.,
 *                 "Cache Decay");
 *  - Drowsy     — the whole array periodically drops into a
 *                 state-preserving low-Vdd mode; touched lines pay
 *                 a wake stall (Flautner et al., "Drowsy Caches");
 *  - StaticWays — a fixed subset of ways is gated off, the simple
 *                 static baseline (after Albonesi's Selective
 *                 Ways). Way 0 is never gated.
 *
 * Every policy is a Cache (LeakagePolicy derives from it), so the
 * hierarchy, core and coherence wiring is flavour-blind. Every policy
 * observes the same two signals the DRI controller already consumes
 * — retired instructions (RetireSink, a plain second base; intervals
 * are counted in dynamic instructions so behaviour is identical on
 * the detailed and fast timing models) and elapsed cycles — and
 * reports the same integrals: time-averaged full-power / drowsy
 * fractions, wake events and wake stalls. energy/ledger.hh turns
 * those into state-preserving vs state-destroying leakage rows.
 */

#ifndef DRISIM_POLICY_LEAKAGE_POLICY_HH
#define DRISIM_POLICY_LEAKAGE_POLICY_HH

#include <algorithm>
#include <memory>
#include <string>

#include "core/dri_params.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "mem/retire_sink.hh"
#include "obs/metrics.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace drisim
{

/** Which leakage-control technique manages the L1 i-cache. */
enum class PolicyKind { Dri, Decay, Drowsy, StaticWays };

/** Canonical lowercase name ("dri", "decay", "drowsy", "ways"). */
const char *policyKindName(PolicyKind kind);

/** Parse a policy name; returns false on anything unrecognized. */
bool parsePolicyKind(const std::string &text, PolicyKind &out);

/** Cache-decay knobs (per-line generational gating). */
struct DecayParams
{
    /**
     * Instructions per decay generation. A line untouched for
     * counterLimit consecutive generations is declared dead and its
     * supply gated (state destroyed; the read-only i-stream needs
     * no writeback).
     */
    InstCount decayInterval = 100 * 1000;

    /**
     * Generations a line survives untouched before gating — the
     * saturation point of the per-line counter (a 2-bit counter in
     * the decay paper's hierarchical scheme).
     */
    unsigned counterLimit = 3;
};

/** Drowsy-cache knobs (periodic state-preserving standby). */
struct DrowsyParams
{
    /**
     * Instructions between whole-array drowsy episodes (the decay
     * paper's "simple policy": every window, put all lines drowsy
     * and let accesses wake what the program still needs).
     */
    InstCount drowsyInterval = 100 * 1000;

    /** Extra cycles the first access to a drowsy line stalls. */
    Cycles wakeLatency = 1;
};

/** Selective-ways knobs (static way gating). */
struct StaticWaysParams
{
    /**
     * Ways left powered (ways [0, activeWays) of every set). Always
     * clamped to [1, assoc]: way 0 is never gated.
     */
    unsigned activeWays = 1;
};

/** Full configuration of one leakage-managed L1 i-cache. */
struct PolicyConfig
{
    PolicyKind kind = PolicyKind::Dri;

    /**
     * Geometry (size/assoc/block/latency) for every policy, plus
     * the resize knobs the Dri policy consumes.
     */
    DriParams dri{};

    DecayParams decay{};
    DrowsyParams drowsy{};
    StaticWaysParams ways{};

    /** Sanity-check the combination (fatal on bad input). */
    void validate() const;

    /** Short human-readable parameter summary for reports, e.g.
     *  "sb=4K/mb=128" or "interval=100000/wake=1". */
    std::string paramSummary() const;
};

/** Time-integrated activity every policy reports. */
struct PolicyActivity
{
    /**
     * Time-averaged fraction of the array at full supply (leaking
     * at the active rate). The remainder splits into the drowsy
     * fraction below and, implicitly, the gated (state-destroying)
     * fraction 1 - active - drowsy.
     */
    double avgActiveFraction = 1.0;

    /** Time-averaged fraction in state-preserving drowsy standby. */
    double avgDrowsyFraction = 0.0;

    /** Drowsy->active (or gated->powered) wake transitions. */
    std::uint64_t wakeTransitions = 0;

    /** Total extra cycles charged waking drowsy lines. */
    Cycles wakeStallCycles = 0;

    /** Valid blocks destroyed by gating (decay / DRI downsizing). */
    std::uint64_t blocksLost = 0;

    /** Resize events (Dri only). */
    std::uint64_t resizes = 0;

    /** Controller throttle events (Dri only). */
    std::uint64_t throttleEvents = 0;

    /** Resizing tag bits in use (Dri only). */
    unsigned resizingTagBits = 0;

    /** Wakes forced by coherence probes landing on drowsy lines —
     *  the probe cannot be answered until the rail recharges. */
    std::uint64_t coherenceWakes = 0;

    /** Fills re-fetching a block a probe (or decay of a previously
     *  invalidated frame) threw away — directory-visible refetch
     *  traffic. */
    std::uint64_t coherenceRefetches = 0;
};

/**
 * One leakage-managed cache: a Cache that hears the core's retire and
 * cycle broadcast (RetireSink) and reports what its technique did as
 * a PolicyActivity. The runner, the CMP system and the search harness
 * hold a managed L1I through this handle whatever technique is
 * behind it. ResizableCache (the DRI i-cache and the DRI L2) and
 * PolicyCacheBase (Decay, Drowsy, StaticWays) derive from it, so
 * every managed cache sits on one single-inheritance chain under
 * Cache, and its checkpoint is Cache's walk as the flavour extends
 * it.
 */
class LeakagePolicy : public Cache, public RetireSink
{
  public:
    using Cache::Cache;

    virtual PolicyKind kind() const = 0;

    /** The managed cache itself, to wire as the core's L1I. */
    Cache *level() { return this; }

    /** Fetches the managed i-cache served. */
    std::uint64_t l1Accesses() const { return accesses(); }

    /** Time-integrated activity report. */
    virtual PolicyActivity activity() const = 0;
};

/**
 * Build the configured policy over @p below (the L2 or whatever the
 * L1I misses to). Geometry comes from config.dri for every kind.
 */
std::unique_ptr<LeakagePolicy>
makeLeakagePolicy(const PolicyConfig &config, MemoryLevel *below,
                  stats::StatGroup *parent);

/**
 * The cumulative interval readings (obs::IntervalSampler) of one L1
 * i-cache @p l1i of @p sizeBytes after @p cycles: the cache of the
 * leakage-managed @p policy, or a conventional cache when @p policy
 * is null. Every flavour reports its accesses, misses and
 * active-cycle area (a conventional cache is always fully powered).
 * The size comes from the flavour: a conventional cache reports its
 * full size, a Dri policy its instantaneous size, and any other
 * policy its full size for the sampler to scale by the interval's
 * active fraction. Policies add resizes; the others also drowsy
 * area, wakes and wake stalls. With @p coherent, policies add the
 * refetches probes forced and, but for Dri (which keeps no drowsy
 * lines), probe wakes.
 */
obs::Readings l1iReadings(const LeakagePolicy *policy, const Cache &l1i,
                          std::uint64_t sizeBytes, Cycles cycles,
                          bool coherent);

/**
 * Fill the L1I fields a run's and a CMP core's output share
 * (RunOutput in harness/runner.hh, CmpCoreOutput in system/cmp.hh)
 * from the L1 i-cache @p l1i of @p sizeBytes, chosen like
 * l1iReadings(): the accesses, misses, active fraction and tag bits
 * of `meas`, resizes, throttles, the drowsy share, wakes and the
 * gated share. A conventional cache (@p policy null) is fully
 * powered. Under @p paperRule (a DriParams run, or a CMP core of
 * kind Dri) the gated share is 0, the paper's rounding; otherwise it
 * is max(0, 1 - active - drowsy), charged at the gated residual.
 * Returns the activity, for the fields only one output carries.
 */
template <typename Out>
PolicyActivity
fillL1iOutputs(Out &out, const LeakagePolicy *policy, const Cache &l1i,
               std::uint64_t sizeBytes, bool paperRule)
{
    const PolicyActivity act =
        policy ? policy->activity() : PolicyActivity{};
    out.meas.l1iBytes = sizeBytes;
    out.meas.l1iAccesses = l1i.accesses();
    out.meas.l1iMisses = l1i.misses();
    out.meas.avgActiveFraction = act.avgActiveFraction;
    out.meas.resizingTagBits = act.resizingTagBits;
    out.resizes = act.resizes;
    out.throttleEvents = act.throttleEvents;
    out.l1DrowsyFraction = act.avgDrowsyFraction;
    out.l1GatedFraction =
        paperRule ? 0.0
                  : std::max(0.0, 1.0 - act.avgActiveFraction -
                                      act.avgDrowsyFraction);
    out.wakeTransitions = act.wakeTransitions;
    out.wakeStallCycles = act.wakeStallCycles;
    return act;
}

} // namespace drisim

#endif // DRISIM_POLICY_LEAKAGE_POLICY_HH
