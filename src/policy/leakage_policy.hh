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
 *  - Dri        — the paper's set-granularity resizing, a thin
 *                 adapter over DriICache (behaviour byte-identical
 *                 to the direct path; locked by tests);
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
 * Every policy observes the same two signals the DRI controller
 * already consumes — retired instructions (RetireSink; intervals are
 * counted in dynamic instructions so behaviour is identical on the
 * detailed and fast timing models) and elapsed cycles — and reports
 * the same integrals: time-averaged full-power / drowsy fractions,
 * wake events and wake stalls. energy/ledger.hh turns those into
 * state-preserving vs state-destroying leakage rows.
 */

#ifndef DRISIM_POLICY_LEAKAGE_POLICY_HH
#define DRISIM_POLICY_LEAKAGE_POLICY_HH

#include <memory>
#include <string>

#include "core/dri_params.hh"
#include "mem/memory.hh"
#include "mem/retire_sink.hh"
#include "obs/metrics.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

class Cache; // mem/cache.hh

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

    /** Lines lost to coherence invalidation probes (coherent CMP
     *  runs only; mem/directory.hh). */
    std::uint64_t coherenceInvalidations = 0;

    /** Wakes forced by coherence probes landing on drowsy lines —
     *  the probe cannot be answered until the rail recharges. */
    std::uint64_t coherenceWakes = 0;

    /** Fills re-fetching a block a probe (or decay of a previously
     *  invalidated frame) threw away — directory-visible refetch
     *  traffic. */
    std::uint64_t coherenceRefetches = 0;
};

/**
 * One leakage-managed L1 i-cache: the common handle the runner, the
 * CMP system and the search harness hold, whatever technique is
 * behind it. Every policy's cache is a Cache (level()), so the
 * hierarchy, core and coherence wiring is flavour-blind, and every
 * policy consumes the core's retire/cycle broadcast (RetireSink).
 */
class LeakagePolicy : public RetireSink
{
  public:
    ~LeakagePolicy() override = default;

    virtual PolicyKind kind() const = 0;

    /** The managed i-cache, to wire as the core's L1I. */
    virtual Cache *level() = 0;

    virtual std::uint64_t l1Accesses() const = 0;
    virtual std::uint64_t l1Misses() const = 0;

    /** Time-integrated activity report. */
    virtual PolicyActivity activity() const = 0;

    /**
     * Serialize the managed cache's full state — contents, per-line
     * policy state, interval bookkeeping, time integrals, stats —
     * for checkpoint/restore (sim/checkpoint.hh). Restore requires
     * an identically-configured policy.
     */
    virtual void checkpoint(sim::StateIO io) = 0;

    double l1MissRate() const
    {
        const std::uint64_t a = l1Accesses();
        return a == 0 ? 0.0
                      : static_cast<double>(l1Misses()) /
                            static_cast<double>(a);
    }
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
 * i-cache of @p sizeBytes after @p cycles: the leakage-managed
 * @p policy, or the conventional @p conv when @p policy is null.
 * Every flavour reports its accesses, misses and active-cycle area
 * (a conventional cache is always fully powered). The size comes
 * from the flavour: a conventional cache reports its full size, a
 * Dri policy its instantaneous size, and any other policy its full
 * size for the sampler to scale by the interval's active fraction.
 * Policies add resizes; the others also drowsy area, wakes and wake
 * stalls. With @p coherent, policies add the refetches probes forced
 * and, but for Dri (which keeps no drowsy lines), probe wakes.
 */
obs::Readings l1iReadings(const LeakagePolicy *policy, const Cache *conv,
                          std::uint64_t sizeBytes, Cycles cycles,
                          bool coherent);

} // namespace drisim

#endif // DRISIM_POLICY_LEAKAGE_POLICY_HH
