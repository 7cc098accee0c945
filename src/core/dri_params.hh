/**
 * @file
 * Configuration of the Dynamically ResIzable i-cache (Section 2.1).
 */

#ifndef DRISIM_CORE_DRI_PARAMS_HH
#define DRISIM_CORE_DRI_PARAMS_HH

#include <cstdint>

#include "mem/repl_policy.hh"
#include "util/types.hh"

namespace drisim
{

/**
 * All DRI i-cache knobs. The paper's key parameters are missBound
 * and sizeBoundBytes (fine- and coarse-grain miss-rate control);
 * senseInterval and divisibility are secondary (Section 5.6).
 */
struct DriParams
{
    /** Base (maximum) capacity in bytes. */
    std::uint64_t sizeBytes = 64 * 1024;
    /** Set associativity (1 = direct-mapped, as in the base config). */
    unsigned assoc = 1;
    /** Block (line) size in bytes. */
    unsigned blockBytes = 32;
    /** Hit latency in cycles. */
    Cycles hitLatency = 1;
    ReplPolicy repl = ReplPolicy::LRU;

    /**
     * Minimum capacity the cache may downsize to, bytes
     * ("size-bound"). Determines the number of resizing tag bits.
     */
    std::uint64_t sizeBoundBytes = 1024;

    /**
     * Miss-count threshold per sense interval ("miss-bound"):
     * more misses than this -> downsize, fewer -> upsize.
     */
    std::uint64_t missBound = 100;

    /** Sense-interval length in dynamic instructions. */
    InstCount senseInterval = 100 * 1000;

    /** Resizing factor per step (2 = halve/double). */
    unsigned divisibility = 2;

    /** Width of the oscillation-detecting saturating counter. */
    unsigned throttleBits = 3;

    /**
     * Intervals for which downsizing stays disabled once the
     * throttle triggers (paper: ten sense-intervals).
     */
    unsigned throttleHoldIntervals = 10;

    /** Master enable: false freezes the cache at sizeBytes. */
    bool adaptive = true;

    /** MSHR entries; 0 keeps the historical blocking miss path. */
    unsigned mshrs = 0;

    /** Number of resizing tag bits implied by the size-bound. */
    unsigned resizingTagBits() const;

    /** Bytes of one set: the smallest size the cache can take. */
    std::uint64_t setBytes() const;

    /** @p bound is a size-bound this geometry can take: at least
     *  one set, at most the full size. */
    bool sizeBoundFits(std::uint64_t bound) const;

    /** Sanity-check the parameter combination (fatal on bad input). */
    void validate() const;
};

} // namespace drisim

#endif // DRISIM_CORE_DRI_PARAMS_HH
