/**
 * @file
 * The DRI i-cache adaptive controller (Figure 1, Section 2.1).
 *
 * Counts misses within a sense interval; at each interval boundary
 * compares against the miss-bound and decides to upsize, downsize or
 * hold. A saturating counter detects repeated oscillation between
 * two adjacent sizes; on saturation it disables downsizing for a
 * fixed number of intervals ("throttling").
 */

#ifndef DRISIM_CORE_RESIZE_CONTROLLER_HH
#define DRISIM_CORE_RESIZE_CONTROLLER_HH

#include <cstdint>

#include "util/types.hh"
#include "core/dri_params.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** What the controller decided at an interval boundary. */
enum class ResizeDecision { Hold, Upsize, Downsize };

/** Miss-bound / throttle finite-state machine. */
class ResizeController
{
  public:
    explicit ResizeController(const DriParams &params);

    /** Record one (or more) cache misses. */
    void recordMiss(std::uint64_t count = 1) { missCount_ += count; }

    /**
     * Record @p n retired instructions. Returns true each time a
     * sense-interval boundary is crossed (the caller should then
     * call endInterval()).
     */
    bool recordInstructions(InstCount n);

    /**
     * Close the interval: compare the miss counter with the
     * miss-bound and emit a decision. Resets the miss counter.
     *
     * @param atMin whether the cache is already at the size-bound
     * @param atMax whether the cache is at full size
     */
    ResizeDecision endInterval(bool atMin, bool atMax);

    /**
     * Tell the controller what actually happened (a Downsize
     * decision may be vetoed by the size-bound). Drives the
     * oscillation detector.
     */
    void noteApplied(ResizeDecision applied);

    std::uint64_t missCount() const { return missCount_; }
    std::uint64_t intervals() const { return intervals_; }
    unsigned throttleCounter() const { return throttleCounter_; }
    bool downsizeFrozen() const { return freezeRemaining_ > 0; }
    std::uint64_t throttleEvents() const { return throttleEvents_; }

    /** Serialize the FSM state (sim/checkpoint.hh). */
    void checkpoint(sim::StateIO io);

  private:
    DriParams params_;
    std::uint64_t missCount_ = 0;
    InstCount instrsIntoInterval_ = 0;
    std::uint64_t intervals_ = 0;

    /** Saturating oscillation counter and its ceiling/trigger. */
    unsigned throttleCounter_ = 0;
    unsigned throttleMax_;
    unsigned throttleTrigger_;
    unsigned freezeRemaining_ = 0;
    std::uint64_t throttleEvents_ = 0;

    ResizeDecision lastApplied_ = ResizeDecision::Hold;
};

} // namespace drisim

#endif // DRISIM_CORE_RESIZE_CONTROLLER_HH
