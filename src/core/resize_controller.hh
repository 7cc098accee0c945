/**
 * @file
 * The DRI i-cache adaptive controller (Figure 1, Section 2.1).
 *
 * Counts misses within a sense interval; at each interval boundary
 * compares against the miss-bound and decides to upsize, downsize or
 * hold. A saturating counter detects repeated oscillation between
 * two adjacent sizes; on saturation it disables downsizing for a
 * fixed number of intervals ("throttling").
 *
 * The boundary rule is stated once, in ResizeController::step(): the
 * decision, its step by the divisibility clamped to the size mask's
 * range, and the applied move the throttle hears. A resizable cache
 * takes each step and records {misses, sets after} per boundary (a
 * ResizeHistory); replayReproduces() takes the same steps for
 * another parameter set over that history. Since the miss-bound and
 * the size-bound act only here, a cell whose replay reaches every
 * recorded set count runs exactly as the recorded one did.
 */

#ifndef DRISIM_CORE_RESIZE_CONTROLLER_HH
#define DRISIM_CORE_RESIZE_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"
#include "core/dri_params.hh"
#include "core/size_mask.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** What the controller decided at an interval boundary. */
enum class ResizeDecision { Hold, Upsize, Downsize };

/** One sense-interval boundary of a run: the misses of the interval
 *  it closed and the set count after its decision. */
struct ResizeBoundary
{
    std::uint64_t misses = 0;
    std::uint64_t setsAfter = 0;

    bool operator==(const ResizeBoundary &) const = default;
};

/** A resizable cache's boundaries, in run order. */
using ResizeHistory = std::vector<ResizeBoundary>;

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

    /**
     * One boundary of Figure 1 for a cache at @p mask's size: close
     * the interval, step the set count by the divisibility in the
     * decided direction, clamped to the mask's range, and note the
     * move as applied (a clamped-away step is a Hold). Returns the
     * set count to resize to; @p mask itself is left to the caller.
     */
    std::uint64_t step(const SizeMask &mask);

    std::uint64_t missCount() const { return missCount_; }
    std::uint64_t intervals() const { return intervals_; }
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

/**
 * Whether a cache with @p params, driven over @p history's miss
 * counts, reaches each boundary's recorded set count: a fresh
 * controller and size mask take step() at every entry. When it does,
 * the cache's decisions, throttle and resizes match the recorded
 * run's at every boundary. An empty history is reproduced by any
 * parameter set.
 */
bool replayReproduces(const DriParams &params, const ResizeHistory &history);

} // namespace drisim

#endif // DRISIM_CORE_RESIZE_CONTROLLER_HH
