/**
 * @file
 * Miss-bound / throttle FSM: interval accounting, the
 * upsize/downsize/hold decision and its clamped step, and the replay
 * of a recorded history.
 */

#include "core/resize_controller.hh"

#include "util/logging.hh"

namespace drisim
{

ResizeController::ResizeController(const DriParams &params)
    : params_(params),
      throttleMax_((1u << params.throttleBits) - 1),
      // MSB-set rule: trigger at half scale of the counter.
      throttleTrigger_(1u << (params.throttleBits - 1))
{
    drisim_assert(params.throttleBits >= 1 && params.throttleBits <= 8,
                  "throttle counter width out of range");
    drisim_assert(params.senseInterval > 0,
                  "sense interval must be positive");
}

bool
ResizeController::recordInstructions(InstCount n)
{
    instrsIntoInterval_ += n;
    if (instrsIntoInterval_ < params_.senseInterval)
        return false;
    instrsIntoInterval_ -= params_.senseInterval;
    return true;
}

ResizeDecision
ResizeController::endInterval(bool atMin, bool atMax)
{
    ++intervals_;
    const std::uint64_t misses = missCount_;
    missCount_ = 0;

    if (freezeRemaining_ > 0)
        --freezeRemaining_;

    if (!params_.adaptive)
        return ResizeDecision::Hold;

    // Figure 1: fewer misses than the miss-bound means the working
    // set fits with slack -> downsize to save leakage; more misses
    // means the cache is too small -> upsize to recover performance.
    if (misses < params_.missBound) {
        if (atMin || downsizeFrozen())
            return ResizeDecision::Hold;
        return ResizeDecision::Downsize;
    }
    if (misses > params_.missBound) {
        if (atMax)
            return ResizeDecision::Hold;
        return ResizeDecision::Upsize;
    }
    return ResizeDecision::Hold;
}

void
ResizeController::noteApplied(ResizeDecision applied)
{
    // Oscillation: this resize undoes the previous one (an upsize
    // right after a downsize or vice versa between adjacent sizes).
    const bool reversal =
        (applied == ResizeDecision::Upsize &&
         lastApplied_ == ResizeDecision::Downsize) ||
        (applied == ResizeDecision::Downsize &&
         lastApplied_ == ResizeDecision::Upsize);

    if (applied != ResizeDecision::Hold) {
        if (reversal) {
            if (throttleCounter_ < throttleMax_)
                ++throttleCounter_;
            if (throttleCounter_ >= throttleTrigger_) {
                freezeRemaining_ = params_.throttleHoldIntervals;
                throttleCounter_ = 0;
                ++throttleEvents_;
            }
        } else if (throttleCounter_ > 0) {
            --throttleCounter_;
        }
        lastApplied_ = applied;
    }
}

std::uint64_t
ResizeController::step(const SizeMask &mask)
{
    const ResizeDecision decision =
        endInterval(mask.atMinimum(), mask.atMaximum());
    SizeMask target = mask;
    if (decision == ResizeDecision::Downsize)
        target.shrink(params_.divisibility);
    else if (decision == ResizeDecision::Upsize)
        target.grow(params_.divisibility);
    noteApplied(target.numSets() == mask.numSets() ? ResizeDecision::Hold
                                                   : decision);
    return target.numSets();
}

bool
replayReproduces(const DriParams &params, const ResizeHistory &history)
{
    ResizeController controller(params);
    SizeMask mask = makeSizeMask(params);
    for (const ResizeBoundary &b : history) {
        controller.recordMiss(b.misses);
        const std::uint64_t sets = controller.step(mask);
        if (sets != b.setsAfter)
            return false;
        mask.setNumSets(sets);
    }
    return true;
}

} // namespace drisim
