/**
 * @file
 * The retirement/time broadcast interface between CPU models and
 * leakage-managed cache levels.
 *
 * Every leakage-control technique in the simulator is driven by the
 * same two signals the DRI controller already consumes: retired
 * instructions (sense/decay/drowsy intervals are counted in dynamic
 * instructions, so cache behaviour is identical on the detailed and
 * fast timing models) and elapsed cycles (leakage is a time
 * integral). Core keeps one list of RetireSinks and broadcasts both
 * signals to it (broadcastRetire / broadcastCycles). Every
 * leakage-managed cache implements the interface through
 * LeakagePolicy (policy/leakage_policy.hh), a Cache with this
 * interface as its plain second base.
 */

#ifndef DRISIM_MEM_RETIRE_SINK_HH
#define DRISIM_MEM_RETIRE_SINK_HH

#include "util/types.hh"

namespace drisim
{

/** Receives retirement and cycle-advance notifications. */
class RetireSink
{
  public:
    virtual ~RetireSink() = default;

    /** @p n further instructions retired. */
    virtual void onRetire(InstCount n) = 0;

    /** @p delta further cycles elapsed. */
    virtual void onCycles(Cycles delta) = 0;
};

} // namespace drisim

#endif // DRISIM_MEM_RETIRE_SINK_HH
