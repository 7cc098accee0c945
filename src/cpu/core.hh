/**
 * @file
 * The Core interface: what the harness and the CMP scheduler need
 * from a CPU model, independent of how it models time.
 *
 * Both CPU models implement it — OooCore (the detailed cycle-stepped
 * pipeline) and SimpleCore (the fast fetch-driven estimator used by
 * the parameter search). A Core:
 *
 *  - consumes an InstrStream through run(), which is *resumable*:
 *    each call continues from the previous machine state and retires
 *    up to maxInstrs further instructions, so a scheduler can
 *    interleave several cores over a shared memory system in
 *    round-robin quanta (system/cmp.hh);
 *  - broadcasts retirement counts and cycle advancement
 *    (broadcastRetire / broadcastCycles) to any attached
 *    RetireSinks: the leakage-managed caches
 *    (policy/leakage_policy.hh), among them the resizable levels,
 *    whose gated-Vdd controllers sample at sense-interval
 *    boundaries and integrate active size over time;
 *  - exposes cumulative stats() so callers can measure per-quantum
 *    progress as deltas.
 */

#ifndef DRISIM_CPU_CORE_HH
#define DRISIM_CPU_CORE_HH

#include <vector>

#include "cpu/isa.hh"
#include "mem/retire_sink.hh"
#include "util/types.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** Results of one simulation run (cumulative across run() calls). */
struct CoreStats
{
    Cycles cycles = 0;
    InstCount instructions = 0;
    double ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }
};

/** Abstract CPU model over an instruction stream. */
class Core
{
  public:
    virtual ~Core() = default;

    /**
     * Attach a retirement/time consumer: a leakage-managed cache
     * (policy/leakage_policy.hh), such as a DRI L1I or a resizable
     * L2, each resizing under its own controller. Broadcast order
     * follows attachment order. No-op on nullptr.
     */
    void addRetireSink(RetireSink *sink)
    {
        if (sink)
            sinks_.push_back(sink);
    }

    /**
     * Run until @p stream ends or @p maxInstrs further instructions
     * retire. Resumable: machine state (pipeline occupancy, local
     * clock, committed count) persists across calls.
     * @return cumulative cycles and instructions
     */
    virtual CoreStats run(InstrStream &stream,
                          InstCount maxInstrs) = 0;

    /** Cumulative cycles/instructions over every run() call. */
    virtual CoreStats stats() const = 0;

    /**
     * True once the stream has ended and no in-flight work remains —
     * further run() calls cannot make progress.
     */
    virtual bool drained() const = 0;

    /**
     * Serialize the full machine state — pipeline, local clock,
     * committed counts, predictor — so a later restore into an
     * identically-configured core continues bit-identically
     * (sim/checkpoint.hh). Attached sinks are serialized separately
     * by the owner.
     */
    virtual void checkpoint(sim::StateIO io) = 0;

    /**
     * Broadcast @p n retired instructions to the attached sinks. The
     * CPU models call it as they commit; the sampler
     * (sim/sampling.hh) forwards externally-simulated progress
     * through it, so resize/policy intervals keep ticking across
     * fast-forwarded regions.
     */
    void broadcastRetire(InstCount n)
    {
        for (RetireSink *sink : sinks_)
            sink->onRetire(n);
    }

    /** Broadcast @p delta elapsed cycles to the attached sinks. */
    void broadcastCycles(Cycles delta)
    {
        for (RetireSink *sink : sinks_)
            sink->onCycles(delta);
    }

  protected:
    bool hasResizables() const { return !sinks_.empty(); }

  private:
    std::vector<RetireSink *> sinks_;
};

} // namespace drisim

#endif // DRISIM_CPU_CORE_HH
