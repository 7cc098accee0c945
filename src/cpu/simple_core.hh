/**
 * @file
 * Fast fetch-driven timing estimator.
 *
 * The paper's methodology searches the (miss-bound, size-bound)
 * space per benchmark for the best energy-delay (Section 5.3). The
 * full out-of-order model is too slow to sweep; this model runs the
 * same instruction stream through the real i-cache (conventional or
 * DRI, including all resizing behaviour) but estimates time as
 *
 *     cycles = baseCpi * instructions + overlap * missStallCycles
 *
 * where baseCpi is calibrated per benchmark from one detailed
 * conventional run, and overlap accounts for the out-of-order
 * back-end hiding part of the fetch stall. Cache *behaviour* is
 * exact; only time is approximated. Winning configurations are
 * re-run on the detailed model for reporting.
 *
 * It reads only the fetch path, so it consumes the stream in
 * straight-line spans (InstrStream::nextSpan) and steps from event
 * to event rather than instruction by instruction: a fetch-block
 * entry, a retire-batch boundary, the span's end or the budget. A
 * recorded stream (workload/fetch_replay.hh) hands out whole runs;
 * a live generator is a stream of one-instruction spans.
 */

#ifndef DRISIM_CPU_SIMPLE_CORE_HH
#define DRISIM_CPU_SIMPLE_CORE_HH

#include "mem/memory.hh"
#include "cpu/core.hh"
#include "cpu/isa.hh"

namespace drisim
{

/** Fast-model configuration. */
struct SimpleCoreParams
{
    /** Base CPI with no extra i-cache stalls (calibrated). */
    double baseCpi = 0.5;
    /** Fraction of each fetch-miss stall that reaches total time. */
    double missOverlap = 0.85;
    /** Fetch-group block size (i-cache line). */
    unsigned fetchBlockBytes = 32;
};

/** Fetch-only fast model. */
class SimpleCore : public Core
{
  public:
    SimpleCore(const SimpleCoreParams &params, MemoryLevel *icache);

    /**
     * Run the stream for up to @p maxInstrs further instructions.
     * Resumable (Core contract): the fetch-block and retirement
     * bookkeeping persist, so interleaved quanta see the same cache
     * behaviour as one long run. No span outlives the call: a span
     * is asked for at most the instructions remaining, and one the
     * budget cuts short resumes in the stream.
     * @return cumulative estimated cycles and instructions
     */
    CoreStats run(InstrStream &stream, InstCount maxInstrs) override;

    /** Cumulative stats over every run() call (Core contract). */
    CoreStats stats() const override;

    /** Stream exhausted; nothing in flight (Core contract). */
    bool drained() const override { return streamDone_; }

    /** Total fetch-miss stall cycles observed (pre-overlap). */
    Cycles missStallCycles() const { return missStall_; }

    /** Core contract: serialize/restore the estimator state. The
     *  continued run is bit-identical only when the split point is a
     *  multiple of the retire batch (64); see run()'s tail-flush
     *  note. The harness aligns its split accordingly. */
    void checkpoint(sim::StateIO io) override;

  private:
    /** Flush any buffered retirements to the attached levels. */
    void flushRetireBatch();

    SimpleCoreParams params_;
    /** log2 of params_.fetchBlockBytes. */
    unsigned blockShift_ = 0;
    MemoryLevel *icache_;
    Cycles missStall_ = 0;
    InstCount instrs_ = 0;
    Addr lastBlock_ = kInvalidAddr;
    InstCount retireBatch_ = 0;
    bool streamDone_ = false;
};

} // namespace drisim

#endif // DRISIM_CPU_SIMPLE_CORE_HH
