/**
 * @file
 * Fast fetch-driven timing estimator used by the parameter search.
 */

#include "cpu/simple_core.hh"

#include <algorithm>
#include <cmath>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace drisim
{

namespace
{

/** Retirements buffered between resize-controller notifications. */
constexpr InstCount kRetireBatch = 64;

} // namespace

SimpleCore::SimpleCore(const SimpleCoreParams &params,
                       MemoryLevel *icache)
    : params_(params), icache_(icache)
{
    drisim_assert(params.baseCpi > 0.0, "base CPI must be positive");
    drisim_assert(isPowerOf2(params.fetchBlockBytes),
                  "fetch block must be a power of two");
    blockShift_ = exactLog2(params.fetchBlockBytes);
}

void
SimpleCore::flushRetireBatch()
{
    if (retireBatch_ > 0)
        broadcastRetire(retireBatch_);
    retireBatch_ = 0;
}

CoreStats
SimpleCore::run(InstrStream &stream, InstCount maxInstrs)
{
    const Cycles hit_latency = 1;
    InstCount remaining = maxInstrs;

    // The unconsumed part of the current span: the next PC, the
    // instructions left and whether the last of them is a taken
    // control instruction. It never outlives the call, since a span
    // holds at most the instructions remaining.
    Addr pc = 0;
    InstCount left = 0;
    bool ends_taken = false;
    while (remaining > 0) {
        if (left == 0) {
            FetchSpan span;
            if (!stream.nextSpan(span, remaining)) {
                streamDone_ = true;
                break;
            }
            pc = span.pc;
            left = span.count;
            ends_taken = span.endsTaken;
        }
        const Addr block = pc >> blockShift_;
        if (block != lastBlock_) {
            // The fast model has no cycle-accurate clock; its
            // deterministic approximation (retired instructions
            // plus accumulated stall) orders fetches well enough
            // for the MSHR/DRAM models and checkpoints cleanly.
            AccessResult r = icache_->accessAt(
                pc, AccessType::InstFetch, instrs_ + missStall_);
            // Anything beyond the single-cycle hit is fetch stall:
            // a fill, or a slow hit (a drowsy line's wake-up).
            if (r.latency > hit_latency)
                missStall_ += r.latency - hit_latency;
            lastBlock_ = block;
        }

        // Retire up to the next event: the end of the fetch block,
        // of the retire batch or of the span.
        InstCount step = std::min(left, kRetireBatch - retireBatch_);
        if (step > 1) {
            const InstCount in_block =
                (((block + 1) << blockShift_) - pc + kInstrBytes - 1) /
                kInstrBytes;
            step = std::min(step, in_block);
        }
        pc += step * kInstrBytes;
        left -= step;
        if (left == 0 && ends_taken)
            lastBlock_ = kInvalidAddr;

        instrs_ += step;
        remaining -= step;
        retireBatch_ += step;
        if (retireBatch_ == kRetireBatch) {
            if (hasResizables()) {
                // Approximate cycle integration at base CPI.
                const Cycles batch_cycles =
                    static_cast<Cycles>(std::llround(
                        params_.baseCpi *
                        static_cast<double>(retireBatch_)));
                broadcastRetire(retireBatch_);
                broadcastCycles(batch_cycles);
            }
            retireBatch_ = 0;
        }
    }
    // Partial batches reach the controllers at quantum boundaries
    // (matching the historical end-of-run flush). Their cycle share
    // is deliberately NOT integrated: the fast model's time is an
    // estimate and the tail is < 64 * baseCpi cycles per run()
    // call, while the retirement count must be exact for the
    // sense-interval arithmetic. The detailed model integrates
    // exactly; golden numbers pin this behaviour.
    flushRetireBatch();
    return stats();
}

CoreStats
SimpleCore::stats() const
{
    CoreStats s;
    s.instructions = instrs_;
    s.cycles = static_cast<Cycles>(std::llround(
        params_.baseCpi * static_cast<double>(instrs_) +
        params_.missOverlap * static_cast<double>(missStall_)));
    return s;
}

} // namespace drisim
