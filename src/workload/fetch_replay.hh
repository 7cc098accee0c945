/**
 * @file
 * Record-once fetch streams for the fast model.
 *
 * A TraceGenerator's output depends only on its program image, so
 * every fast-model run of a benchmark re-derives the same executed
 * path. A FetchRecording stores that path once as straight-line
 * runs (start PC, length, whether the run ends in a taken control
 * instruction) and a FetchReplay walks it at a fraction of the
 * generation cost.
 *
 * The replay is fetch-only: it yields each instruction's PC and
 * marks the last instruction of a taken run as a taken Jump, or
 * hands out the runs themselves as spans (InstrStream::nextSpan).
 * It carries no data addresses, registers or not-taken branches,
 * which is exactly what SimpleCore reads (it derives block-entry
 * fetches for any fetch-block size from the PCs). Only the fast
 * model may consume it; the detailed, sampled and CMP models keep
 * the generator.
 */

#ifndef DRISIM_WORKLOAD_FETCH_REPLAY_HH
#define DRISIM_WORKLOAD_FETCH_REPLAY_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cpu/isa.hh"
#include "workload/cfg.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/**
 * The first N instructions of an image's stream as varint-packed
 * straight-line runs. Immutable once built, so concurrent replays
 * may share one recording.
 */
class FetchRecording
{
  public:
    /** Record the first @p instrs instructions of @p image's stream
     *  (the image must outlive the recording). */
    FetchRecording(const ProgramImage &image, InstCount instrs);

    /** True if replaying this recording reproduces the first
     *  @p instrs instructions of @p image's live stream. */
    bool covers(const ProgramImage &image, InstCount instrs) const
    {
        return &image == image_ && instrs <= instrs_;
    }

    /** Instructions recorded. */
    InstCount instructions() const { return instrs_; }

    /** Straight-line runs recorded. */
    std::size_t runs() const { return runs_; }

    /** Packed size in bytes. */
    std::size_t bytes() const { return packed_.size(); }

  private:
    friend class FetchReplay;

    const ProgramImage *image_;
    InstCount instrs_ = 0;
    std::size_t runs_ = 0;
    /** Per run: zigzag varint of the start PC's byte offset from
     *  the previous run's fall-through address, then a varint of
     *  (length << 1 | ends-in-taken). */
    std::vector<std::uint8_t> packed_;
};

/**
 * Where the fast runs sharing one calibration find their recording.
 * It is made at most once: the first run to find the slot empty
 * records it, and runs arriving meanwhile wait for it rather than
 * record their own. Thread-safe.
 */
class RecordingSlot
{
  public:
    RecordingSlot() = default;
    explicit RecordingSlot(std::shared_ptr<const FetchRecording> rec)
        : rec_(std::move(rec))
    {
    }

    /** The recording, made by @p record() if the slot is empty. */
    template <typename Record>
    std::shared_ptr<const FetchRecording> get(Record &&record)
    {
        // Recording under the lock is the point: a run arriving
        // meanwhile waits instead of recording the stream again.
        const std::lock_guard<std::mutex> hold(lock_);
        if (!rec_)
            rec_ = record();
        return rec_;
    }

    /** The recording, or null while the slot is empty. */
    std::shared_ptr<const FetchRecording> peek() const
    {
        const std::lock_guard<std::mutex> hold(lock_);
        return rec_;
    }

  private:
    mutable std::mutex lock_;
    std::shared_ptr<const FetchRecording> rec_;
};

/** Cursor over a FetchRecording (fetch-only; see file comment). */
class FetchReplay final : public InstrStream
{
  public:
    /** @param rec the recording to walk (must outlive this). */
    explicit FetchReplay(const FetchRecording &rec) : rec_(rec) {}

    /** Sets pc, op and taken; other fields are left untouched. */
    bool next(Instr &out) override
    {
        FetchSpan one;
        if (!nextSpan(one, 1))
            return false;
        out.pc = one.pc;
        out.op = one.endsTaken ? OpClass::Jump : OpClass::IntAlu;
        out.taken = one.endsTaken;
        return true;
    }

    /** The rest of the current recorded run, at most @p max
     *  instructions of it. The span ends taken only where the run
     *  does: a span the budget cuts short resumes the same run on
     *  the next call. */
    bool nextSpan(FetchSpan &out, InstCount max) override
    {
        if (left_ == 0 && !startRun())
            return false;
        const std::uint64_t n = std::min<std::uint64_t>(left_, max);
        left_ -= n;
        out.pc = pc_;
        out.count = n;
        out.endsTaken = left_ == 0 && endsTaken_;
        pc_ += n * kInstrBytes;
        produced_ += n;
        return true;
    }

    /** Instructions produced so far. */
    InstCount produced() const { return produced_; }

    /**
     * Serialize the cursor (sim/checkpoint.hh) as its instruction
     * position; restoring re-walks the recording to it, so any
     * recording of the same stream that covers the position serves.
     */
    void checkpoint(sim::StateIO io);

  private:
    /** Decode the next run; false at the end of the recording. */
    bool startRun();

    /** Move the cursor to instruction @p position from the start;
     *  false (cursor untouched) past the end of the recording. */
    bool seek(InstCount position);

    const FetchRecording &rec_;
    /** Byte offset of the next undecoded run. */
    std::size_t pos_ = 0;
    /** Next PC to yield (the fall-through once a run is spent). */
    Addr pc_ = 0;
    /** Instructions left in the current run. */
    std::uint64_t left_ = 0;
    bool endsTaken_ = false;
    InstCount produced_ = 0;
};

} // namespace drisim

#endif // DRISIM_WORKLOAD_FETCH_REPLAY_HH
