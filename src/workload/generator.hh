/**
 * @file
 * The trace generator: interprets a ProgramImage CFG and produces
 * the executed instruction stream (InstrStream).
 *
 * Deterministic: the stream depends only on the image and its seed,
 * so paired conventional/DRI runs see byte-identical traces. The
 * stream is endless — phases cycle — and the caller bounds the run
 * by instruction count.
 */

#ifndef DRISIM_WORKLOAD_GENERATOR_HH
#define DRISIM_WORKLOAD_GENERATOR_HH

#include <vector>

#include "cpu/isa.hh"
#include "util/random.hh"
#include "workload/cfg.hh"

namespace drisim::sim
{
class StateIO;
} // namespace drisim::sim

namespace drisim
{

/** CFG interpreter producing the dynamic instruction stream. */
class TraceGenerator : public InstrStream
{
  public:
    /** @param image the program to execute (must outlive this). */
    explicit TraceGenerator(const ProgramImage &image);

    bool next(Instr &out) override;

    /** Phase currently executing. */
    size_t currentPhase() const { return phaseIdx_; }

    /** Instructions produced so far. */
    InstCount produced() const { return produced_; }

    /** Rewind to the initial state (same stream again). */
    void reset();

    /**
     * Serialize the interpreter state (sim/checkpoint.hh). The
     * image itself is not serialized: restore into a generator
     * built over the same ProgramImage.
     */
    void checkpoint(sim::StateIO io);

  private:
    /** One call-stack activation. */
    struct Frame
    {
        int func = -1;
        int block = 0;
        unsigned instr = 0;
        /** Remaining trips per latch block; 0 = not active. */
        std::vector<std::uint64_t> latchRemaining;
    };

    void enterPhase(size_t phase);
    void pushFrame(int func);
    const BasicBlock &blockOf(const Frame &f) const;

    /** Fill in a body (non-control) instruction. */
    void makeBodyInstr(Instr &out, Addr pc);

    Addr loadAddress();
    Addr storeAddress();

    const ProgramImage &img_;
    Rng rng_;

    size_t phaseIdx_ = 0;
    InstCount emittedInPhase_ = 0;
    InstCount produced_ = 0;

    std::vector<Frame> stack_;

    /** Register-assignment state. */
    unsigned destCounter_ = 0;
    unsigned fpDestCounter_ = 0;
    std::uint8_t recentDest_[8] = {0};
    unsigned recentIdx_ = 0;

    /** Data-stream state. */
    Addr seqLoadOff_ = 0;
    Addr seqStoreOff_ = 0;
    /** Strided walk over the phase's cross-core shared window. */
    Addr seqSharedOff_ = 0;
};

} // namespace drisim

#endif // DRISIM_WORKLOAD_GENERATOR_HH
