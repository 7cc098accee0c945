/**
 * @file
 * Static control-flow-graph structures for synthetic programs.
 *
 * A program image is a set of functions, each a vector of basic
 * blocks laid out at concrete addresses. The trace generator
 * interprets this CFG, so instruction-cache locality (loops,
 * footprints, conflicts, phases) emerges from real structure rather
 * than from a statistical address model.
 */

#ifndef DRISIM_WORKLOAD_CFG_HH
#define DRISIM_WORKLOAD_CFG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/isa.hh"
#include "util/types.hh"

namespace drisim
{

/** How a basic block ends. */
enum class BlockTerm : std::uint8_t
{
    FallThrough, ///< no control instruction; next block is sequential
    CondBranch,  ///< conditional branch, probabilistic direction
    LoopLatch,   ///< conditional branch with counted trips (back edge)
    Jump,        ///< unconditional jump
    Call,        ///< call another function
    Return,      ///< return to the caller
};

/** One basic block. */
struct BasicBlock
{
    /** Assigned at layout time. */
    Addr startPc = 0;
    /** Total instructions including the terminator (>= 1). */
    unsigned numInstrs = 4;
    BlockTerm term = BlockTerm::FallThrough;
    /** Block id of the branch/jump target (within the function). */
    int target = -1;
    /** Block id of the fall-through successor (-1 = none). */
    int fallthrough = -1;
    /** Callee function id for Call terminators. */
    int callee = -1;
    /** Taken probability for CondBranch. */
    double takenProb = 0.5;
    /** Mean trip count for LoopLatch back edges. */
    std::uint64_t meanTrips = 8;

    /** Address of the instruction at index @p i. */
    Addr pcOf(unsigned i) const { return startPc + i * kInstrBytes; }

    /** Address just past the block. */
    Addr endPc() const { return startPc + numInstrs * kInstrBytes; }
};

/** A function: blocks in layout order; entry is block 0. */
struct Function
{
    std::string name;
    std::vector<BasicBlock> blocks;
    /** Static size in bytes (set at layout). */
    std::uint64_t sizeBytes() const;
};

/** Instruction mix of a phase (fractions of body instructions). */
struct OpMix
{
    double loadFrac = 0.22;
    double storeFrac = 0.10;
    double fpFrac = 0.0;
    double mulFrac = 0.02;
};

/** A phase: its code region (function ids), duration, behaviour. */
struct Phase
{
    std::string name;
    /** Function ids belonging to this phase (driver is first). */
    std::vector<int> functions;
    /** Driver function id (the phase's top-level loop). */
    int driver = -1;
    /** Dynamic instructions before moving to the next phase. */
    InstCount duration = 1000 * 1000;
    OpMix mix;
    /** Data region for loads/stores. */
    Addr dataBase = 0;
    std::uint64_t dataBytes = 32 * 1024;
    /**
     * Cross-core shared window: when sharedBytes != 0, a
     * sharedFraction of loads/stores is routed into
     * [sharedBase, sharedBase + sharedBytes) instead of the private
     * data region. Every core runs the same image, so the window is
     * genuinely shared and drives the coherence protocol.
     */
    Addr sharedBase = 0;
    std::uint64_t sharedBytes = 0;
    double sharedFraction = 0.0;
};

/** A fully-built program. */
struct ProgramImage
{
    std::string name;
    std::uint64_t seed = 1;
    std::vector<Function> functions;
    std::vector<Phase> phases;

    /** Static code bytes reachable in phase @p p. */
    std::uint64_t phaseCodeBytes(size_t p) const;
};

} // namespace drisim

#endif // DRISIM_WORKLOAD_CFG_HH
