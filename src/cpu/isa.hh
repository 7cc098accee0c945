/**
 * @file
 * The synthetic ISA: a decoded-instruction record and the stream
 * interface between workloads and CPU models.
 *
 * Instructions are 4 bytes; a 32-byte i-cache block holds 8. The
 * stream carries the *architecturally executed* path (trace-driven
 * simulation): branch outcomes and memory addresses are known, and
 * CPU models charge timing for mispredictions rather than fetching
 * wrong-path instructions (standard trace-driven approximation;
 * see docs/DESIGN.md, Trace-driven approximation).
 */

#ifndef DRISIM_CPU_ISA_HH
#define DRISIM_CPU_ISA_HH

#include <cstdint>

#include "util/types.hh"

namespace drisim
{

/** Instruction byte size (fixed-width ISA). */
inline constexpr unsigned kInstrBytes = 4;

/** Architectural registers: an instruction names 0..kRegs-1
 *  (0 = none); a core's rename table holds one writer for each. */
inline constexpr unsigned kRegs = 64;

/** Operation classes with distinct timing behaviour. */
enum class OpClass : std::uint8_t
{
    IntAlu,  ///< 1-cycle integer op
    IntMul,  ///< 3-cycle multiply/divide-lite
    FpAlu,   ///< 4-cycle floating-point op
    Load,    ///< d-cache read
    Store,   ///< d-cache write (at commit)
    Branch,  ///< conditional branch
    Jump,    ///< unconditional direct jump
    Call,    ///< function call (pushes RAS)
    Return,  ///< function return (pops RAS)
};

/** True if @p op redirects control flow. */
constexpr bool
isControl(OpClass op)
{
    return op == OpClass::Branch || op == OpClass::Jump ||
           op == OpClass::Call || op == OpClass::Return;
}

/** True if @p op references data memory. */
constexpr bool
isMem(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

/** One decoded, executed instruction. */
struct Instr
{
    /** Instruction address. */
    Addr pc = 0;
    /** Operation class. */
    OpClass op = OpClass::IntAlu;
    /** Destination register (0 = none; regs 1..kRegs-1). */
    std::uint8_t dest = 0;
    /** Source registers (0 = none). */
    std::uint8_t src1 = 0;
    std::uint8_t src2 = 0;
    /** For control ops: did it take? (Jump/Call/Return: true.) */
    bool taken = false;
    /** Address of the next executed instruction. */
    Addr nextPc = 0;
    /** Effective address for Load/Store. */
    Addr memAddr = 0;
};

/** A straight-line stretch of the executed path: @c count
 *  instructions at consecutive PCs from @c pc, the last of them a
 *  taken control instruction when @c endsTaken. */
struct FetchSpan
{
    Addr pc = 0;
    InstCount count = 0;
    bool endsTaken = false;
};

/** A supplier of the executed instruction path. */
class InstrStream
{
  public:
    virtual ~InstrStream() = default;

    /**
     * Produce the next executed instruction.
     * @return false when the program ends
     */
    virtual bool next(Instr &out) = 0;

    /**
     * Produce the next 1 to @p max (> 0) instructions as one span,
     * for a consumer that reads only the fetch path (SimpleCore).
     * The default yields one instruction through next(); a stream
     * that holds whole straight-line runs hands out up to @p max of
     * the current one.
     * @return false when the program ends
     */
    virtual bool nextSpan(FetchSpan &out, InstCount max)
    {
        (void)max;
        if (!next(spanInstr_))
            return false;
        out.pc = spanInstr_.pc;
        out.count = 1;
        out.endsTaken = isControl(spanInstr_.op) && spanInstr_.taken;
        return true;
    }

  private:
    /** next()'s destination in the default nextSpan(). A member, so
     *  a call does not zero a fresh 32-byte Instr first: next()
     *  writes every field it yields. */
    Instr spanInstr_;
};

} // namespace drisim

#endif // DRISIM_CPU_ISA_HH
