/**
 * @file
 * Opcodes of the mini load/store ISA and their static traits, including
 * the paper's data-type steering rule (which processing unit an opcode is
 * dispatched to).
 */

#ifndef MTDAE_ISA_OPCODE_HH
#define MTDAE_ISA_OPCODE_HH

#include <cstddef>
#include <cstdint>

namespace mtdae {

/** The two decoupled processing units. */
enum class Unit : std::uint8_t {
    AP,  ///< Address Processor: integer, memory and control instructions.
    EP,  ///< Execute Processor: floating-point computation.
};

/**
 * Instruction opcodes. The set is Alpha-flavoured but minimal: enough to
 * express the dependence and memory behaviour the paper's workloads show.
 */
enum class Opcode : std::uint8_t {
    Nop,    ///< No operation (pipeline filler).
    // AP integer ALU
    IAdd,   ///< Integer add (also address arithmetic / induction updates).
    ISub,   ///< Integer subtract.
    IMul,   ///< Integer multiply (same AP latency; units are general).
    ILogic, ///< Integer logical op.
    IShift, ///< Integer shift (index scaling).
    ICmp,   ///< Integer compare, produces an int condition.
    // EP floating point
    FAdd,   ///< FP add.
    FSub,   ///< FP subtract.
    FMul,   ///< FP multiply.
    FDiv,   ///< FP divide (uniform EP latency, per Figure 2).
    FMA,    ///< Fused multiply-add (three sources).
    FCmp,   ///< FP compare, produces an FP condition register.
    FMov,   ///< FP register move.
    // Cross-file moves
    MovIF,  ///< Move int -> fp (executes on the EP, reads an AP reg).
    MovFI,  ///< Move fp -> int (executes on the AP, reads an EP reg).
    // Memory (all steered to the AP)
    LdI,    ///< Integer load (indices, pointers, scalars).
    LdF,    ///< FP load (writes an EP register from the AP).
    StI,    ///< Integer store.
    StF,    ///< FP store (address from AP, data from EP).
    // Control (resolved on the AP)
    Br,     ///< Conditional branch on an integer register.
    BrF,    ///< Conditional branch on an FP condition (loss-of-decoupling).
    Jmp,    ///< Unconditional jump (loop back-edges).

    NumOpcodes,  ///< Count; not a real opcode.
};

/** Number of opcodes in the ISA. */
inline constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::NumOpcodes);

/** True for LdI/LdF. */
constexpr bool
isLoad(Opcode op)
{
    return op == Opcode::LdI || op == Opcode::LdF;
}

/** True for StI/StF. */
constexpr bool
isStore(Opcode op)
{
    return op == Opcode::StI || op == Opcode::StF;
}

/** True for any memory-accessing opcode. */
constexpr bool
isMem(Opcode op)
{
    return isLoad(op) || isStore(op);
}

/** True for Br/BrF/Jmp. */
constexpr bool
isBranch(Opcode op)
{
    return op == Opcode::Br || op == Opcode::BrF || op == Opcode::Jmp;
}

/** True for conditional branches (Br/BrF). */
constexpr bool
isCondBranch(Opcode op)
{
    return op == Opcode::Br || op == Opcode::BrF;
}

/** True for FP-computation opcodes (EP-resident work). */
constexpr bool
isFpOp(Opcode op)
{
    switch (op) {
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FMA:
      case Opcode::FCmp:
      case Opcode::FMov:
        return true;
      default:
        return false;
    }
}

/**
 * The paper's steering rule: memory, integer and control -> AP;
 * FP computation (and int->fp moves) -> EP.
 */
constexpr Unit
unitOf(Opcode op)
{
    // Memory and control always execute on the AP (the paper dispatches
    // *all* memory instructions to the AP); MovIF produces an FP value
    // and executes on the EP; FP computation executes on the EP;
    // everything else is integer work on the AP.
    if (isMem(op) || isBranch(op))
        return Unit::AP;
    if (op == Opcode::MovIF || isFpOp(op))
        return Unit::EP;
    return Unit::AP;
}

/** Short mnemonic for tracing/disassembly. */
const char *mnemonic(Opcode op);

} // namespace mtdae

#endif // MTDAE_ISA_OPCODE_HH
