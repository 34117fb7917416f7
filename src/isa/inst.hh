/**
 * @file
 * TraceInst: one instruction of a dynamic trace, as produced by the
 * workload substrate and consumed by the core. Trace-driven simulation
 * (as in the paper) records opcodes, registers, effective addresses and
 * branch outcomes — never data values.
 */

#ifndef MTDAE_ISA_INST_HH
#define MTDAE_ISA_INST_HH

#include <array>
#include <string>

#include "common/types.hh"
#include "isa/opcode.hh"
#include "isa/reg.hh"

namespace mtdae {

/**
 * A single dynamic trace instruction.
 */
struct TraceInst
{
    Opcode op = Opcode::Nop;          ///< Operation.
    RegRef dst = RegRef::none();      ///< Destination register, if any.
    std::array<RegRef, 3> src = {RegRef::none(), RegRef::none(),
                                 RegRef::none()};  ///< Source registers.
    /** Branch outcome (branches). Placed before the addresses, in what
     *  would be padding, so a record is 32 bytes, not 40. */
    bool taken = false;
    Addr pc = 0;                      ///< Instruction address.
    Addr addr = 0;                    ///< Effective address (memory ops).

    /** Number of valid source registers. */
    int
    numSrcs() const
    {
        int n = 0;
        for (const auto &s : src)
            if (s.valid())
                ++n;
        return n;
    }

    /** Unit this instruction is steered to. */
    Unit unit() const { return unitOf(op); }

    /** Human-readable one-line disassembly (for tests and debugging). */
    std::string disasm() const;
};

} // namespace mtdae

#endif // MTDAE_ISA_INST_HH
