#include "isa/opcode.hh"

#include "common/log.hh"

namespace mtdae {

const char *
mnemonic(Opcode op)
{
    switch (op) {
      case Opcode::Nop:    return "nop";
      case Opcode::IAdd:   return "iadd";
      case Opcode::ISub:   return "isub";
      case Opcode::IMul:   return "imul";
      case Opcode::ILogic: return "ilogic";
      case Opcode::IShift: return "ishift";
      case Opcode::ICmp:   return "icmp";
      case Opcode::FAdd:   return "fadd";
      case Opcode::FSub:   return "fsub";
      case Opcode::FMul:   return "fmul";
      case Opcode::FDiv:   return "fdiv";
      case Opcode::FMA:    return "fma";
      case Opcode::FCmp:   return "fcmp";
      case Opcode::FMov:   return "fmov";
      case Opcode::MovIF:  return "movif";
      case Opcode::MovFI:  return "movfi";
      case Opcode::LdI:    return "ldi";
      case Opcode::LdF:    return "ldf";
      case Opcode::StI:    return "sti";
      case Opcode::StF:    return "stf";
      case Opcode::Br:     return "br";
      case Opcode::BrF:    return "brf";
      case Opcode::Jmp:    return "jmp";
      default:
        MTDAE_PANIC("mnemonic: bad opcode ", int(op));
    }
}

} // namespace mtdae
