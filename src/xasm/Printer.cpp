//===- xasm/Printer.cpp ---------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "xasm/Printer.h"

#include "support/Format.h"

using namespace exochi;
using namespace exochi::isa;
using namespace exochi::xasm;

std::string xasm::printKernel(const std::vector<Instruction> &Code,
                              const std::map<std::string, uint32_t> &Labels) {
  // Name every instruction index that is a branch target or carries a
  // user label.
  std::map<uint32_t, std::string> NameAt;
  for (const auto &[Name, Idx] : Labels)
    NameAt[Idx] = Name;
  for (const Instruction &I : Code)
    if (I.Src0.Kind == OperandKind::Label) {
      uint32_t T = static_cast<uint32_t>(I.Src0.Imm);
      if (!NameAt.count(T))
        NameAt[T] = formatString("L%u", T);
    }

  auto Name = [&](uint32_t Target) { return NameAt.at(Target); };
  std::string Out;
  for (uint32_t Idx = 0; Idx <= Code.size(); ++Idx) {
    if (auto It = NameAt.find(Idx); It != NameAt.end())
      Out += It->second + ":\n";
    if (Idx == Code.size())
      break;
    Out += "  " + disassemble(Code[Idx], Name) + "\n";
  }
  return Out;
}
