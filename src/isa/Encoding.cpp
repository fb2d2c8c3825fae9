//===- isa/Encoding.cpp ------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "isa/Encoding.h"
#include "isa/OpTable.h"

#include "support/Format.h"

#include <cstring>

using namespace exochi;
using namespace exochi::isa;

static void putOperand(const Operand &O, std::vector<uint8_t> &Out) {
  Out.push_back(static_cast<uint8_t>(O.Kind));
  Out.push_back(O.Reg0);
  Out.push_back(O.Reg1);
  uint32_t U = static_cast<uint32_t>(O.Imm);
  Out.push_back(static_cast<uint8_t>(U & 0xff));
  Out.push_back(static_cast<uint8_t>((U >> 8) & 0xff));
  Out.push_back(static_cast<uint8_t>((U >> 16) & 0xff));
  Out.push_back(static_cast<uint8_t>((U >> 24) & 0xff));
}

static Expected<Operand> getOperand(const uint8_t *B) {
  if (B[0] > static_cast<uint8_t>(OperandKind::Label))
    return Error::make(formatString("bad operand kind byte %u", B[0]));
  Operand O;
  O.Kind = static_cast<OperandKind>(B[0]);
  O.Reg0 = B[1];
  O.Reg1 = B[2];
  uint32_t U = static_cast<uint32_t>(B[3]) | (static_cast<uint32_t>(B[4]) << 8) |
               (static_cast<uint32_t>(B[5]) << 16) |
               (static_cast<uint32_t>(B[6]) << 24);
  O.Imm = static_cast<int32_t>(U);
  return O;
}

void isa::encodeInstruction(const Instruction &I, std::vector<uint8_t> &Out) {
  size_t Start = Out.size();
  Out.push_back(static_cast<uint8_t>(I.Op));
  Out.push_back(static_cast<uint8_t>(I.Ty));
  Out.push_back(static_cast<uint8_t>(I.SrcTy));
  Out.push_back(I.Width);
  Out.push_back(I.PredReg);
  Out.push_back(I.PredNegate ? 1 : 0);
  Out.push_back(static_cast<uint8_t>(I.Cmp));
  Out.push_back(0); // reserved
  putOperand(I.Dst, Out);
  putOperand(I.Src0, Out);
  putOperand(I.Src1, Out);
  putOperand(I.Src2, Out);
  assert(Out.size() - Start == InstrBytes && "encoding size drifted");
  (void)Start;
}

Expected<Instruction> isa::decodeInstruction(const uint8_t *B) {
  if (B[0] >= NumOpcodes)
    return Error::make(formatString("bad opcode byte %u", B[0]));
  if (B[1] > static_cast<uint8_t>(ElemType::F64) ||
      B[2] > static_cast<uint8_t>(ElemType::F64))
    return Error::make("bad element type byte");
  if (B[6] > static_cast<uint8_t>(CmpOp::Ge))
    return Error::make("bad comparison byte");

  Instruction I;
  I.Op = static_cast<Opcode>(B[0]);
  I.Ty = static_cast<ElemType>(B[1]);
  I.SrcTy = static_cast<ElemType>(B[2]);
  I.Width = B[3];
  I.PredReg = B[4];
  I.PredNegate = B[5] != 0;
  I.Cmp = static_cast<CmpOp>(B[6]);

  Operand *Slots[4] = {&I.Dst, &I.Src0, &I.Src1, &I.Src2};
  for (unsigned K = 0; K < 4; ++K) {
    auto O = getOperand(B + 8 + K * 7);
    if (!O)
      return O.takeError();
    *Slots[K] = *O;
  }
  return I;
}

std::vector<uint8_t> isa::encodeProgram(const std::vector<Instruction> &Prog) {
  std::vector<uint8_t> Out;
  Out.reserve(Prog.size() * InstrBytes);
  for (const Instruction &I : Prog)
    encodeInstruction(I, Out);
  return Out;
}

Expected<std::vector<Instruction>>
isa::decodeProgram(const std::vector<uint8_t> &Bytes) {
  if (Bytes.size() % InstrBytes != 0)
    return Error::make(
        formatString("code section size %zu is not a multiple of %u",
                     Bytes.size(), InstrBytes));
  std::vector<Instruction> Prog;
  Prog.reserve(Bytes.size() / InstrBytes);
  for (size_t Ofs = 0; Ofs < Bytes.size(); Ofs += InstrBytes) {
    auto I = decodeInstruction(Bytes.data() + Ofs);
    if (!I)
      return Error::make(formatString("instruction %zu: %s",
                                      Ofs / InstrBytes,
                                      I.message().c_str()));
    if (std::string V = validate(*I); !V.empty())
      return Error::make(formatString("instruction %zu: %s", Ofs / InstrBytes,
                                      V.c_str()));
    Prog.push_back(*I);
  }
  return Prog;
}
