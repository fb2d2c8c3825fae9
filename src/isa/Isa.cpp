//===- isa/Isa.cpp ----------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "isa/Isa.h"
#include "isa/OpTable.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cstring>

using namespace exochi;
using namespace exochi::isa;

const char *isa::elemTypeName(ElemType Ty) {
  switch (Ty) {
  case ElemType::I8:
    return "b";
  case ElemType::I16:
    return "w";
  case ElemType::I32:
    return "dw";
  case ElemType::F32:
    return "f";
  case ElemType::F64:
    return "df";
  }
  exochiUnreachable("bad ElemType");
}

const char *isa::opcodeName(Opcode Op) { return opInfo(Op).Name; }

const char *isa::cmpOpName(CmpOp C) {
  switch (C) {
  case CmpOp::Eq:
    return "eq";
  case CmpOp::Ne:
    return "ne";
  case CmpOp::Lt:
    return "lt";
  case CmpOp::Le:
    return "le";
  case CmpOp::Gt:
    return "gt";
  case CmpOp::Ge:
    return "ge";
  }
  exochiUnreachable("bad CmpOp");
}

static std::string
operandText(const Operand &O, ElemType ImmTy,
            const std::function<std::string(uint32_t)> &LabelName) {
  switch (O.Kind) {
  case OperandKind::None:
    return "<none>";
  case OperandKind::Reg:
    return formatString("vr%u", O.Reg0);
  case OperandKind::RegRange:
    return formatString("[vr%u..vr%u]", O.Reg0, O.Reg1);
  case OperandKind::Pred:
    return formatString("p%u", O.Reg0);
  case OperandKind::Imm: {
    if (ImmTy != ElemType::F32 && ImmTy != ElemType::F64)
      return formatString("%d", O.Imm);
    // The assembler stores float literals as F32 bit patterns; print a
    // literal that re-parses to the identical bits, marked as a float.
    float F;
    std::memcpy(&F, &O.Imm, 4);
    std::string S = formatString("%.9g", static_cast<double>(F));
    if (S.find_first_of(".ein") == std::string::npos)
      S += ".0";
    return S;
  }
  case OperandKind::Surface:
    return formatString("surf%d", O.Imm);
  case OperandKind::Label:
    return LabelName ? LabelName(static_cast<uint32_t>(O.Imm))
                     : formatString("@%d", O.Imm);
  }
  exochiUnreachable("bad OperandKind");
}

std::string
isa::disassemble(const Instruction &I,
                 const std::function<std::string(uint32_t)> &LabelName) {
  const OpInfo &Row = opInfo(I.Op);
  const ElemType ImmTy = immTypeOf(I);
  const Operand *Slots[4] = {&I.Dst, &I.Src0, &I.Src1, &I.Src2};
  std::string Pred = formatString("%sp%u", I.PredNegate ? "!" : "", I.PredReg);

  std::string Out;
  if (I.PredReg != NoPred && !Row.needsPred())
    Out += "(" + Pred + ") ";

  Out += Row.Name;
  if (I.Op == Opcode::Cmp)
    Out += formatString(".%s", cmpOpName(I.Cmp));
  if (Row.WidthType) {
    Out += formatString(".%u.%s", I.Width, elemTypeName(I.Ty));
    if (Row.Src == SrcType::Cvt)
      Out += formatString(".%s", elemTypeName(I.SrcTy));
  }

  if (*Row.Syntax)
    Out += ' ';
  for (const char *S = Row.Syntax; *S; ++S) {
    if (*S == 'P')
      Out += Pred;
    else if (int K = syntaxSlot(*S); K >= 0)
      Out += operandText(*Slots[K], ImmTy, LabelName);
    else
      Out += *S;
  }
  return Out;
}

/// Required register count of a Width-lane operand of type \p Ty.
static unsigned lanesToRegs(unsigned Width, ElemType Ty) {
  return Ty == ElemType::F64 ? Width * 2 : Width;
}

static std::string checkRegOperand(const Operand &O, const char *Name,
                                   unsigned Width, ElemType Ty,
                                   bool AllowImm) {
  if (O.Kind == OperandKind::Imm)
    return AllowImm ? std::string()
                    : formatString("%s operand may not be immediate", Name);
  if (!O.isReg())
    return formatString("%s operand must be a register", Name);
  if (O.Reg1 >= NumVRegs || O.Reg1 < O.Reg0)
    return formatString("%s operand register range invalid", Name);
  unsigned Need = lanesToRegs(Width, Ty);
  unsigned Have = O.regCount();
  unsigned Scalar = Ty == ElemType::F64 ? 2 : 1;
  if (Have != Need && Have != Scalar)
    return formatString("%s operand names %u registers, needs %u (or %u to "
                        "broadcast)",
                        Name, Have, Need, Scalar);
  return std::string();
}

/// Checks operand \p O of \p I against slot \p S, the slot numbered \p K
/// (Dst = 0). Registers of a source are counted in the type it is read in.
static std::string checkSlot(const Instruction &I, const OperandSlot &S,
                             const Operand &O, unsigned K) {
  static const char *const SlotNames[] = {"destination", "first source",
                                          "second source", "third source"};
  const ElemType Ty = K == 0 ? I.Ty : immTypeOf(I);
  switch (S.Role) {
  case SlotRole::Absent:
    if (O.Kind == OperandKind::None)
      return std::string();
    return formatString("%s takes no %s operand", opcodeName(I.Op),
                        SlotNames[K]);
  case SlotRole::Lanes:
  case SlotRole::Group:
    if (std::string E = checkRegOperand(O, S.Name, I.Width, Ty, S.Imm);
        !E.empty())
      return E;
    if (S.Role == SlotRole::Lanes && O.regCount() != lanesToRegs(I.Width, Ty))
      return formatString("%s operand must name one register per lane",
                          S.Name);
    return std::string();
  case SlotRole::Scalar:
    if (O.Kind == OperandKind::Imm)
      return S.Imm ? std::string()
                   : formatString("%s may not be immediate", S.Name);
    if (O.Kind != OperandKind::Reg || O.Reg1 != O.Reg0)
      return formatString("%s must be a single register", S.Name);
    if (O.Reg0 >= NumVRegs)
      return formatString("%s register out of range", S.Name);
    return std::string();
  case SlotRole::Pred:
    if (O.Kind != OperandKind::Pred)
      return formatString("%s must be a predicate register", S.Name);
    if (O.Reg0 >= NumPRegs)
      return formatString("%s predicate register out of range", S.Name);
    return std::string();
  case SlotRole::Surface:
    if (O.Kind != OperandKind::Surface)
      return formatString("%s requires a surface operand", S.Name);
    return std::string();
  case SlotRole::Label:
    if (O.Kind != OperandKind::Label)
      return formatString("%s requires a label operand", S.Name);
    return std::string();
  }
  exochiUnreachable("bad SlotRole");
}

std::string isa::validate(const Instruction &I) {
  if (I.Width < 1 || I.Width > MaxWidth)
    return formatString("SIMD width %u out of range 1..%u", I.Width, MaxWidth);
  if (I.PredReg != NoPred && I.PredReg >= NumPRegs)
    return formatString("predicate register p%u out of range", I.PredReg);

  const OpInfo &Row = opInfo(I.Op);
  if (Row.needsPred() && I.PredReg == NoPred)
    return formatString("%s requires a predicate register", Row.Name);
  if (I.PredReg != NoPred && !Row.needsPred() && !Row.LaneMask)
    return formatString("%s takes no predicate prefix", Row.Name);
  if (Row.Rgba && (I.Width != 4 || I.Ty != ElemType::F32))
    return formatString("%s must be .4.f (RGBA)", Row.Name);
  const Operand *Slots[4] = {&I.Dst, &I.Src0, &I.Src1, &I.Src2};
  for (unsigned K = 0; K < 4; ++K)
    if (std::string E = checkSlot(I, Row.Slots[K], *Slots[K], K); !E.empty())
      return E;
  return std::string();
}
