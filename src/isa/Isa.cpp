//===- isa/Isa.cpp ----------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "isa/Isa.h"

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

const char *isa::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Mov:
    return "mov";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Mac:
    return "mac";
  case Opcode::Div:
    return "div";
  case Opcode::Min:
    return "min";
  case Opcode::Max:
    return "max";
  case Opcode::Avg:
    return "avg";
  case Opcode::Abs:
    return "abs";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::Asr:
    return "asr";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Not:
    return "not";
  case Opcode::Sel:
    return "sel";
  case Opcode::Cmp:
    return "cmp";
  case Opcode::Cvt:
    return "cvt";
  case Opcode::Ld:
    return "ld";
  case Opcode::St:
    return "st";
  case Opcode::LdBlk:
    return "ldblk";
  case Opcode::StBlk:
    return "stblk";
  case Opcode::Sample:
    return "sample";
  case Opcode::Jmp:
    return "jmp";
  case Opcode::Br:
    return "br";
  case Opcode::Sid:
    return "sid";
  case Opcode::Xmit:
    return "xmit";
  case Opcode::Wait:
    return "wait";
  case Opcode::Spawn:
    return "spawn";
  case Opcode::Halt:
    return "halt";
  case Opcode::Nop:
    return "nop";
  }
  exochiUnreachable("bad Opcode");
}

bool isa::opcodeHasWidthType(Opcode Op) {
  switch (Op) {
  case Opcode::Jmp:
  case Opcode::Br:
  case Opcode::Sid:
  case Opcode::Xmit:
  case Opcode::Wait:
  case Opcode::Spawn:
  case Opcode::Halt:
  case Opcode::Nop:
    return false;
  default:
    return true;
  }
}

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

/// Immediate type of \p I's operands (the assembler's literal-typing
/// rule): addresses and xmit operands are integers, a conversion's source
/// is typed by its source type, everything else by the instruction type.
static ElemType immTypeOf(const Instruction &I) {
  if (I.Op == Opcode::Ld || I.Op == Opcode::St || I.Op == Opcode::LdBlk ||
      I.Op == Opcode::StBlk || I.Op == Opcode::Xmit)
    return ElemType::I32;
  return I.Op == Opcode::Cvt ? I.SrcTy : I.Ty;
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
  const ElemType ImmTy = immTypeOf(I);
  auto Op = [&](const Operand &O) { return operandText(O, ImmTy, LabelName); };
  std::string Pred = formatString("%sp%u", I.PredNegate ? "!" : "", I.PredReg);

  std::string Out;
  if (I.PredReg != NoPred && I.Op != Opcode::Sel && I.Op != Opcode::Br)
    Out += "(" + Pred + ") ";

  Out += opcodeName(I.Op);
  if (I.Op == Opcode::Cmp)
    Out += formatString(".%s", cmpOpName(I.Cmp));
  if (opcodeHasWidthType(I.Op)) {
    Out += formatString(".%u.%s", I.Width, elemTypeName(I.Ty));
    if (I.Op == Opcode::Cvt)
      Out += formatString(".%s", elemTypeName(I.SrcTy));
  }

  switch (I.Op) {
  case Opcode::Halt:
  case Opcode::Nop:
    return Out;
  case Opcode::Jmp:
  case Opcode::Spawn:
    return Out + " " + Op(I.Src0);
  case Opcode::Br:
    return Out + " " + Pred + ", " + Op(I.Src0);
  case Opcode::Sid:
  case Opcode::Wait:
    return Out + " " + Op(I.Dst);
  case Opcode::Ld:
  case Opcode::LdBlk:
  case Opcode::Sample:
    return Out + " " + Op(I.Dst) + " = (" + Op(I.Src0) + ", " + Op(I.Src1) +
           ", " + Op(I.Src2) + ")";
  case Opcode::St:
  case Opcode::StBlk:
    return Out + " (" + Op(I.Src0) + ", " + Op(I.Src1) + ", " + Op(I.Src2) +
           ") = " + Op(I.Dst);
  case Opcode::Xmit:
    return Out + " " + Op(I.Src0) + ", " + Op(I.Dst) + " = " + Op(I.Src1);
  case Opcode::Sel:
    return Out + " " + Pred + ", " + Op(I.Dst) + " = " + Op(I.Src0) + ", " +
           Op(I.Src1);
  default:
    break;
  }

  Out += " " + Op(I.Dst) + " = " + Op(I.Src0);
  if (I.Src1.Kind != OperandKind::None)
    Out += ", " + Op(I.Src1);
  if (I.Src2.Kind != OperandKind::None)
    Out += ", " + Op(I.Src2);
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

std::string isa::validate(const Instruction &I) {
  if (I.Width < 1 || I.Width > MaxWidth)
    return formatString("SIMD width %u out of range 1..%u", I.Width, MaxWidth);
  if (I.PredReg != NoPred && I.PredReg >= NumPRegs)
    return formatString("predicate register p%u out of range", I.PredReg);

  auto CheckScalar = [](const Operand &O, const char *Name, bool AllowImm) {
    if (O.Kind == OperandKind::Imm)
      return AllowImm ? std::string()
                      : formatString("%s may not be immediate", Name);
    if (O.Kind != OperandKind::Reg)
      return formatString("%s must be a single register", Name);
    if (O.Reg0 >= NumVRegs)
      return formatString("%s register out of range", Name);
    return std::string();
  };

  switch (I.Op) {
  case Opcode::Halt:
  case Opcode::Nop:
    return std::string();

  case Opcode::Jmp:
    if (I.Src0.Kind != OperandKind::Label)
      return "jmp requires a label operand";
    return std::string();

  case Opcode::Br:
    if (I.PredReg == NoPred)
      return "br requires a predicate register";
    if (I.Src0.Kind != OperandKind::Label)
      return "br requires a label operand";
    return std::string();

  case Opcode::Sid:
    return CheckScalar(I.Dst, "sid destination", /*AllowImm=*/false);

  case Opcode::Wait:
    return CheckScalar(I.Dst, "wait register", /*AllowImm=*/false);

  case Opcode::Spawn:
    return CheckScalar(I.Src0, "spawn parameter", /*AllowImm=*/true);

  case Opcode::Xmit: {
    if (std::string E =
            CheckScalar(I.Src0, "xmit target shred", /*AllowImm=*/true);
        !E.empty())
      return E;
    if (std::string E =
            CheckScalar(I.Dst, "xmit remote register", /*AllowImm=*/false);
        !E.empty())
      return E;
    return CheckScalar(I.Src1, "xmit source", /*AllowImm=*/true);
  }

  case Opcode::Ld:
  case Opcode::LdBlk:
  case Opcode::St:
  case Opcode::StBlk: {
    if (std::string E = checkRegOperand(I.Dst, "memory data", I.Width, I.Ty,
                                        /*AllowImm=*/false);
        !E.empty())
      return E;
    if (I.Dst.regCount() != lanesToRegs(I.Width, I.Ty))
      return "memory data operand must name one register per lane";
    if (I.Src0.Kind != OperandKind::Surface)
      return "memory op requires a surface operand";
    if (std::string E = CheckScalar(I.Src1, "memory index", /*AllowImm=*/true);
        !E.empty())
      return E;
    bool Is2D = I.Op == Opcode::LdBlk || I.Op == Opcode::StBlk;
    return CheckScalar(I.Src2, Is2D ? "memory y index" : "memory offset",
                       /*AllowImm=*/true);
  }

  case Opcode::Sample: {
    if (I.Width != 4 || I.Ty != ElemType::F32)
      return "sample must be .4.f (RGBA)";
    if (std::string E = checkRegOperand(I.Dst, "sample destination", 4,
                                        ElemType::F32, /*AllowImm=*/false);
        !E.empty())
      return E;
    if (I.Dst.regCount() != 4)
      return "sample destination must name 4 registers";
    if (I.Src0.Kind != OperandKind::Surface)
      return "sample requires a surface operand";
    if (std::string E = CheckScalar(I.Src1, "sample u", /*AllowImm=*/true);
        !E.empty())
      return E;
    return CheckScalar(I.Src2, "sample v", /*AllowImm=*/true);
  }

  case Opcode::Cmp: {
    if (I.Dst.Kind != OperandKind::Pred)
      return "cmp destination must be a predicate register";
    if (I.Dst.Reg0 >= NumPRegs)
      return "cmp predicate register out of range";
    if (std::string E =
            checkRegOperand(I.Src0, "cmp lhs", I.Width, I.Ty, true);
        !E.empty())
      return E;
    return checkRegOperand(I.Src1, "cmp rhs", I.Width, I.Ty, true);
  }

  case Opcode::Sel: {
    if (I.PredReg == NoPred)
      return "sel requires a predicate register";
    if (std::string E = checkRegOperand(I.Dst, "sel destination", I.Width,
                                        I.Ty, /*AllowImm=*/false);
        !E.empty())
      return E;
    if (std::string E =
            checkRegOperand(I.Src0, "sel true source", I.Width, I.Ty, true);
        !E.empty())
      return E;
    return checkRegOperand(I.Src1, "sel false source", I.Width, I.Ty, true);
  }

  case Opcode::Cvt: {
    if (std::string E = checkRegOperand(I.Dst, "cvt destination", I.Width,
                                        I.Ty, /*AllowImm=*/false);
        !E.empty())
      return E;
    if (I.Dst.regCount() != lanesToRegs(I.Width, I.Ty))
      return "cvt destination must name one register per lane";
    if (std::string E = checkRegOperand(I.Src0, "cvt source", I.Width,
                                        I.SrcTy, /*AllowImm=*/true);
        !E.empty())
      return E;
    return std::string();
  }

  case Opcode::Not:
  case Opcode::Abs:
  case Opcode::Mov: {
    if (std::string E = checkRegOperand(I.Dst, "destination", I.Width, I.Ty,
                                        /*AllowImm=*/false);
        !E.empty())
      return E;
    if (I.Dst.regCount() != lanesToRegs(I.Width, I.Ty))
      return "destination must name one register per lane";
    return checkRegOperand(I.Src0, "source", I.Width, I.Ty, true);
  }

  default: { // Binary/ternary ALU ops.
    if (std::string E = checkRegOperand(I.Dst, "destination", I.Width, I.Ty,
                                        /*AllowImm=*/false);
        !E.empty())
      return E;
    if (I.Dst.regCount() != lanesToRegs(I.Width, I.Ty))
      return "destination must name one register per lane";
    if (std::string E =
            checkRegOperand(I.Src0, "first source", I.Width, I.Ty, true);
        !E.empty())
      return E;
    return checkRegOperand(I.Src1, "second source", I.Width, I.Ty, true);
  }
  }
}
