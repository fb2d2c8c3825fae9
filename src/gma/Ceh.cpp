//===- gma/Ceh.cpp ---------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gma/Ceh.h"

#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace exochi;
using namespace exochi::gma;
using namespace exochi::isa;

namespace {

bool laneEnabled(const Instruction &I, const ShredRegView &Regs,
                 unsigned Lane) {
  if (I.PredReg == NoPred)
    return true;
  bool Bit = Regs.readPredLane(I.PredReg, Lane);
  return I.PredNegate ? !Bit : Bit;
}

/// Register index of lane \p Lane of a one-register-per-lane operand.
unsigned laneReg(const Operand &O, unsigned Lane) {
  return O.regCount() <= 1 ? O.Reg0 : O.Reg0 + Lane; // scalar broadcast
}

/// Register index of lane \p Lane of df operand \p O (register pairs).
unsigned f64LaneReg(const Operand &O, unsigned Lane) {
  if (O.regCount() <= 2)
    return O.Reg0; // scalar broadcast
  return O.Reg0 + 2 * Lane;
}

double readF64(const Operand &O, unsigned Lane, const ShredRegView &Regs) {
  if (O.Kind == OperandKind::Imm) {
    // df immediates are stored as F32 bit patterns by the assembler.
    float F;
    uint32_t Bits = static_cast<uint32_t>(O.Imm);
    std::memcpy(&F, &Bits, 4);
    return F;
  }
  unsigned R = f64LaneReg(O, Lane);
  uint64_t Bits = Regs.readReg(R) |
                  (static_cast<uint64_t>(Regs.readReg(R + 1)) << 32);
  double D;
  std::memcpy(&D, &Bits, 8);
  return D;
}

void writeF64(const Operand &O, unsigned Lane, double V, ShredRegView &Regs) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, 8);
  unsigned R = f64LaneReg(O, Lane);
  Regs.writeReg(R, static_cast<uint32_t>(Bits));
  Regs.writeReg(R + 1, static_cast<uint32_t>(Bits >> 32));
}

} // namespace

Error gma::emulateF64(const Instruction &I, ShredRegView &Regs) {
  auto LaneEnabled = [&](unsigned L) { return laneEnabled(I, Regs, L); };

  switch (I.Op) {
  case Opcode::Cmp: {
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!LaneEnabled(L))
        continue;
      double A = readF64(I.Src0, L, Regs), B = readF64(I.Src1, L, Regs);
      bool R = false;
      switch (I.Cmp) {
      case CmpOp::Eq: R = A == B; break;
      case CmpOp::Ne: R = A != B; break;
      case CmpOp::Lt: R = A < B; break;
      case CmpOp::Le: R = A <= B; break;
      case CmpOp::Gt: R = A > B; break;
      case CmpOp::Ge: R = A >= B; break;
      }
      Regs.writePredLane(I.Dst.Reg0, L, R);
    }
    return Error::success();
  }

  case Opcode::Sel: {
    for (unsigned L = 0; L < I.Width; ++L) {
      bool Bit = Regs.readPredLane(I.PredReg, L);
      if (I.PredNegate)
        Bit = !Bit;
      writeF64(I.Dst, L, readF64(Bit ? I.Src0 : I.Src1, L, Regs), Regs);
    }
    return Error::success();
  }

  case Opcode::Cvt: {
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!LaneEnabled(L))
        continue;
      if (I.Ty == ElemType::F64) {
        // Widening convert: read source in SrcTy.
        double V;
        if (I.SrcTy == ElemType::F32) {
          uint32_t Bits = I.Src0.Kind == OperandKind::Imm
                              ? static_cast<uint32_t>(I.Src0.Imm)
                              : Regs.readReg(laneReg(I.Src0, L));
          float F;
          std::memcpy(&F, &Bits, 4);
          V = F;
        } else {
          int32_t IV = I.Src0.Kind == OperandKind::Imm
                           ? I.Src0.Imm
                           : static_cast<int32_t>(
                                 Regs.readReg(laneReg(I.Src0, L)));
          V = IV;
        }
        writeF64(I.Dst, L, V, Regs);
      } else {
        // Narrowing convert from df.
        double V = readF64(I.Src0, L, Regs);
        if (I.Ty == ElemType::F32) {
          float F = static_cast<float>(V);
          uint32_t Bits;
          std::memcpy(&Bits, &F, 4);
          Regs.writeReg(laneReg(I.Dst, L), Bits);
        } else {
          double Lo, Hi;
          switch (I.Ty) {
          case ElemType::I8: Lo = -128; Hi = 127; break;
          case ElemType::I16: Lo = -32768; Hi = 32767; break;
          default: Lo = -2147483648.0; Hi = 2147483647.0; break;
          }
          double C = std::min(std::max(std::trunc(V), Lo), Hi);
          Regs.writeReg(laneReg(I.Dst, L),
                        static_cast<uint32_t>(static_cast<int32_t>(C)));
        }
      }
    }
    return Error::success();
  }

  case Opcode::Mov:
  case Opcode::Abs: {
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!LaneEnabled(L))
        continue;
      double A = readF64(I.Src0, L, Regs);
      writeF64(I.Dst, L, I.Op == Opcode::Abs ? std::fabs(A) : A, Regs);
    }
    return Error::success();
  }

  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Mac:
  case Opcode::Div:
  case Opcode::Min:
  case Opcode::Max:
  case Opcode::Avg: {
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!LaneEnabled(L))
        continue;
      double A = readF64(I.Src0, L, Regs);
      double B = readF64(I.Src1, L, Regs);
      double R = 0;
      switch (I.Op) {
      case Opcode::Add: R = A + B; break;
      case Opcode::Sub: R = A - B; break;
      case Opcode::Mul: R = A * B; break;
      case Opcode::Mac: R = readF64(I.Dst, L, Regs) + A * B; break;
      case Opcode::Div: R = A / B; break; // IEEE: inf/nan
      case Opcode::Min: R = std::min(A, B); break;
      case Opcode::Max: R = std::max(A, B); break;
      case Opcode::Avg: R = (A + B) * 0.5; break;
      default: exochiUnreachable("filtered above");
      }
      writeF64(I.Dst, L, R, Regs);
    }
    return Error::success();
  }

  default:
    return Error::make(formatString(
        "CEH: no IA32 emulation for df instruction '%s'", opcodeName(I.Op)));
  }
}

Error gma::emulateDivZero(const Instruction &I, ShredRegView &Regs,
                          DivZeroPolicy P) {
  if (P == DivZeroPolicy::Fault)
    return Error::make("SEH: integer divide by zero (policy: fault)");
  // Application-level SEH handler: compute the safe lanes, write 0 into
  // the offending ones, and resume.
  auto ReadLane = [&](const Operand &O, unsigned L) -> int64_t {
    if (O.Kind == OperandKind::Imm)
      return O.Imm;
    return static_cast<int32_t>(Regs.readReg(laneReg(O, L)));
  };
  for (unsigned L = 0; L < I.Width; ++L) {
    if (!laneEnabled(I, Regs, L))
      continue;
    int64_t A = ReadLane(I.Src0, L), B = ReadLane(I.Src1, L);
    int64_t Q = B == 0 ? 0 : A / B;
    switch (I.Ty) {
    case ElemType::I8: Q = static_cast<int8_t>(Q); break;
    case ElemType::I16: Q = static_cast<int16_t>(Q); break;
    default: Q = static_cast<int32_t>(Q); break;
    }
    Regs.writeReg(laneReg(I.Dst, L), static_cast<uint32_t>(Q));
  }
  return Error::success();
}
