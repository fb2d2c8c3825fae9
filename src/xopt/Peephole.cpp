//===- xopt/Peephole.cpp ---------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "xopt/Peephole.h"

#include "xopt/Cfg.h"
#include "xopt/Range.h"

#include <algorithm>

using namespace exochi;
using namespace exochi::isa;
using namespace exochi::xopt;

namespace {

/// Power-of-two check returning the exponent.
bool isPow2(int32_t V, unsigned &Shift) {
  if (V <= 0)
    return false;
  uint32_t U = static_cast<uint32_t>(V);
  if ((U & (U - 1)) != 0)
    return false;
  Shift = 0;
  while ((U >>= 1) != 0)
    ++Shift;
  return true;
}

/// Rewrites \p I into `mov dst = Src` preserving predication.
void toMov(Instruction &I, const Operand &Src) {
  I.Op = Opcode::Mov;
  I.Src0 = Src;
  I.Src1 = Operand::none();
  I.Src2 = Operand::none();
}

/// One in-place rewrite sweep. Returns counters.
void rewriteSweep(std::vector<Instruction> &Code, OptStats &Stats) {
  for (Instruction &I : Code) {
    if (!isIntType(I.Ty))
      continue; // float identities are not exact (NaN, -0.0)

    const bool Src0Imm = I.Src0.Kind == OperandKind::Imm;
    const bool Src1Imm = I.Src1.Kind == OperandKind::Imm;

    switch (I.Op) {
    case Opcode::Mul: {
      // Canonicalize the immediate into Src1 (multiply commutes).
      if (Src0Imm && !Src1Imm)
        std::swap(I.Src0, I.Src1);
      if (I.Src1.Kind != OperandKind::Imm)
        break;
      int32_t V = I.Src1.Imm;
      unsigned Shift;
      if (V == 0) {
        toMov(I, Operand::imm(0));
        ++Stats.AlgebraicSimplified;
      } else if (V == 1) {
        toMov(I, I.Src0);
        ++Stats.AlgebraicSimplified;
      } else if (isPow2(V, Shift)) {
        I.Op = Opcode::Shl;
        I.Src1 = Operand::imm(static_cast<int32_t>(Shift));
        ++Stats.StrengthReduced;
      }
      break;
    }

    case Opcode::Add: {
      if (Src0Imm && I.Src0.Imm == 0 && !Src1Imm) {
        toMov(I, I.Src1);
        ++Stats.AlgebraicSimplified;
      } else if (Src1Imm && I.Src1.Imm == 0) {
        toMov(I, I.Src0);
        ++Stats.AlgebraicSimplified;
      }
      break;
    }

    case Opcode::Sub:
      if (Src1Imm && I.Src1.Imm == 0) {
        toMov(I, I.Src0);
        ++Stats.AlgebraicSimplified;
      }
      break;

    case Opcode::Or:
    case Opcode::Xor: {
      if (Src0Imm && I.Src0.Imm == 0 && !Src1Imm) {
        toMov(I, I.Src1);
        ++Stats.AlgebraicSimplified;
      } else if (Src1Imm && I.Src1.Imm == 0) {
        toMov(I, I.Src0);
        ++Stats.AlgebraicSimplified;
      } else if (I.Op == Opcode::Or && Src1Imm && I.Src1.Imm == -1) {
        toMov(I, Operand::imm(-1));
        ++Stats.AlgebraicSimplified;
      }
      break;
    }

    case Opcode::And:
      if (Src1Imm && I.Src1.Imm == -1) {
        toMov(I, I.Src0);
        ++Stats.AlgebraicSimplified;
      } else if (Src1Imm && I.Src1.Imm == 0) {
        toMov(I, Operand::imm(0));
        ++Stats.AlgebraicSimplified;
      }
      break;

    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Asr:
      if (Src1Imm && (I.Src1.Imm & 31) == 0) {
        toMov(I, I.Src0);
        ++Stats.AlgebraicSimplified;
      }
      break;

    default:
      break;
    }
  }
}

/// True when removing \p I cannot change observable behaviour given its
/// destinations are dead. F64 and Div instructions can fault (CEH), so
/// they are observable regardless of liveness.
bool removableWhenDead(const Instruction &I, const UseDef &UD) {
  if (UD.HasSideEffects)
    return false;
  if (I.Ty == ElemType::F64 || I.SrcTy == ElemType::F64)
    return false;
  if (I.Op == Opcode::Div)
    return false;
  return true;
}

/// Removes instructions flagged in \p Remove, remapping branch targets,
/// lines, and labels. A target pointing at a removed instruction lands on
/// the next kept one (its fall-through continuation).
void eraseMarked(std::vector<Instruction> &Code,
                 const std::vector<bool> &Remove,
                 std::vector<uint32_t> *Lines,
                 std::map<std::string, uint32_t> *Labels) {
  // NewIndex[i] = index of instruction i after removal (for removed
  // instructions: index of the next kept instruction).
  std::vector<uint32_t> NewIndex(Code.size() + 1);
  uint32_t Kept = 0;
  for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
    NewIndex[Idx] = Kept;
    if (!Remove[Idx])
      ++Kept;
  }
  NewIndex[Code.size()] = Kept;

  std::vector<Instruction> NewCode;
  std::vector<uint32_t> NewLines;
  NewCode.reserve(Kept);
  for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
    if (Remove[Idx])
      continue;
    Instruction I = Code[Idx];
    if ((I.Op == Opcode::Jmp || I.Op == Opcode::Br) &&
        I.Src0.Kind == OperandKind::Label)
      I.Src0 = Operand::label(
          static_cast<int32_t>(NewIndex[static_cast<uint32_t>(I.Src0.Imm)]));
    NewCode.push_back(I);
    if (Lines)
      NewLines.push_back((*Lines)[Idx]);
  }
  Code = std::move(NewCode);
  if (Lines)
    *Lines = std::move(NewLines);
  if (Labels)
    for (auto &[Name, Idx] : *Labels)
      Idx = NewIndex[std::min<size_t>(Idx, NewIndex.size() - 1)];
}

/// One DCE + identity-mov removal sweep. Returns true when something was
/// removed.
bool removalSweep(std::vector<Instruction> &Code, OptStats &Stats,
                  std::vector<uint32_t> *Lines,
                  std::map<std::string, uint32_t> *Labels) {
  if (Code.empty())
    return false;
  std::vector<LocSet> Live = liveOut(Code);
  std::vector<bool> Remove(Code.size(), false);
  bool Any = false;

  for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
    const Instruction &I = Code[Idx];
    UseDef UD = useDef(I);

    // Identity move: mov x = x (any predication) is a no-op.
    if (I.Op == Opcode::Mov && I.Ty != ElemType::F64 &&
        I.Src0.Kind == I.Dst.Kind && I.Src0.Reg0 == I.Dst.Reg0 &&
        I.Src0.Reg1 == I.Dst.Reg1 && I.Dst.isReg()) {
      Remove[Idx] = true;
      ++Stats.IdentityMovesRemoved;
      Any = true;
      continue;
    }

    if (I.Op == Opcode::Nop || (removableWhenDead(I, UD) &&
                                (UD.Def & Live[Idx]).none())) {
      Remove[Idx] = true;
      if (I.Op != Opcode::Nop)
        ++Stats.DeadRemoved;
      Any = true;
    }
  }

  if (Any)
    eraseMarked(Code, Remove, Lines, Labels);
  return Any;
}

} // namespace

OptStats xopt::optimizeKernel(std::vector<Instruction> &Code,
                              std::vector<uint32_t> *Lines,
                              std::map<std::string, uint32_t> *Labels) {
  OptStats Stats;
  for (unsigned Round = 0; Round < 8; ++Round) {
    rewriteSweep(Code, Stats);
    if (!removalSweep(Code, Stats, Lines, Labels))
      break;
  }
  return Stats;
}
