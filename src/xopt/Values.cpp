//===- xopt/Values.cpp ----------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "xopt/Values.h"

#include <deque>

using namespace exochi;
using namespace exochi::isa;
using namespace exochi::xopt;

namespace {

/// Join points widen once they have changed this many times.
constexpr unsigned WidenAfter = 24;

AbsVal joinVal(const AbsVal &A, const AbsVal &B) {
  AbsVal R;
  R.Val = Range::hull(A.Val, B.Val);
  R.Opaque = A.Opaque || B.Opaque;
  if (A.Affine && B.Affine && A.SidCoef == B.SidCoef && !R.Opaque) {
    R.Affine = true;
    R.SidCoef = A.SidCoef;
    R.Base = Range::hull(A.Base, B.Base);
  }
  return R;
}

/// True when joining (and widening) \p V with itself yields \p V: the
/// join drops Base and SidCoef of a non-affine value to their defaults.
bool isJoinFixed(const AbsVal &V) {
  return V.Affine ? !V.Opaque : V.SidCoef == 0 && V.Base.isFull();
}

AbsVal widenVal(const AbsVal &Prev, const AbsVal &Next) {
  AbsVal R = Next;
  R.Val = Next.Val.widenedFrom(Prev.Val);
  if (R.Affine)
    R.Base = Next.Base.widenedFrom(Prev.Base);
  return R;
}

/// Adds two affine coefficients; false on int64 overflow (the caller
/// drops affinity). Coefficients come from small constants, so overflow
/// means the kernel is doing something degenerate.
bool coefAdd(int64_t A, int64_t B, int64_t &Out) {
  __int128 S = static_cast<__int128>(A) + B;
  if (S < INT64_MIN || S > INT64_MAX)
    return false;
  Out = static_cast<int64_t>(S);
  return true;
}

bool coefMul(int64_t A, int64_t B, int64_t &Out) {
  __int128 S = static_cast<__int128>(A) * B;
  if (S < INT64_MIN || S > INT64_MAX)
    return false;
  Out = static_cast<int64_t>(S);
  return true;
}

AbsVal subVals(const AbsVal &A, const AbsVal &B) {
  AbsVal R;
  R.Val = Range::sub(A.Val, B.Val);
  R.Opaque = A.Opaque || B.Opaque;
  int64_t C;
  if (A.Affine && B.Affine && !R.Opaque && coefAdd(A.SidCoef, -B.SidCoef, C)) {
    R.Affine = true;
    R.SidCoef = C;
    R.Base = Range::sub(A.Base, B.Base);
  }
  return R;
}

AbsVal mulVals(const AbsVal &A, const AbsVal &B) {
  AbsVal R;
  R.Val = Range::mul(A.Val, B.Val);
  R.Opaque = A.Opaque || B.Opaque;
  if (R.Opaque || !A.Affine || !B.Affine)
    return R;
  // constant * affine (either order) stays affine.
  const AbsVal *K = nullptr, *X = nullptr;
  if (A.SidCoef == 0 && A.Base.isPoint()) {
    K = &A;
    X = &B;
  } else if (B.SidCoef == 0 && B.Base.isPoint()) {
    K = &B;
    X = &A;
  } else {
    return R;
  }
  int64_t C;
  if (!coefMul(K->Base.Lo, X->SidCoef, C))
    return R;
  R.Affine = true;
  R.SidCoef = C;
  R.Base = Range::mul(Range::point(K->Base.Lo), X->Base);
  return R;
}

/// \p V as the device observes it through a 32-bit register read.
AbsVal asInt32(AbsVal V) {
  Range I32 = typeRange(ElemType::I32);
  if (!V.Val.within(I32)) {
    V.Val = I32;
    V.Affine = false;
  }
  return V;
}

} // namespace

AbsVal xopt::addVals(const AbsVal &A, const AbsVal &B) {
  AbsVal R;
  R.Val = Range::add(A.Val, B.Val);
  R.Opaque = A.Opaque || B.Opaque;
  int64_t C;
  if (A.Affine && B.Affine && !R.Opaque && coefAdd(A.SidCoef, B.SidCoef, C)) {
    R.Affine = true;
    R.SidCoef = C;
    R.Base = Range::add(A.Base, B.Base);
  }
  return R;
}

AbsVal xopt::readLane(const Operand &O, unsigned Lane, const AbsState &S) {
  if (O.Kind == OperandKind::Imm)
    return AbsVal::constant(O.Imm);
  if (!O.isReg())
    return AbsVal::top();
  unsigned R = O.regCount() <= 1 ? O.Reg0
                                 : std::min<unsigned>(O.Reg0 + Lane, O.Reg1);
  return asInt32(S[R]);
}

AbsVal xopt::readScalar(const Operand &O, const AbsState &S) {
  if (O.Kind == OperandKind::Imm)
    return AbsVal::constant(O.Imm);
  if (!O.isReg())
    return AbsVal::top();
  return asInt32(S[O.Reg0]);
}

KernelValues::KernelValues(const std::vector<Instruction> &Code,
                           const Cfg &G, const VerifySpec &Spec)
    : Code(Code), Spec(Spec), Entry(NumVRegs, AbsVal::opaque()),
      In(Code.size()) {
  for (unsigned P = 0; P < Spec.NumScalarParams && P < NumVRegs; ++P) {
    auto It = Spec.ParamRanges.find(P);
    if (It != Spec.ParamRanges.end())
      Entry[P].Val = It->second;
  }
  if (Code.empty())
    return;

  std::vector<unsigned> Joins(Code.size(), 0);
  In[0] = Entry;
  std::deque<uint32_t> Work{0};
  AbsState Out;
  while (!Work.empty()) {
    uint32_t Idx = Work.front();
    Work.pop_front();
    Out = In[Idx];
    transfer(Code[Idx], Out);
    for (uint32_t Succ : G.succs(Idx)) {
      if (Succ == G.exit())
        continue;
      if (In[Succ].empty()) {
        In[Succ] = Out;
        Work.push_back(Succ);
        continue;
      }
      AbsState &Joined = In[Succ];
      bool Changed = false;
      for (unsigned R = 0; R < NumVRegs; ++R) {
        if (Out[R] == Joined[R] && isJoinFixed(Joined[R]))
          continue;
        AbsVal J = joinVal(Joined[R], Out[R]);
        if (Joins[Succ] > WidenAfter)
          J = widenVal(Joined[R], J);
        if (J != Joined[R]) {
          Joined[R] = J;
          Changed = true;
        }
      }
      if (Changed) {
        ++Joins[Succ];
        Work.push_back(Succ);
      }
    }
  }
}

AbsState KernelValues::out(uint32_t Idx) const {
  AbsState S = In[Idx];
  transfer(Code[Idx], S);
  return S;
}

/// One integer ALU lane (the default switch arm of the device model).
AbsVal KernelValues::evalIntLane(const Instruction &I, unsigned Lane,
                                 const AbsState &S) const {
  AbsVal A = readLane(I.Src0, Lane, S);
  AbsVal B = I.Src1.Kind == OperandKind::None ? AbsVal::constant(0)
                                              : readLane(I.Src1, Lane, S);
  AbsVal R;
  R.Opaque = A.Opaque || B.Opaque;

  switch (I.Op) {
  case Opcode::Mov:
    R = A;
    break;
  case Opcode::Add:
    R = addVals(A, B);
    break;
  case Opcode::Sub:
    R = subVals(A, B);
    break;
  case Opcode::Mul:
    R = mulVals(A, B);
    break;
  case Opcode::Mac:
    R = addVals(readLane(I.Dst, Lane, S), mulVals(A, B));
    break;
  case Opcode::Div:
    if (B.Val.Lo >= 1 && A.Val.isBounded() && B.Val.isBounded()) {
      int64_t C[4] = {A.Val.Lo / B.Val.Lo, A.Val.Lo / B.Val.Hi,
                      A.Val.Hi / B.Val.Lo, A.Val.Hi / B.Val.Hi};
      R.Val = Range::of(*std::min_element(C, C + 4),
                        *std::max_element(C, C + 4));
    } else if (B.Val.Lo >= 1 && A.Val.Lo >= 0) {
      R.Val = Range::of(0, A.Val.Hi);
    }
    break;
  case Opcode::Min:
  case Opcode::Max: {
    auto Pick = I.Op == Opcode::Min ? Range::min : Range::max;
    R.Val = Pick(A.Val, B.Val);
    if (A.Affine && B.Affine && A.SidCoef == B.SidCoef && !R.Opaque) {
      R.Affine = true;
      R.SidCoef = A.SidCoef;
      R.Base = Pick(A.Base, B.Base);
    }
    break;
  }
  case Opcode::Avg:
    R.Val = Range::avg(A.Val, B.Val);
    break;
  case Opcode::Abs:
    R.Val = Range::abs(A.Val);
    if (A.Affine && A.SidCoef == 0 && !R.Opaque) {
      R.Affine = true;
      R.Base = Range::abs(A.Base);
    }
    break;
  case Opcode::Shl:
    if (B.Val.isPoint()) {
      unsigned Sh = static_cast<unsigned>(B.Val.Lo & 31);
      R.Val = Range::shlConst(A.Val, Sh);
      int64_t C;
      if (A.Affine && !R.Opaque && coefMul(A.SidCoef, int64_t(1) << Sh, C)) {
        R.Affine = true;
        R.SidCoef = C;
        R.Base = Range::shlConst(A.Base, Sh);
      }
    }
    break;
  case Opcode::Shr:
    if (B.Val.isPoint()) {
      unsigned Sh = static_cast<unsigned>(B.Val.Lo & 31);
      if (Sh == 0 && A.Val.Lo >= 0)
        R = A; // uint32 reinterpretation is the identity here
      else if (A.Val.Lo >= 0)
        R.Val = Range::asrConst(A.Val, Sh);
      else if (Sh >= 1)
        R.Val = Range::of(0, (int64_t(1) << (32 - Sh)) - 1);
    }
    break;
  case Opcode::Asr:
    if (B.Val.isPoint()) {
      unsigned Sh = static_cast<unsigned>(B.Val.Lo & 31);
      if (Sh == 0)
        R = A;
      else
        R.Val = Range::asrConst(A.Val, Sh);
    }
    break;
  case Opcode::And:
    if (B.Val.isPoint() && B.Val.Lo >= 0)
      R.Val = Range::of(0, A.Val.Lo >= 0 ? std::min(A.Val.Hi, B.Val.Lo)
                                         : B.Val.Lo);
    else if (A.Val.isPoint() && A.Val.Lo >= 0)
      R.Val = Range::of(0, B.Val.Lo >= 0 ? std::min(B.Val.Hi, A.Val.Lo)
                                         : A.Val.Lo);
    else if (A.Val.Lo >= 0 && B.Val.Lo >= 0)
      R.Val = Range::of(0, std::min(A.Val.Hi, B.Val.Hi));
    break;
  case Opcode::Or:
  case Opcode::Xor:
    if (A.Val.Lo >= 0 && B.Val.Lo >= 0 && A.Val.isBounded() &&
        B.Val.isBounded()) {
      int64_t M = std::max(A.Val.Hi, B.Val.Hi);
      int64_t Mask = 1;
      while (Mask <= M && Mask < (int64_t(1) << 32))
        Mask <<= 1;
      R.Val = Range::of(0, Mask - 1);
    }
    break;
  case Opcode::Not:
    // ~a == -a - 1 exactly.
    R.Val = Range::sub(Range::neg(A.Val), Range::point(1));
    if (A.Affine && !R.Opaque) {
      R.Affine = true;
      R.SidCoef = -A.SidCoef;
      R.Base = Range::sub(Range::neg(A.Base), Range::point(1));
    }
    break;
  default:
    break; // unknown: full range
  }

  // Architectural truncation: results are stored sign-extended to the
  // instruction type; a range escaping the type wraps and loses both
  // precision and affinity.
  Range TR = typeRange(I.Ty);
  if (!R.Val.within(TR)) {
    R.Val = TR;
    R.Affine = false;
  }
  return R;
}

/// Applies instruction \p I to state \p S in place.
void KernelValues::transfer(const Instruction &I, AbsState &S) const {
  bool Partial = I.PredReg != NoPred && I.Op != Opcode::Sel;
  auto writeLane = [&](unsigned Lane, AbsVal V) {
    if (!I.Dst.isReg())
      return;
    unsigned R = I.Dst.regCount() <= 1
                     ? I.Dst.Reg0
                     : std::min<unsigned>(I.Dst.Reg0 + Lane, I.Dst.Reg1);
    S[R] = Partial ? joinVal(S[R], V) : V;
  };
  // A float result (or a conversion from or to float) is any value,
  // opaque when a source is.
  auto floatLane = [&](unsigned Lane) {
    AbsVal V = AbsVal::top();
    V.Opaque = readLane(I.Src0, Lane, S).Opaque ||
               (I.Src1.Kind != OperandKind::None &&
                readLane(I.Src1, Lane, S).Opaque);
    return V;
  };

  switch (I.Op) {
  case Opcode::Halt:
  case Opcode::Nop:
  case Opcode::Jmp:
  case Opcode::Br:
  case Opcode::Cmp: // predicates are not tracked
  case Opcode::St:
  case Opcode::StBlk:
  case Opcode::Xmit:
  case Opcode::Spawn:
    return;

  case Opcode::Sid: {
    // The device writes Dst.Reg0 unconditionally (no predication).
    AbsVal V;
    V.Val = Range::of(Spec.SidLo, Spec.SidHi);
    V.Base = Range::point(0);
    V.SidCoef = 1;
    V.Affine = true;
    S[I.Dst.Reg0] = V;
    return;
  }

  case Opcode::Wait:
    // The waited register holds a value transmitted by another shred.
    S[I.Dst.Reg0] = AbsVal::opaque();
    return;

  case Opcode::Ld:
  case Opcode::LdBlk:
  case Opcode::Sample:
    for (unsigned L = 0; L < I.Width; ++L)
      writeLane(L, AbsVal::opaque());
    return;

  case Opcode::Sel:
    for (unsigned L = 0; L < I.Width; ++L)
      writeLane(L, isIntType(I.Ty) ? joinVal(readLane(I.Src0, L, S),
                                             readLane(I.Src1, L, S))
                                   : floatLane(L));
    return;

  case Opcode::Cvt:
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!isIntType(I.Ty) || !isIntType(I.SrcTy)) {
        AbsVal V = floatLane(L);
        if (isIntType(I.Ty))
          V.Val = typeRange(I.Ty);
        writeLane(L, V);
        continue;
      }
      // Integer Cvt saturates to the destination type.
      AbsVal A = readLane(I.Src0, L, S);
      Range TR = typeRange(I.Ty);
      if (!A.Val.within(TR)) {
        auto Clamp = [&TR](int64_t V) {
          return std::min(std::max(V, TR.Lo), TR.Hi);
        };
        A.Val = Range::of(Clamp(A.Val.Lo), Clamp(A.Val.Hi));
        A.Affine = false;
      }
      writeLane(L, A);
    }
    return;

  default:
    // ALU ops.
    for (unsigned L = 0; L < I.Width; ++L)
      writeLane(L, isIntType(I.Ty) ? evalIntLane(I, L, S) : floatLane(L));
    return;
  }
}
