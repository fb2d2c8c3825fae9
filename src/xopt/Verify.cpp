//===- xopt/Verify.cpp -----------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// XVerify's checks (see Verify.h and DESIGN.md §10) over the Cfg and the
// states of the shared value analysis (xopt/Values.h).
//
//===----------------------------------------------------------------------===//

#include "xopt/Verify.h"

#include "support/Format.h"
#include "xopt/Cfg.h"
#include "xopt/Values.h"

#include <bitset>

using namespace exochi;
using namespace exochi::isa;
using namespace exochi::xopt;

namespace {

/// The engine running the checks over one kernel's value states.
struct Verifier {
  const std::vector<Instruction> &Code;
  const VerifySpec &Spec;
  const Cfg Graph;
  const KernelValues Values;
  LintReport Report;

  Verifier(const std::vector<Instruction> &Code, const VerifySpec &Spec)
      : Code(Code), Spec(Spec), Graph(Code), Values(Code, Graph, Spec) {}

  //===--------------------------------------------------------------------===
  // Divide and surface checks
  //===--------------------------------------------------------------------===

  void checkDiv(uint32_t Idx) {
    const Instruction &I = Code[Idx];
    if (!isIntType(I.Ty))
      return; // float divide yields IEEE inf/nan, no fault
    bool Definite = false, Possible = false, Soft = false;
    for (unsigned L = 0; L < I.Width; ++L) {
      AbsVal B = readLane(I.Src1, L, Values.in(Idx));
      if (!B.Val.containsZero())
        continue;
      if (B.Val.isPoint())
        Definite = true;
      else if (B.Val.isBounded() && !B.Opaque)
        Possible = true;
      else
        // Unbounded, or derived from a dispatch input the contract is
        // trusted to keep sane: informational only.
        Soft = true;
    }
    if (Definite) {
      // Predication can keep the faulting lane disabled, so a predicated
      // divide is only a may-fault.
      if (I.PredReg == NoPred)
        Report.error(Idx, "divides by zero");
      else
        Report.warn(Idx, "divides by zero when the predicate is set");
    } else if (Possible) {
      Report.warn(Idx, "may divide by zero (divisor range includes 0)");
    } else if (Soft) {
      Report.note(Idx, "divisor is not provably nonzero");
    }
  }

  /// True when \p V says nothing beyond "any 32-bit value": the
  /// architectural clamp makes even fully-unknown values look bounded,
  /// and a may-diagnostic over the whole int32 range is pure noise.
  static bool uninformative(const AbsVal &V) {
    return V.Val.Lo <= INT32_MIN && V.Val.Hi >= INT32_MAX;
  }

  /// Checks one access coordinate against [0, Limit - Extent] where
  /// \p Limit is the surface extent (Unknown when not modelled) and
  /// \p Extent the number of elements touched starting at the coordinate.
  void checkCoord(uint32_t Idx, const AbsVal &V, int64_t Extent,
                  int64_t Limit, const char *What) {
    const Instruction &I = Code[Idx];
    bool Certain = I.PredReg == NoPred;
    if (Limit != SurfaceGeometry::Unknown) {
      Range Valid = Range::of(0, Limit - Extent);
      if (Valid.Hi < Valid.Lo || !V.Val.intersects(Valid)) {
        std::string Msg = formatString(
            "%s is provably out of bounds (surface extent %lld)", What,
            static_cast<long long>(Limit));
        if (Certain)
          Report.error(Idx, std::move(Msg));
        else
          Report.warn(Idx, std::move(Msg));
      } else if (!V.Val.within(Valid) && V.Val.isBounded() &&
                 !uninformative(V)) {
        std::string Msg =
            formatString("%s may be out of bounds (range [%lld, "
                         "%lld], valid [0, %lld])",
                         What, static_cast<long long>(V.Val.Lo),
                         static_cast<long long>(V.Val.Hi),
                         static_cast<long long>(Valid.Hi));
        // Coordinates derived from dispatch inputs are trusted by the
        // partitioning contract: informational only (the dispatcher, not
        // the kernel, is responsible for handing out in-bounds tiles).
        if (V.Opaque)
          Report.note(Idx, std::move(Msg));
        else
          Report.warn(Idx, std::move(Msg));
      }
      return;
    }
    // Unknown geometry: only negative coordinates are provably invalid.
    if (V.Val.Hi < 0) {
      std::string Msg =
          formatString("%s is provably negative (always faults)", What);
      if (Certain)
        Report.error(Idx, std::move(Msg));
      else
        Report.warn(Idx, std::move(Msg));
    } else if (V.Val.Lo < 0 && V.Val.isBounded() && !uninformative(V)) {
      std::string Msg =
          formatString("%s may be negative (range [%lld, %lld])", What,
                       static_cast<long long>(V.Val.Lo),
                       static_cast<long long>(V.Val.Hi));
      if (V.Opaque)
        Report.note(Idx, std::move(Msg));
      else
        Report.warn(Idx, std::move(Msg));
    }
  }

  void checkMemory(uint32_t Idx) {
    const Instruction &I = Code[Idx];
    int32_t Slot = I.Src0.Imm;
    if (Slot < 0 || (Spec.NumSurfaceSlots != VerifySpec::UnknownSurfaceCount &&
                     Slot >= Spec.NumSurfaceSlots)) {
      Report.error(Idx, formatString("accesses surface slot %d but only %d "
                                     "surface(s) are bound",
                                     Slot,
                                     std::max(Spec.NumSurfaceSlots, 0)));
      return;
    }
    if (I.Op == Opcode::Sample)
      return; // float coordinates; the sampler clamps

    SurfaceGeometry G;
    auto It = Spec.Surfaces.find(Slot);
    if (It != Spec.Surfaces.end())
      G = It->second;

    const AbsState &S = Values.in(Idx);
    if (I.Op == Opcode::Ld || I.Op == Opcode::St) {
      AbsVal First = addVals(readScalar(I.Src1, S), readScalar(I.Src2, S));
      checkCoord(Idx, First, I.Width, G.totalElements(), "first element");
    } else {
      checkCoord(Idx, readScalar(I.Src1, S), I.Width, G.Width, "block x");
      checkCoord(Idx, readScalar(I.Src2, S), 1, G.Height, "block y");
    }
  }

  //===--------------------------------------------------------------------===
  // Sync protocol
  //===--------------------------------------------------------------------===

  void checkSync() {
    std::bitset<NumVRegs> XmitRegs, WaitRegs;
    for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
      if (!Graph.reachable(Idx))
        continue;
      if (Code[Idx].Op == Opcode::Xmit)
        XmitRegs.set(Code[Idx].Dst.Reg0);
      if (Code[Idx].Op == Opcode::Wait)
        WaitRegs.set(Code[Idx].Dst.Reg0);
    }

    for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
      if (!Graph.reachable(Idx))
        continue;
      const Instruction &I = Code[Idx];

      if (I.Op == Opcode::Wait) {
        uint8_t R = I.Dst.Reg0;
        if (!XmitRegs.test(R)) {
          Report.warn(Idx,
                      formatString("wait on vr%u: no xmit in this kernel ever "
                                   "signals it (deadlock unless another "
                                   "kernel transmits)",
                                   R));
        } else if (I.PredReg == NoPred) {
          // Self-wait cycle: every matching xmit is behind this wait, so
          // no shred of this kernel can ever perform the signalling xmit.
          std::vector<bool> Reach = Graph.reachableAvoiding(Idx);
          bool XmitAhead = false;
          for (uint32_t J = 0; J < Code.size() && !XmitAhead; ++J)
            XmitAhead = Reach[J] && Code[J].Op == Opcode::Xmit &&
                        Code[J].Dst.Reg0 == R;
          if (!XmitAhead)
            Report.warn(Idx,
                        formatString("wait on vr%u: every matching xmit is "
                                     "behind this wait (self-wait cycle; "
                                     "deadlock unless another kernel "
                                     "transmits)",
                                     R));
        }
      }

      if (I.Op == Opcode::Xmit) {
        AbsVal T = readScalar(I.Src0, Values.in(Idx));
        if (T.Val.Hi < Spec.SidLo) {
          Report.error(Idx, "xmit targets a shred id that is provably "
                            "invalid (ids are 1-based)");
        } else if (T.Val.Lo < Spec.SidLo && T.Val.isBounded() &&
                   !uninformative(T)) {
          std::string Msg = formatString("xmit may target an invalid shred "
                                         "id (range [%lld, %lld])",
                                         static_cast<long long>(T.Val.Lo),
                                         static_cast<long long>(T.Val.Hi));
          if (T.Opaque)
            Report.note(Idx, std::move(Msg));
          else
            Report.warn(Idx, std::move(Msg));
        }
      }

      if (I.Op == Opcode::Spawn && I.PredReg == NoPred &&
          !Graph.reachableAvoiding(Idx)[Graph.exit()]) {
        Report.error(Idx, "every path respawns the kernel unconditionally "
                          "(the shred tree never quiesces)");
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Inter-shred race detection
  //===--------------------------------------------------------------------===

  struct Footprint {
    uint32_t Instr = 0;
    int32_t Slot = 0;
    bool Write = false;
    bool TwoD = false;
    AbsVal A;  ///< 1-D first element, or 2-D block x
    AbsVal B;  ///< 2-D block y (unused for 1-D)
    unsigned Width = 1;
  };

  /// True when accesses [A1 .. A1+W1-1] (in shred a) and
  /// [A2 .. A2+W2-1] (in shred b) can overlap for some pair of distinct
  /// shred ids in the assumed sid range.
  bool mayOverlap(const AbsVal &V1, unsigned W1, const AbsVal &V2,
                  unsigned W2) const {
    if (!V1.Affine || !V2.Affine)
      return true; // no symbolic handle: conservative may-overlap
    if (V1.SidCoef != V2.SidCoef)
      return true; // differently-strided footprints: conservative
    int64_t L1 = V1.Base.Lo, H1 = Range::addEnd(V1.Base.Hi, W1 - 1);
    int64_t L2 = V2.Base.Lo, H2 = Range::addEnd(V2.Base.Hi, W2 - 1);
    int64_t C = V1.SidCoef;
    if (C == 0)
      return Range::of(L1, H1).intersects(Range::of(L2, H2));
    // Spans overlap iff C * (sidA - sidB) lands in [L2 - H1, H2 - L1];
    // the difference d = sidA - sidB of two distinct resident shreds is a
    // nonzero integer with |d| <= SidHi - SidLo.
    int64_t DMax = Spec.SidHi - Spec.SidLo;
    if (DMax <= 0)
      return false; // only one shred id possible: no distinct pair
    Range D = Range::sub(Range::of(L2, H2), Range::of(L1, H1));
    return containsNonzeroMultiple(D.Lo, D.Hi, C < 0 ? -C : C, DMax);
  }

  /// Does [Lo, Hi] contain m*C or -m*C for some integer m in [1, DMax]?
  /// C > 0, DMax > 0; the interval endpoints may be sentinels.
  static bool containsNonzeroMultiple(int64_t Lo, int64_t Hi, int64_t C,
                                      int64_t DMax) {
    auto Positive = [&](int64_t L, int64_t U) {
      // Is there m in [1, DMax] with L <= m*C <= U?
      if (L == Range::PosInf)
        return false; // interval saturated above any feasible multiple
      __int128 MLo = 1;
      if (L != Range::NegInf && L > C)
        MLo = (static_cast<__int128>(L) + C - 1) / C;
      __int128 MHi =
          U == Range::PosInf ? DMax : static_cast<__int128>(U) / C;
      if (MHi > DMax)
        MHi = DMax;
      return MLo <= MHi;
    };
    auto NegEnd = [](int64_t V) {
      if (V == Range::NegInf)
        return Range::PosInf;
      if (V == Range::PosInf)
        return Range::NegInf;
      return -V;
    };
    return Positive(Lo, Hi) || Positive(NegEnd(Hi), NegEnd(Lo));
  }

  void checkRaces() {
    // Footprints that can participate in a race: non-opaque accesses to a
    // surface. Opaque coordinates are partitioned by the dispatch
    // contract (per-shred parameters) and never race by assumption.
    std::vector<Footprint> Foot;
    for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
      if (!Graph.reachable(Idx))
        continue;
      const Instruction &I = Code[Idx];
      bool Is1D = I.Op == Opcode::Ld || I.Op == Opcode::St;
      bool Is2D = I.Op == Opcode::LdBlk || I.Op == Opcode::StBlk;
      if (!Is1D && !Is2D)
        continue;
      Footprint F;
      F.Instr = Idx;
      F.Slot = I.Src0.Imm;
      F.Write = I.Op == Opcode::St || I.Op == Opcode::StBlk;
      F.TwoD = Is2D;
      F.Width = I.Width;
      const AbsState &S = Values.in(Idx);
      if (Is1D) {
        F.A = addVals(readScalar(I.Src1, S), readScalar(I.Src2, S));
        if (F.A.Opaque)
          continue;
      } else {
        F.A = readScalar(I.Src1, S);
        F.B = readScalar(I.Src2, S);
        if (F.A.Opaque || F.B.Opaque)
          continue;
      }
      Foot.push_back(F);
    }
    if (Foot.empty())
      return;

    // Xmit->Wait ordering. A sync register is one that is both xmitted
    // and waited on. WaitBefore[i]: sync registers waited on (without
    // predication) on *every* path from the entry to i. XmitAfter[i]:
    // sync registers xmitted on every path from i to a halt.
    using RegSet = std::bitset<NumVRegs>;
    RegSet Sync;
    {
      RegSet X, W;
      for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
        if (!Graph.reachable(Idx))
          continue;
        if (Code[Idx].Op == Opcode::Xmit && Code[Idx].PredReg == NoPred)
          X.set(Code[Idx].Dst.Reg0);
        if (Code[Idx].Op == Opcode::Wait && Code[Idx].PredReg == NoPred)
          W.set(Code[Idx].Dst.Reg0);
      }
      Sync = X & W;
    }

    std::vector<RegSet> Gen(Code.size()), WaitBefore(Code.size()),
        XmitAfter(Code.size());
    RegSet Universe;
    Universe.set();
    for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
      if (Code[Idx].PredReg != NoPred)
        continue;
      if (Code[Idx].Op == Opcode::Wait && Sync.test(Code[Idx].Dst.Reg0))
        Gen[Idx].set(Code[Idx].Dst.Reg0);
      if (Code[Idx].Op == Opcode::Xmit && Sync.test(Code[Idx].Dst.Reg0))
        Gen[Idx].set(Code[Idx].Dst.Reg0);
    }

    // Forward must-pass for WaitBefore.
    for (uint32_t Idx = 0; Idx < Code.size(); ++Idx)
      WaitBefore[Idx] = Idx == 0 ? RegSet() : Universe;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t Idx = 1; Idx < Code.size(); ++Idx) {
        if (!Graph.reachable(Idx))
          continue;
        RegSet Meet = Universe;
        for (uint32_t P : Graph.preds(Idx))
          if (Code[P].Op == Opcode::Wait)
            Meet &= WaitBefore[P] | Gen[P];
          else
            Meet &= WaitBefore[P];
        if (Meet != WaitBefore[Idx]) {
          WaitBefore[Idx] = Meet;
          Changed = true;
        }
      }
    }

    // Backward must-pass for XmitAfter.
    for (uint32_t Idx = 0; Idx < Code.size(); ++Idx)
      XmitAfter[Idx] = Universe;
    Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t Idx = static_cast<uint32_t>(Code.size()); Idx-- > 0;) {
        if (!Graph.reachable(Idx))
          continue;
        RegSet Meet = Universe;
        for (uint32_t Succ : Graph.succs(Idx)) {
          if (Succ == Graph.exit()) {
            Meet.reset(); // halt or fall-off: no xmit follows
            continue;
          }
          if (Code[Succ].Op == Opcode::Xmit)
            Meet &= XmitAfter[Succ] | Gen[Succ];
          else
            Meet &= XmitAfter[Succ];
        }
        if (Meet != XmitAfter[Idx]) {
          XmitAfter[Idx] = Meet;
          Changed = true;
        }
      }
    }

    auto Ordered = [&](const Footprint &F1, const Footprint &F2) {
      // The static shadow of a happens-before edge: F1's shred xmits a
      // sync register after the access, F2's shred waits on it before.
      return (XmitAfter[F1.Instr] & WaitBefore[F2.Instr]).any() ||
             (XmitAfter[F2.Instr] & WaitBefore[F1.Instr]).any();
    };

    constexpr size_t MaxRaceReports = 16;
    size_t Reported = 0, Suppressed = 0;
    for (size_t A = 0; A < Foot.size(); ++A) {
      for (size_t B = A; B < Foot.size(); ++B) {
        const Footprint &F1 = Foot[A], &F2 = Foot[B];
        if (!F1.Write && !F2.Write)
          continue;
        if (F1.Slot != F2.Slot)
          continue;
        if (F1.TwoD != F2.TwoD)
          continue; // mixed 1-D/2-D aliasing is not modelled
        bool Overlap =
            F1.TwoD ? mayOverlap(F1.A, F1.Width, F2.A, F2.Width) &&
                          mayOverlap(F1.B, 1, F2.B, 1)
                    : mayOverlap(F1.A, F1.Width, F2.A, F2.Width);
        if (!Overlap || Ordered(F1, F2))
          continue;
        if (Reported++ >= MaxRaceReports) {
          ++Suppressed;
          continue;
        }
        const char *Kind = F1.Write && F2.Write ? "write/write" : "read/write";
        if (F1.Instr == F2.Instr)
          Report.warn(F1.Instr,
                      formatString("possible inter-shred %s race: distinct "
                                   "shreds may access overlapping elements "
                                   "of surface slot %d",
                                   Kind, F1.Slot));
        else
          Report.warn(F1.Instr,
                      formatString("possible inter-shred %s race with "
                                   "instruction %u on surface slot %d",
                                   Kind, F2.Instr, F1.Slot));
      }
    }
    if (Suppressed)
      Report.note(NoInstr,
                  formatString("%zu further race report(s) suppressed",
                               Suppressed));
  }

  //===--------------------------------------------------------------------===

  void run() {
    for (uint32_t Idx = 0; Idx < Code.size(); ++Idx) {
      if (!Graph.reachable(Idx))
        continue;
      switch (Code[Idx].Op) {
      case Opcode::Div:
        checkDiv(Idx);
        break;
      case Opcode::Ld:
      case Opcode::St:
      case Opcode::LdBlk:
      case Opcode::StBlk:
      case Opcode::Sample:
        checkMemory(Idx);
        break;
      default:
        break;
      }
    }
    checkSync();
    checkRaces();
  }
};

} // namespace

LintReport xopt::verifyKernel(const std::vector<Instruction> &Code,
                              const VerifySpec &Spec,
                              std::string KernelName) {
  Verifier V(Code, Spec);
  V.Report.Kernel = std::move(KernelName);
  if (!Code.empty())
    V.run();
  return V.Report;
}
