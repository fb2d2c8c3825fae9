//===- xopt/Cost.cpp - XCost: static cycle-cost analysis -------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "xopt/Cost.h"

#include "isa/Decoded.h"
#include "isa/OpTable.h"
#include "support/Format.h"
#include "xopt/Cfg.h"
#include "xopt/Values.h"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <set>

using namespace exochi;
using namespace exochi::xopt;
using isa::Instruction;
using isa::Opcode;
using isa::Operand;
using isa::OperandKind;

namespace {

constexpr int64_t I32Min = INT32_MIN;
constexpr int64_t I32Max = INT32_MAX;

/// An interval endpoint at or beyond the int32 extremes carries no real
/// information (it is the "don't know" default of the register domain),
/// so trip-count math must not build finite bounds from it.
bool vagueLo(int64_t V) { return V <= I32Min; }
bool vagueHi(int64_t V) { return V >= I32Max; }

/// Issue cost of \p I in integer half-cycle units. The cycle model
/// charges in multiples of 0.5 EU cycles; integers keep path sums exact.
int64_t halfCycles(const Instruction &I) {
  return llround(isa::decodedIssueCycles(I) * 2.0);
}

/// ceil(A / B) for B > 0 without overflow on the int32-derived operands.
int64_t ceilDiv(int64_t A, int64_t B) {
  return A > 0 ? (A + B - 1) / B : -(-A / B);
}

/// floor(A / B) for B > 0.
int64_t floorDiv(int64_t A, int64_t B) {
  return A >= 0 ? A / B : -((-A + B - 1) / B);
}

/// The whole-kernel cost analysis, run once per analyzeCost call.
class CostAnalysis {
public:
  CostAnalysis(const std::vector<Instruction> &Code, const VerifySpec &Spec,
               CostReport &R)
      : Code(Code), Spec(Spec), N(static_cast<uint32_t>(Code.size())), R(R),
        G(Code) {}

  void run() {
    checkSyncAndSpawn();
    for (auto [U, H] : G.irreducibleEdges()) {
      R.Reducible = false;
      R.Diags.warn(U, formatString("cost unbounded: irreducible control "
                                   "flow (retreating edge to pc %u whose "
                                   "target does not dominate the jump)",
                                   H));
    }
    if (!R.Reducible) {
      R.ShredHalfCycles = Range::of(0, Range::PosInf);
      return;
    }
    Values.emplace(Code, G, Spec);
    collapseLoopsAndBound();
    if (!R.StallsProven)
      R.ShredHalfCycles.Hi = Range::PosInf;
  }

private:
  void checkSyncAndSpawn() {
    std::bitset<isa::NumVRegs> XmitRegs;
    for (uint32_t Idx = 0; Idx < N; ++Idx)
      if (G.reachable(Idx) && Code[Idx].Op == Opcode::Xmit)
        XmitRegs.set(Code[Idx].Dst.Reg0);
    for (uint32_t Idx = 0; Idx < N; ++Idx) {
      if (!G.reachable(Idx))
        continue;
      const Instruction &I = Code[Idx];
      if (I.Op == Opcode::Wait && !XmitRegs.test(I.Dst.Reg0)) {
        R.StallsProven = false;
        R.Diags.warn(Idx,
                     formatString("cost unbounded: wait on vr%u has no "
                                  "matching xmit in the kernel, so the stall "
                                  "is not provably bounded",
                                  unsigned(I.Dst.Reg0)));
      }
      if (I.Op == Opcode::Spawn && !R.SpawnsChildren) {
        R.SpawnsChildren = true;
        R.Diags.note(Idx, "spawn enqueues child shreds: per-shred bounds "
                          "hold per child, but the dispatch spec does not "
                          "constrain child parameters");
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Loop collapsing + path bounds
  //===--------------------------------------------------------------------===//

  void collapseLoopsAndBound() {
    Alive.assign(N + 1, false);
    LoopNode.assign(N + 1, false);
    Weight.assign(N + 1, Range::point(0));
    CurSuccs.assign(N + 1, {});
    for (uint32_t Idx = 0; Idx <= N; ++Idx) {
      if (!G.reachable(Idx))
        continue;
      Alive[Idx] = true;
      if (Idx < N) {
        Weight[Idx] = Range::point(halfCycles(Code[Idx]));
        for (uint32_t S : G.succs(Idx))
          CurSuccs[Idx].insert(S);
      }
    }

    for (const NaturalLoop &L : G.loops())
      collapseLoop(L);

    // Entry-to-exit min/max path over the final DAG.
    std::vector<int64_t> DistLo, DistHi;
    if (!dagDistances(collectAlive(), 0, DistLo, DistHi)) {
      // Should be unreachable for reducible graphs; degrade soundly.
      R.ShredHalfCycles = Range::of(0, Range::PosInf);
      R.Diags.warn(NoInstr, "cost unbounded: residual cycle after loop "
                            "collapsing");
      return;
    }
    int64_t Lo = DistLo[N], Hi = DistHi[N];
    if (Lo == Range::PosInf) {
      // No entry-to-exit path survives: every path enters a loop that
      // never exits. The (already-diagnosed) unbounded verdict stands;
      // the trivial lower bound is all we can say about a shred that
      // never retires.
      Lo = 0;
      Hi = Range::PosInf;
    }
    // A shred entering an exitless loop never retires (see collapseLoop).
    if (Trapped)
      Hi = Range::PosInf;
    R.ShredHalfCycles = Range::of(std::max<int64_t>(Lo, 0), Hi);
  }

  std::vector<uint32_t> collectAlive() const {
    std::vector<uint32_t> Nodes;
    for (uint32_t Idx = 0; Idx <= N; ++Idx)
      if (Alive[Idx])
        Nodes.push_back(Idx);
    return Nodes;
  }

  /// Shortest/longest path node weights from \p Start over the current
  /// (collapsed) graph restricted to \p Nodes; false when not a DAG.
  /// Dist*[n] includes both endpoints' weights; unreached nodes get
  /// {PosInf, NegInf}.
  bool dagDistances(const std::vector<uint32_t> &Nodes, uint32_t Start,
                    std::vector<int64_t> &DistLo,
                    std::vector<int64_t> &DistHi,
                    const std::set<uint32_t> *Restrict = nullptr,
                    uint32_t ExcludeEdgesTo = NoInstr) const {
    std::vector<bool> InSet(N + 1, false);
    for (uint32_t Node : Nodes)
      InSet[Node] = true;
    auto edgeOk = [&](uint32_t To) {
      return To != ExcludeEdgesTo && InSet[To] &&
             (!Restrict || Restrict->count(To));
    };
    // Kahn topological sort.
    std::vector<uint32_t> InDeg(N + 1, 0);
    for (uint32_t Node : Nodes)
      for (uint32_t S : CurSuccs[Node])
        if (edgeOk(S))
          ++InDeg[S];
    std::deque<uint32_t> Ready;
    for (uint32_t Node : Nodes)
      if (InDeg[Node] == 0)
        Ready.push_back(Node);
    std::vector<uint32_t> Topo;
    while (!Ready.empty()) {
      uint32_t Node = Ready.front();
      Ready.pop_front();
      Topo.push_back(Node);
      for (uint32_t S : CurSuccs[Node])
        if (edgeOk(S) && --InDeg[S] == 0)
          Ready.push_back(S);
    }
    if (Topo.size() != Nodes.size())
      return false;
    DistLo.assign(N + 1, Range::PosInf);
    DistHi.assign(N + 1, Range::NegInf);
    DistLo[Start] = Weight[Start].Lo;
    DistHi[Start] = Weight[Start].Hi;
    for (uint32_t Node : Topo) {
      if (DistLo[Node] == Range::PosInf && DistHi[Node] == Range::NegInf)
        continue; // unreached from Start
      for (uint32_t S : CurSuccs[Node]) {
        if (!edgeOk(S))
          continue;
        if (DistLo[Node] != Range::PosInf)
          DistLo[S] = std::min(DistLo[S],
                               Range::addEnd(DistLo[Node], Weight[S].Lo));
        if (DistHi[Node] != Range::NegInf)
          DistHi[S] = std::max(DistHi[S],
                               Range::addEnd(DistHi[Node], Weight[S].Hi));
      }
    }
    return true;
  }

  void collapseLoop(const NaturalLoop &L) {
    const uint32_t H = L.Header;
    if (!Alive[H])
      return; // body of an irreducible mess; defensive
    std::set<uint32_t> BodySet(L.Body.begin(), L.Body.end());
    std::vector<uint32_t> Active;
    for (uint32_t Node : L.Body)
      if (Alive[Node])
        Active.push_back(Node);

    // Per-iteration and exit-path bounds: distances from the header over
    // the body with back edges (edges into H) removed.
    std::vector<int64_t> DLo, DHi;
    bool IsDag = dagDistances(Active, H, DLo, DHi, &BodySet, /*exclude*/ H);

    int64_t IterLo = Range::PosInf, IterHi = Range::NegInf;
    for (uint32_t U : Active)
      if (CurSuccs[U].count(H)) { // latch in the current graph
        if (DLo[U] != Range::PosInf)
          IterLo = std::min(IterLo, DLo[U]);
        IterHi = std::max(IterHi, DHi[U]);
      }

    // Exit edges: from an active body node to outside the body.
    std::set<uint32_t> ExitTargets;
    int64_t ExitLo = Range::PosInf, ExitHi = Range::NegInf;
    for (uint32_t U : Active)
      for (uint32_t T : CurSuccs[U])
        if (!BodySet.count(T)) {
          ExitTargets.insert(T);
          if (DLo[U] != Range::PosInf)
            ExitLo = std::min(ExitLo, DLo[U]);
          ExitHi = std::max(ExitHi, DHi[U]);
        }

    LoopBound LB;
    LB.Header = H;
    LB.BodySize = static_cast<uint32_t>(L.Body.size());
    if (IsDag)
      inferTripBounds(L, BodySet, Active, LB);
    else {
      LB.TripHi = Range::PosInf;
      R.Diags.warn(H, "cost unbounded: loop body is not acyclic after "
                      "collapsing inner loops");
    }

    if (!LB.bounded())
      R.Diags.warn(H, formatString("cost unbounded: cannot bound the trip "
                                   "count of the loop at pc %u", H));
    else
      R.Diags.note(H, formatString("loop at pc %u: %lld..%lld iterations "
                                   "per entry",
                                   H, (long long)LB.TripLo,
                                   (long long)LB.TripHi));
    R.Loops.push_back(LB);

    // Collapsed weight: (T-1) full iterations ending at a latch plus one
    // final partial iteration ending at an exit source.
    int64_t WLo = 0, WHi = Range::PosInf;
    if (ExitTargets.empty()) {
      // No way out: a shred entering the loop never retires. The header
      // keeps the one-iteration lower weight and no successors; paths
      // through it simply never reach the exit node. A reachable node that
      // cannot reach the exit always leads into such a loop (in a reducible
      // graph its terminal cycle is a natural loop without exit edges).
      Trapped = true;
      WLo = IterLo == Range::PosInf ? Weight[H].Lo : IterLo;
    } else {
      int64_t FullLo =
          Range::mulEnd(std::max<int64_t>(LB.TripLo - 1, 0),
                        IterLo == Range::PosInf ? 0 : IterLo);
      WLo = Range::addEnd(FullLo, ExitLo == Range::PosInf ? 0 : ExitLo);
      if (LB.bounded() && IterHi != Range::NegInf && ExitHi != Range::NegInf)
        WHi = Range::addEnd(Range::mulEnd(LB.TripHi - 1, IterHi), ExitHi);
    }

    // Rewire: the header now stands for the whole loop.
    for (uint32_t Node : L.Body)
      if (Node != H)
        Alive[Node] = false;
    Weight[H] = Range::of(std::max<int64_t>(WLo, 0), WHi);
    LoopNode[H] = true;
    CurSuccs[H].clear();
    for (uint32_t T : ExitTargets)
      CurSuccs[H].insert(T);
  }

  //===--------------------------------------------------------------------===//
  // Affine trip-count inference
  //===--------------------------------------------------------------------===//

  /// Negate a comparison relation.
  static isa::CmpOp negateRel(isa::CmpOp C) {
    switch (C) {
    case isa::CmpOp::Eq:
      return isa::CmpOp::Ne;
    case isa::CmpOp::Ne:
      return isa::CmpOp::Eq;
    case isa::CmpOp::Lt:
      return isa::CmpOp::Ge;
    case isa::CmpOp::Le:
      return isa::CmpOp::Gt;
    case isa::CmpOp::Gt:
      return isa::CmpOp::Le;
    case isa::CmpOp::Ge:
      return isa::CmpOp::Lt;
    }
    return C;
  }

  /// Mirror a relation across its operands (a REL b -> b REL' a).
  static isa::CmpOp swapRel(isa::CmpOp C) {
    switch (C) {
    case isa::CmpOp::Lt:
      return isa::CmpOp::Gt;
    case isa::CmpOp::Le:
      return isa::CmpOp::Ge;
    case isa::CmpOp::Gt:
      return isa::CmpOp::Lt;
    case isa::CmpOp::Ge:
      return isa::CmpOp::Le;
    default:
      return C;
    }
  }

  struct ExitTrip {
    bool Analyzed = false;
    int64_t Lo = 1;
    int64_t Hi = Range::PosInf;
  };

  void inferTripBounds(const NaturalLoop &L, const std::set<uint32_t> &BodySet,
                       const std::vector<uint32_t> &Active, LoopBound &LB) {
    int64_t TripHi = Range::PosInf;
    int64_t TripLo = Range::PosInf;
    bool AnyExit = false;
    for (uint32_t U : Active) {
      for (uint32_t T : CurSuccs[U]) {
        if (BodySet.count(T))
          continue;
        AnyExit = true;
        ExitTrip E = analyzeExit(L, BodySet, U);
        if (E.Analyzed) {
          TripHi = std::min(TripHi, E.Hi);
          TripLo = std::min(TripLo, E.Lo);
        } else {
          TripLo = 1; // could leave at the first opportunity
        }
        break; // one analysis per exit source
      }
    }
    if (!AnyExit) {
      LB.TripLo = 1;
      LB.TripHi = Range::PosInf;
      return;
    }
    LB.TripLo = std::max<int64_t>(TripLo == Range::PosInf ? 1 : TripLo, 1);
    LB.TripHi = TripHi == Range::PosInf
                    ? Range::PosInf
                    : std::max<int64_t>(TripHi, LB.TripLo);
  }

  /// Tries to bound how many body executions can precede the exit taken
  /// at branch \p U of loop \p L.
  ExitTrip analyzeExit(const NaturalLoop &L, const std::set<uint32_t> &BodySet,
                       uint32_t U) {
    ExitTrip Fail;
    const Instruction &BrI = Code[U];
    if (BrI.Op != Opcode::Br || LoopNode[U])
      return Fail;
    // The check counts iterations only if every iteration runs it: back
    // edges that share a header form one loop, and a latch the branch
    // does not dominate starts iterations that skip it.
    for (uint32_t P : G.preds(L.Header))
      if (BodySet.count(P) && !G.dominates(U, P))
        return Fail;

    // Find the comparison that produced the branch predicate: walk the
    // unique straight-line chain backwards (each step must be the sole
    // predecessor fall-through) until the defining Cmp. Only Cmp writes
    // predicate registers, so the first match is the reaching def.
    uint32_t CmpIdx = NoInstr;
    std::set<uint32_t> ChainAfterCmp; // nodes strictly between cmp and br
    uint32_t Cur = U;
    while (Cur > 0) {
      uint32_t P = Cur - 1;
      if (G.preds(Cur).size() != 1 || G.preds(Cur)[0] != P)
        break;
      if (!Alive[P] || LoopNode[P] || !BodySet.count(P))
        break;
      const Instruction &PI = Code[P];
      if (PI.Op == Opcode::Cmp && PI.Dst.Reg0 == BrI.PredReg) {
        if (PI.PredReg == isa::NoPred && PI.Width == 1)
          CmpIdx = P;
        break;
      }
      ChainAfterCmp.insert(P);
      Cur = P;
    }
    if (CmpIdx == NoInstr)
      return Fail;
    const Instruction &CmpI = Code[CmpIdx];

    // Which comparison operand is the induction register? Try both.
    for (int Side = 0; Side < 2; ++Side) {
      const Operand &IndO = Side == 0 ? CmpI.Src0 : CmpI.Src1;
      const Operand &LimO = Side == 0 ? CmpI.Src1 : CmpI.Src0;
      if (!IndO.isReg() || IndO.regCount() != 1)
        continue;
      unsigned R = IndO.Reg0;

      // The induction register must have exactly one def in the *whole*
      // original loop body, an unpredicated scalar add/sub of a nonzero
      // immediate, executing exactly once per iteration (it dominates
      // the exit branch) and not hidden inside a collapsed inner loop.
      uint32_t DefIdx = NoInstr;
      bool MultiDef = false;
      for (uint32_t Node : L.Body) {
        if (Node >= N)
          continue;
        if (useDef(Code[Node]).Def.test(R)) {
          if (DefIdx != NoInstr)
            MultiDef = true;
          DefIdx = Node;
        }
      }
      if (MultiDef || DefIdx == NoInstr)
        continue;
      if (!Alive[DefIdx] || LoopNode[DefIdx] || !G.dominates(DefIdx, U))
        continue;
      int64_t Step = inductionStep(Code[DefIdx], R);
      if (Step == 0)
        continue;

      // The limit must be loop-invariant: an immediate or a register
      // with no def anywhere in the body.
      Range Lim;
      if (LimO.Kind == OperandKind::Imm) {
        Lim = Range::point(LimO.Imm);
      } else if (LimO.isReg() && LimO.regCount() == 1) {
        bool Invariant = true;
        for (uint32_t Node : L.Body)
          if (Node < N && useDef(Code[Node]).Def.test(LimO.Reg0))
            Invariant = false;
        if (!Invariant)
          continue;
        Lim = readScalar(LimO, Values->in(CmpIdx)).Val;
      } else {
        continue;
      }

      // Init range: the induction register's value on every loop entry
      // edge (predecessors of the header outside the body).
      Range Init;
      bool HaveInit = false;
      for (uint32_t P : G.preds(L.Header)) {
        if (BodySet.count(P) || !G.reachable(P))
          continue;
        Range V = readScalar(IndO, Values->out(P)).Val;
        Init = HaveInit ? Range::hull(Init, V) : V;
        HaveInit = true;
      }
      if (L.Header == 0) {
        Range V = readScalar(IndO, Values->entry()).Val;
        Init = HaveInit ? Range::hull(Init, V) : V;
        HaveInit = true;
      }
      if (!HaveInit)
        continue;

      // Canonical continue-relation: `r REL lim` holds iff the execution
      // stays in the loop after this check.
      bool TakenInBody = BodySet.count(
          static_cast<uint32_t>(BrI.Src0.Imm)); // label operand
      uint32_t Fall = U + 1;
      bool FallInBody = Fall < N && BodySet.count(Fall);
      if (TakenInBody == FallInBody)
        return Fail; // both leave (or a non-exit edge slipped through)
      isa::CmpOp Rel = CmpI.Cmp;
      if (Side == 1)
        Rel = swapRel(Rel);
      bool ContinueOnTrue = TakenInBody != BrI.PredNegate;
      if (!ContinueOnTrue)
        Rel = negateRel(Rel);

      // Does the increment execute before the comparison reads r within
      // one iteration? If the def sits on the straight-line chain between
      // the cmp and the branch it runs after the check (Delta = 0:
      // check k sees init + (k-1)*step); otherwise before (Delta = 1).
      int64_t Delta = ChainAfterCmp.count(DefIdx) ? 0 : 1;

      ExitTrip E = tripFromRelation(Rel, Step, Delta, Init, Lim);
      if (E.Analyzed)
        return E;
    }
    return Fail;
  }

  /// Step of `add r = r, c` / `add r = c, r` / `sub r = r, c` forms
  /// (scalar, unpredicated); 0 when not an induction update.
  static int64_t inductionStep(const Instruction &I, unsigned R) {
    if (I.PredReg != isa::NoPred || I.Width != 1)
      return 0;
    if (!I.Dst.isReg() || I.Dst.regCount() != 1 || I.Dst.Reg0 != R)
      return 0;
    if (!isIntType(I.Ty))
      return 0;
    auto isRegR = [R](const Operand &O) {
      return O.isReg() && O.regCount() == 1 && O.Reg0 == R;
    };
    if (I.Op == Opcode::Add) {
      if (isRegR(I.Src0) && I.Src1.Kind == OperandKind::Imm)
        return I.Src1.Imm;
      if (I.Src0.Kind == OperandKind::Imm && isRegR(I.Src1))
        return I.Src0.Imm;
    } else if (I.Op == Opcode::Sub) {
      if (isRegR(I.Src0) && I.Src1.Kind == OperandKind::Imm)
        return -static_cast<int64_t>(I.Src1.Imm);
    }
    return 0;
  }

  /// Trip bounds for: induction r starts in Init, moves by Step once per
  /// iteration, and the loop continues after check k iff
  /// `(Init + (k - 1 + Delta) * Step) Rel Lim`. The k of the first
  /// failing check equals the number of body executions.
  ExitTrip tripFromRelation(isa::CmpOp Rel, int64_t Step, int64_t Delta,
                            const Range &Init, const Range &Lim) const {
    ExitTrip E;
    auto finish = [&](int64_t Lo, int64_t Hi) {
      E.Analyzed = true;
      E.Lo = std::max<int64_t>(Lo, 1);
      E.Hi = Hi == Range::PosInf ? Hi : std::max(Hi, E.Lo);
    };
    // Offset so r at check k is Init + (k - Off) * Step.
    int64_t Off = 1 - Delta;
    bool HiVagueUp = vagueHi(Lim.Hi) || vagueLo(Init.Lo);
    bool LoVagueUp = vagueLo(Lim.Lo) || vagueHi(Init.Hi);
    bool HiVagueDn = vagueLo(Lim.Lo) || vagueHi(Init.Hi);
    bool LoVagueDn = vagueHi(Lim.Hi) || vagueLo(Init.Lo);

    if (Step > 0) {
      switch (Rel) {
      case isa::CmpOp::Lt:
        finish(LoVagueUp ? 1 : ceilDiv(Lim.Lo - Init.Hi, Step) + Off,
               HiVagueUp ? Range::PosInf
                         : ceilDiv(Lim.Hi - Init.Lo, Step) + Off);
        return E;
      case isa::CmpOp::Le:
        finish(LoVagueUp ? 1 : floorDiv(Lim.Lo - Init.Hi, Step) + 1 + Off,
               HiVagueUp ? Range::PosInf
                         : floorDiv(Lim.Hi - Init.Lo, Step) + 1 + Off);
        return E;
      case isa::CmpOp::Ne:
        // Counted-to-equality: sound only for unit steps that provably
        // start below the limit (otherwise the counter may step over it).
        if (Step == 1 && !vagueLo(Lim.Lo) && !vagueHi(Init.Hi) &&
            Lim.Lo - Init.Hi >= 1 - Off) {
          finish(LoVagueUp ? 1 : Lim.Lo - Init.Hi + Off,
                 HiVagueUp ? Range::PosInf : Lim.Hi - Init.Lo + Off);
          return E;
        }
        break;
      case isa::CmpOp::Eq:
        // Continue-while-equal with a moving counter fails within two
        // checks: consecutive values differ, so at most one can match.
        finish(1, 2);
        return E;
      default:
        break; // Gt/Ge with a growing counter: possibly infinite
      }
    } else { // Step < 0
      int64_t S = -Step;
      switch (Rel) {
      case isa::CmpOp::Gt:
        finish(LoVagueDn ? 1 : ceilDiv(Init.Lo - Lim.Hi, S) + Off,
               HiVagueDn ? Range::PosInf
                         : ceilDiv(Init.Hi - Lim.Lo, S) + Off);
        return E;
      case isa::CmpOp::Ge:
        finish(LoVagueDn ? 1 : floorDiv(Init.Lo - Lim.Hi, S) + 1 + Off,
               HiVagueDn ? Range::PosInf
                         : floorDiv(Init.Hi - Lim.Lo, S) + 1 + Off);
        return E;
      case isa::CmpOp::Ne:
        if (S == 1 && !vagueLo(Init.Lo) && !vagueHi(Lim.Hi) &&
            Init.Lo - Lim.Hi >= 1 - Off) {
          finish(LoVagueDn ? 1 : Init.Lo - Lim.Hi + Off,
                 HiVagueDn ? Range::PosInf : Init.Hi - Lim.Lo + Off);
          return E;
        }
        break;
      case isa::CmpOp::Eq:
        finish(1, 2);
        return E;
      default:
        break; // Lt/Le with a shrinking counter: possibly infinite
      }
    }
    // Recognized induction but an unboundable relation: the exit may
    // still fire immediately, so Lo = 1, Hi unknown.
    E.Analyzed = true;
    E.Lo = 1;
    E.Hi = Range::PosInf;
    return E;
  }

  const std::vector<Instruction> &Code;
  const VerifySpec &Spec;
  const uint32_t N; ///< instruction count; node N is the exit
  CostReport &R;
  const Cfg G;
  /// Run only for reducible graphs.
  std::optional<KernelValues> Values;

  // Collapsed-graph state.
  std::vector<bool> Alive;
  std::vector<bool> LoopNode;
  /// Some reachable loop has no exit edge.
  bool Trapped = false;
  std::vector<Range> Weight;
  std::vector<std::set<uint32_t>> CurSuccs;
};

} // namespace

double CostReport::maxCycles() const {
  if (!bounded())
    return std::numeric_limits<double>::infinity();
  return static_cast<double>(ShredHalfCycles.Hi) / 2.0;
}

double CostReport::dispatchMinCycles(uint64_t NumShreds,
                                     unsigned NumEus) const {
  if (NumShreds == 0)
    return 0;
  uint64_t Eus = std::max(NumEus, 1u);
  uint64_t PerEu = (NumShreds + Eus - 1) / Eus;
  return static_cast<double>(PerEu) * minCycles();
}

CostReport xopt::analyzeCost(const std::vector<Instruction> &Code,
                             const VerifySpec &Spec, std::string KernelName) {
  CostReport R;
  R.Kernel = KernelName;
  R.Diags.Kernel = std::move(KernelName);
  if (Code.empty())
    return R; // zero instructions, zero cycles (lint flags empty kernels)
  CostAnalysis(Code, Spec, R).run();
  return R;
}

std::string xopt::costTableMarkdown() {
  std::string S;
  S += "| op | issue cycles (width <= 8) | issue cycles (width > 8) |\n";
  S += "|----|---------------------------|--------------------------|\n";
  for (const isa::OpInfo &Row : isa::OpTable) {
    Instruction I;
    I.Op = Row.Op;
    I.Width = 1;
    double Narrow = isa::decodedIssueCycles(I);
    if (Row.WidthType) {
      I.Width = 16;
      double Wide = isa::decodedIssueCycles(I);
      S += formatString("| %s | %g | %g |\n", Row.Name, Narrow, Wide);
    } else {
      S += formatString("| %s | %g | n/a |\n", Row.Name, Narrow);
    }
  }
  return S;
}
