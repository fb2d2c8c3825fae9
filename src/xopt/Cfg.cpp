//===- xopt/Cfg.cpp --------------------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "xopt/Cfg.h"

#include "isa/OpTable.h"

#include <algorithm>
#include <map>
#include <set>

using namespace exochi;
using namespace exochi::isa;
using namespace exochi::xopt;

namespace {

constexpr uint32_t Undef = 0xffffffffu;

} // namespace

UseDef xopt::useDef(const Instruction &I) {
  const OpInfo &Row = opInfo(I.Op);
  const bool Predicated = I.PredReg != NoPred;
  UseDef UD;
  UD.HasSideEffects = Row.SideEffects;
  if (Predicated)
    UD.Use.set(predLoc(I.PredReg));

  auto Add = [](const Operand &O, LocSet &Set) {
    if (O.Kind == OperandKind::Pred)
      Set.set(predLoc(O.Reg0));
    else if (O.isReg())
      for (unsigned R = O.Reg0; R <= O.Reg1; ++R)
        Set.set(R);
  };
  const Operand *Slots[4] = {&I.Dst, &I.Src0, &I.Src1, &I.Src2};
  for (unsigned K = 0; K < 4; ++K) {
    const SlotAccess A = Row.Slots[K].Access;
    // A masked write leaves the disabled lanes' old value: it reads too.
    if (A == SlotAccess::Read || A == SlotAccess::ReadWrite ||
        (A == SlotAccess::Masked && Predicated))
      Add(*Slots[K], UD.Use);
    if (A == SlotAccess::Write || A == SlotAccess::ReadWrite ||
        A == SlotAccess::Masked)
      Add(*Slots[K], UD.Def);
  }
  return UD;
}

std::vector<uint32_t>
xopt::successors(const std::vector<Instruction> &Code, uint32_t Idx) {
  const Instruction &I = Code[Idx];
  std::vector<uint32_t> Out;
  switch (I.Op) {
  case Opcode::Halt:
    return Out;
  case Opcode::Jmp:
    Out.push_back(static_cast<uint32_t>(I.Src0.Imm));
    return Out;
  case Opcode::Br:
    Out.push_back(Idx + 1);
    Out.push_back(static_cast<uint32_t>(I.Src0.Imm));
    return Out;
  default:
    Out.push_back(Idx + 1);
    return Out;
  }
}

std::vector<LocSet> xopt::liveOut(const std::vector<Instruction> &Code) {
  std::vector<LocSet> LiveOut(Code.size());
  std::vector<UseDef> UD;
  UD.reserve(Code.size());
  for (const Instruction &I : Code)
    UD.push_back(useDef(I));

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Idx = static_cast<uint32_t>(Code.size()); Idx-- > 0;) {
      LocSet Out;
      for (uint32_t S : successors(Code, Idx)) {
        if (S >= Code.size())
          continue; // fall-off = halt: nothing live
        // live-in(S) = use(S) | (live-out(S) & ~def(S))
        Out |= UD[S].Use | (LiveOut[S] & ~UD[S].Def);
      }
      if (Out != LiveOut[Idx]) {
        LiveOut[Idx] = Out;
        Changed = true;
      }
    }
  }
  return LiveOut;
}

Cfg::Cfg(const std::vector<Instruction> &Code)
    : N(static_cast<uint32_t>(Code.size())), Succs(N + 1), Preds(N + 1) {
  for (uint32_t Idx = 0; Idx < N; ++Idx) {
    Succs[Idx] = successors(Code, Idx);
    if (Succs[Idx].empty())
      Succs[Idx].push_back(N);
    for (uint32_t &T : Succs[Idx])
      T = std::min(T, N);
  }
  Reach = reachableAvoiding(Undef); // Undef is no node: nothing is cut out
  for (uint32_t Idx = 0; Idx < N; ++Idx)
    if (Reach[Idx])
      for (uint32_t S : Succs[Idx])
        Preds[S].push_back(Idx);
  computeDominators();
  findLoops();
}

std::vector<bool> Cfg::reachableAvoiding(uint32_t Skip) const {
  std::vector<bool> R(N + 1, false);
  if (Skip == 0)
    return R;
  R[0] = true;
  std::vector<uint32_t> Stack{0};
  while (!Stack.empty()) {
    uint32_t Idx = Stack.back();
    Stack.pop_back();
    for (uint32_t S : Succs[Idx])
      if (S != Skip && !R[S]) {
        R[S] = true;
        Stack.push_back(S);
      }
  }
  return R;
}

/// Cooper-Harvey-Kennedy iterative dominators over the reverse postorder
/// of a depth-first walk from the entry.
void Cfg::computeDominators() {
  RpoNum.assign(N + 1, Undef);
  std::vector<uint32_t> Post;
  std::vector<std::pair<uint32_t, size_t>> Stack{{0, 0}};
  std::vector<bool> Visited(N + 1, false);
  Visited[0] = true;
  while (!Stack.empty()) {
    auto &[Idx, Pos] = Stack.back();
    if (Pos < Succs[Idx].size()) {
      uint32_t S = Succs[Idx][Pos++];
      if (!Visited[S]) {
        Visited[S] = true;
        Stack.push_back({S, 0});
      }
    } else {
      Post.push_back(Idx);
      Stack.pop_back();
    }
  }
  std::vector<uint32_t> Rpo(Post.rbegin(), Post.rend());
  for (uint32_t K = 0; K < Rpo.size(); ++K)
    RpoNum[Rpo[K]] = K;

  Idom.assign(N + 1, Undef);
  Idom[0] = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Node : Rpo) {
      if (Node == 0)
        continue;
      uint32_t NewIdom = Undef;
      for (uint32_t P : Preds[Node]) {
        if (Idom[P] == Undef)
          continue;
        NewIdom = NewIdom == Undef ? P : intersect(P, NewIdom);
      }
      if (NewIdom != Undef && Idom[Node] != NewIdom) {
        Idom[Node] = NewIdom;
        Changed = true;
      }
    }
  }
}

uint32_t Cfg::intersect(uint32_t A, uint32_t B) const {
  while (A != B) {
    while (RpoNum[A] > RpoNum[B])
      A = Idom[A];
    while (RpoNum[B] > RpoNum[A])
      B = Idom[B];
  }
  return A;
}

bool Cfg::dominates(uint32_t A, uint32_t B) const {
  if (Idom[B] == Undef)
    return false;
  while (true) {
    if (A == B)
      return true;
    if (B == 0)
      return false;
    B = Idom[B];
  }
}

void Cfg::findLoops() {
  std::map<uint32_t, std::set<uint32_t>> Bodies;
  for (uint32_t U = 0; U < N; ++U) {
    if (!Reach[U])
      continue;
    for (uint32_t H : Succs[U]) {
      if (H == N || RpoNum[H] > RpoNum[U])
        continue; // forward edge
      if (!dominates(H, U)) {
        Irreducible.push_back({U, H});
        continue;
      }
      // Natural loop of back edge U -> H: all nodes reaching U without
      // passing H.
      std::set<uint32_t> &B = Bodies[H];
      B.insert(H);
      std::vector<uint32_t> Stack;
      if (B.insert(U).second)
        Stack.push_back(U);
      while (!Stack.empty()) {
        uint32_t Node = Stack.back();
        Stack.pop_back();
        for (uint32_t P : Preds[Node])
          if (B.insert(P).second)
            Stack.push_back(P);
      }
    }
  }
  for (auto &[H, B] : Bodies)
    Loops.push_back({H, std::vector<uint32_t>(B.begin(), B.end())});
  // Innermost first: a nested loop's body is a strict subset, so sort
  // by body size (equal sizes are disjoint loops; order irrelevant).
  std::sort(Loops.begin(), Loops.end(),
            [](const NaturalLoop &A, const NaturalLoop &B) {
              return A.Body.size() < B.Body.size();
            });
}
