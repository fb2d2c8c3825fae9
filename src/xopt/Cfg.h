//===- xopt/Cfg.h - Control-flow graph over XGMA kernels -------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control-flow graph of a decoded XGMA kernel and the per-instruction
/// use/def sets. Registers are numbered 0..127 (vr) and 128..143 (p).
///
/// Every graph walk the xopt passes need lives here, so each is written
/// once: reachability (also with one instruction cut out), predecessor
/// lists, reverse-postorder dominators and natural loops (Cfg), plus the
/// backward liveness fixpoint (liveOut). The lint, XVerify and XCost
/// build one Cfg per kernel and read it.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_XOPT_CFG_H
#define EXOCHI_XOPT_CFG_H

#include "isa/Isa.h"

#include <bitset>
#include <cstdint>
#include <utility>
#include <vector>

namespace exochi {
namespace xopt {

/// One bit per vector register plus one per predicate register.
constexpr unsigned NumLocs = isa::NumVRegs + isa::NumPRegs;
using LocSet = std::bitset<NumLocs>;

/// Location index of predicate register \p P.
constexpr unsigned predLoc(unsigned P) { return isa::NumVRegs + P; }

/// Registers read / written by one instruction. Predicated or
/// accumulating destinations (partial writes) appear in both sets.
struct UseDef {
  LocSet Use;
  LocSet Def;
  /// True when the instruction has effects beyond its register writes
  /// (memory, control flow, thread ops, possible faults): it must never
  /// be removed by dead-code elimination.
  bool HasSideEffects = false;
};

/// Computes the use/def sets of \p I.
UseDef useDef(const isa::Instruction &I);

/// Successor instruction indices of instruction \p Idx within \p Code
/// (empty after halt; the one-past-the-end index models fall-off, which
/// the device treats as halt).
std::vector<uint32_t> successors(const std::vector<isa::Instruction> &Code,
                                 uint32_t Idx);

/// Per-instruction liveness (live-out sets), computed by a backward
/// fixpoint over the instruction-level CFG. Live-out at halt/fall-off is
/// empty: an exo-sequencer's registers are not architecturally visible
/// after the shred retires.
std::vector<LocSet> liveOut(const std::vector<isa::Instruction> &Code);

/// A natural loop. Back edges that share a header are merged into one.
struct NaturalLoop {
  uint32_t Header = 0;
  /// Sorted instruction indices, header included.
  std::vector<uint32_t> Body;
};

/// The instruction-level graph of one kernel. Node i is instruction i;
/// node N (one past the last instruction) is a virtual exit that halt,
/// fall-off and jumps past the end all lead to. Everything is computed
/// on construction.
class Cfg {
public:
  explicit Cfg(const std::vector<isa::Instruction> &Code);

  /// The virtual exit node.
  uint32_t exit() const { return N; }
  /// Successors of instruction \p Idx, in successors() order, with every
  /// index past the end (and halt's empty list) mapped to exit().
  const std::vector<uint32_t> &succs(uint32_t Idx) const {
    return Succs[Idx];
  }
  /// Reachable predecessors of \p Node, one entry per edge.
  const std::vector<uint32_t> &preds(uint32_t Node) const {
    return Preds[Node];
  }
  /// \p Node is reachable from the entry.
  bool reachable(uint32_t Node) const { return Reach[Node]; }
  /// Nodes reachable from the entry without executing \p Skip (none
  /// when \p Skip is the entry itself). exit() is among them when a
  /// shred can retire while avoiding \p Skip.
  std::vector<bool> reachableAvoiding(uint32_t Skip) const;

  /// \p A dominates \p B; false when \p B is unreachable.
  bool dominates(uint32_t A, uint32_t B) const;
  /// Natural loops, innermost first.
  const std::vector<NaturalLoop> &loops() const { return Loops; }
  /// Retreating edges (source, target) whose target does not dominate
  /// the source, in source order. Any such edge makes the graph
  /// irreducible; such an edge forms no loop.
  const std::vector<std::pair<uint32_t, uint32_t>> &
  irreducibleEdges() const {
    return Irreducible;
  }

private:
  void computeDominators();
  void findLoops();
  uint32_t intersect(uint32_t A, uint32_t B) const;

  uint32_t N;
  std::vector<std::vector<uint32_t>> Succs;
  std::vector<std::vector<uint32_t>> Preds;
  std::vector<bool> Reach;
  std::vector<uint32_t> RpoNum;
  std::vector<uint32_t> Idom;
  std::vector<NaturalLoop> Loops;
  std::vector<std::pair<uint32_t, uint32_t>> Irreducible;
};

} // namespace xopt
} // namespace exochi

#endif // EXOCHI_XOPT_CFG_H
