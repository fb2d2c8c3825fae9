//===- xopt/Cost.h - XCost: static cycle-cost analysis ---------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// XCost, the static per-kernel cycle-cost analyzer (DESIGN.md §15). It
/// bounds the issue-cycle cost of one shred executing a kernel:
///
///  1. The natural loops of the xopt::Cfg instruction graph, innermost
///     first (reverse-postorder dominators and back edges live in Cfg;
///     irreducible control flow is detected there and reported here).
///
///  2. Affine loop-bound inference: a loop whose exit branch tests a
///     single-register induction variable (`add/sub r = r, imm`) against
///     a loop-invariant limit gets `[TripLo, TripHi]` trip bounds. The
///     limit and start values come from the value analysis XVerify reads
///     too (xopt::KernelValues), under the same VerifySpec: parameter
///     ranges and the sid range sharpen both passes alike.
///
///  3. A per-opcode cost model taken verbatim from the cycle
///     interpreter's charging rule (isa::decodedIssueCycles): every
///     executed instruction — predicated off or not — charges its issue
///     cost, so a path's cost is the sum of its instructions' costs and
///     a kernel's cost is bounded by the min/max-weight entry-to-exit
///     path of the loop-collapsed DAG.
///
/// Stalls (`wait` with no in-kernel `xmit` on its sync register) and
/// unrecognized loop shapes yield an Unbounded verdict with kernel:pc
/// diagnostics in the LintReport severity scheme, never a wrong bound.
/// Bounds assume fault-free execution: an injected/architectural fault
/// re-issues the faulting instruction, which only adds cycles, so the
/// *lower* bound stays sound under faults while the upper bound does not.
///
/// Consumers: ExoServe admission (reject when the static lower bound
/// already exceeds the deadline budget), XJIT (trace-fusion eligibility),
/// and the exochi-lint / xgma-objdump `--cost` surfaces.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_XOPT_COST_H
#define EXOCHI_XOPT_COST_H

#include "isa/Isa.h"
#include "xopt/Lint.h"
#include "xopt/Range.h"
#include "xopt/Verify.h"

#include <string>
#include <vector>

namespace exochi {
namespace xopt {

/// Trip-count bounds inferred for one natural loop.
struct LoopBound {
  /// Loop-header instruction index.
  uint32_t Header = 0;
  /// Number of instructions in the loop body (header included).
  uint32_t BodySize = 0;
  /// Fewest body executions once the loop is entered (>= 1: every natural
  /// loop body runs at least once per entry).
  int64_t TripLo = 1;
  /// Most body executions per entry; Range::PosInf when not statically
  /// bounded.
  int64_t TripHi = Range::PosInf;

  bool bounded() const { return TripHi != Range::PosInf; }
};

/// Result of the static cycle-cost analysis of one kernel.
struct CostReport {
  std::string Kernel;

  /// Per-shred issue-cycle bounds in *half-cycle* units: the cycle model
  /// charges in multiples of 0.5 EU cycles (isa::decodedIssueCycles), and
  /// integer half-cycles keep the interval arithmetic exact.
  /// Hi == Range::PosInf is the Unbounded verdict.
  Range ShredHalfCycles = Range::point(0);

  /// Control flow is reducible: every retreating edge's target dominates
  /// its source. Irreducible kernels get no loop bounds at all.
  bool Reducible = true;

  /// Every reachable `wait` has at least one `xmit` in the kernel
  /// signalling its sync register. An unproven wait may sleep forever
  /// while the deadline clock runs, so it forces Unbounded
  /// ("unbounded-unless-proven").
  bool StallsProven = true;

  /// A reachable `spawn` enqueues child shreds whose parameters the
  /// dispatch spec does not constrain. Per-shred bounds still hold for
  /// every shred under *its own* parameters, but aggregating the bounds
  /// over a dispatch must not assume the spec covers the children.
  bool SpawnsChildren = false;

  /// Inferred natural loops, innermost first.
  std::vector<LoopBound> Loops;

  /// Unbounded verdicts (Warning severity) plus per-loop bound notes,
  /// rendered in the lint's kernel:pc scheme.
  LintReport Diags;

  /// Both cycle bounds are finite.
  bool bounded() const { return ShredHalfCycles.Hi != Range::PosInf; }

  /// The *structure* (CFG shape + sync protocol) was fully analyzable,
  /// even if some trip count was not. This is the gate XJIT uses for
  /// trace-fusion eligibility: fusion needs the cost model to be able to
  /// follow the kernel, not the trip counts to be small.
  bool structureOk() const { return Reducible && StallsProven; }

  /// Per-shred cycle bounds as the cycle model reports them.
  double minCycles() const {
    return static_cast<double>(ShredHalfCycles.Lo) / 2.0;
  }
  /// +inf when !bounded().
  double maxCycles() const;

  /// Sound lower bound, in EU cycles, on the elapsed device time of a
  /// dispatch of \p NumShreds shreds over \p NumEus execution units:
  /// issue slots serialize within an EU, so by pigeonhole some EU must
  /// issue at least ceil(NumShreds/NumEus) shreds' worth of minimum cost;
  /// stalls, memory latency and fault recovery only add to that.
  double dispatchMinCycles(uint64_t NumShreds, unsigned NumEus) const;
};

/// Statically bounds the per-shred issue-cycle cost of \p Code under the
/// dispatch assumptions in \p Spec (the same spec type XVerify consumes,
/// so geometry/parameter sharpening is shared). The cost model is
/// isa::decodedIssueCycles — the exact charging rule behind the
/// IssueCycles counter both simulator backends maintain.
CostReport analyzeCost(const std::vector<isa::Instruction> &Code,
                       const VerifySpec &Spec,
                       std::string KernelName = std::string());

/// The per-opcode issue-cost table in markdown, generated from
/// isa::decodedIssueCycles (the analyzer's and both interpreters' shared
/// source of truth). docs/ISA.md embeds it verbatim between generated-
/// block markers and cost_test asserts the doc matches.
std::string costTableMarkdown();

} // namespace xopt
} // namespace exochi

#endif // EXOCHI_XOPT_COST_H
