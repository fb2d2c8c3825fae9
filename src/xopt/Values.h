//===- xopt/Values.h - Register value analysis of XGMA kernels ------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value analysis XVerify and XCost both read (DESIGN.md §10): an
/// AbsVal per vector register before every reachable instruction. It has
/// one entry state (scalar parameters at their spec ranges, every other
/// register unknown: the mailbox may preload any register before a shred
/// runs), one forward worklist fixpoint that widens a join point once it
/// has changed more than WidenAfter times, and one per-opcode transfer
/// that follows the device executors lane by lane.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_XOPT_VALUES_H
#define EXOCHI_XOPT_VALUES_H

#include "isa/Isa.h"
#include "xopt/Cfg.h"
#include "xopt/Range.h"
#include "xopt/Verify.h"

#include <vector>

namespace exochi {
namespace xopt {

/// The abstract value of one register.
struct AbsVal {
  Range Val = Range::full(); ///< possible concrete values
  Range Base = Range::full(); ///< base interval when Affine
  int64_t SidCoef = 0;
  /// value == SidCoef * sid + b for a shred-invariant b in Base.
  bool Affine = false;
  /// Derived from a source the verifier treats as partitioned by
  /// contract: a scalar parameter, loaded data or a wait result.
  bool Opaque = false;

  static AbsVal top() { return AbsVal(); }
  static AbsVal opaque() {
    AbsVal V;
    V.Opaque = true;
    return V;
  }
  static AbsVal constant(int64_t C) {
    AbsVal V;
    V.Val = V.Base = Range::point(C);
    V.Affine = true;
    return V;
  }

  bool operator==(const AbsVal &O) const {
    return Val == O.Val && Base == O.Base && SidCoef == O.SidCoef &&
           Affine == O.Affine && Opaque == O.Opaque;
  }
  bool operator!=(const AbsVal &O) const { return !(*this == O); }
};

/// One AbsVal per vector register.
using AbsState = std::vector<AbsVal>;

/// The abstract sum of two values (affine when both are).
AbsVal addVals(const AbsVal &A, const AbsVal &B);

/// Lane \p Lane of operand \p O as the device reads it: a 32-bit integer.
AbsVal readLane(const isa::Operand &O, unsigned Lane, const AbsState &S);

/// The scalar value of an index operand (its first register).
AbsVal readScalar(const isa::Operand &O, const AbsState &S);

/// The abstract register state at every instruction of one kernel.
class KernelValues {
public:
  /// Runs the fixpoint over the graph \p G of \p Code under \p Spec.
  KernelValues(const std::vector<isa::Instruction> &Code, const Cfg &G,
               const VerifySpec &Spec);

  /// The state a shred starts in.
  const AbsState &entry() const { return Entry; }
  /// The state before instruction \p Idx (empty when unreachable).
  const AbsState &in(uint32_t Idx) const { return In[Idx]; }
  /// The state after instruction \p Idx.
  AbsState out(uint32_t Idx) const;

private:
  void transfer(const isa::Instruction &I, AbsState &S) const;
  AbsVal evalIntLane(const isa::Instruction &I, unsigned Lane,
                     const AbsState &S) const;

  const std::vector<isa::Instruction> &Code;
  const VerifySpec &Spec;
  AbsState Entry;
  std::vector<AbsState> In;
};

} // namespace xopt
} // namespace exochi

#endif // EXOCHI_XOPT_VALUES_H
