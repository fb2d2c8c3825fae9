//===- isa/Decoded.h - Pre-decoded kernel form shared by backends ----------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operand-resolved form of an XGMA kernel. The interpreter backends
/// re-derived the same per-instruction facts on every executed step:
/// which register supplies lane L of an operand (broadcast vs. strided,
/// F64 register pairs), whether an operand is an immediate, and the issue
/// cost. DecodedKernel computes all of that once per kernel registration;
/// both the cycle-accurate GmaDevice interpreter and the XJIT fast lane
/// execute from it.
///
/// Decoding is purely a change of representation: a DecodedOperand read
/// yields bit-for-bit the value the original Operand logic produced, so
/// using it cannot perturb simulation results.
///
/// Identical instruction streams share one immutable DecodedKernel
/// through a content-addressed process-wide cache: the serving stack
/// loads the same Table 2 kernels into many short-lived platforms, and
/// re-decoding them per platform is pure waste.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_ISA_DECODED_H
#define EXOCHI_ISA_DECODED_H

#include "isa/Isa.h"

#include <memory>
#include <vector>

namespace exochi {
namespace isa {

/// One operand, resolved to its lane-access recipe. Reading lane L:
///   IsImm ? Imm : Regs[Reg0 + L * Stride]
/// Stride is 0 for broadcast operands (a scalar register feeding every
/// lane) and elements-per-lane otherwise (1, or 2 for F64 register
/// pairs). Scalar reads (index operands) use lane 0, where the stride
/// contributes nothing. OperandKind::None decodes as immediate 0 — the
/// value the interpreters substitute for a missing source.
struct DecodedOperand {
  uint8_t Reg0 = 0;
  uint8_t Stride = 0;
  bool IsImm = true;
  int32_t Imm = 0;

  /// True when the operand names at least one register.
  bool isReg() const { return !IsImm; }
};

/// One instruction with operands resolved and issue cost precomputed.
/// Dst's stride comes from the instruction's element type, the sources'
/// from the type they are read in (isa::immTypeOf: cvt's Src0 is read in
/// its source type).
struct DecodedInsn {
  DecodedOperand Dst;
  DecodedOperand Src0;
  DecodedOperand Src1;
  DecodedOperand Src2;
  /// Issue cost in EU cycles; numerically identical to what the cycle
  /// model's issue-cost function returns for the instruction.
  double IssueCycles = 1;
};

/// The decoded form of a whole kernel, index-parallel with the original
/// instruction vector. Immutable once built; shared freely across
/// devices and backends.
struct DecodedKernel {
  std::vector<DecodedInsn> Insns;
};

/// Returns the decoded form of \p Code, serving repeats of the same
/// instruction stream from a process-wide content-addressed cache.
/// Thread-safe. Never returns null.
std::shared_ptr<const DecodedKernel>
decodeKernel(const std::vector<Instruction> &Code);

/// Number of distinct instruction streams currently cached (test hook).
size_t decodedKernelCacheSize();

/// Decodes one operand of \p I (exposed for the JIT compiler, which
/// builds its own instruction templates from the same recipes).
/// \p ElemTy is the type the operand is read/written in.
DecodedOperand decodeOperand(const Operand &O, ElemType ElemTy);

/// Issue cost of \p I in EU cycles (the cycle model's cost function,
/// exposed so precomputation provably matches interpretation).
double decodedIssueCycles(const Instruction &I);

} // namespace isa
} // namespace exochi

#endif // EXOCHI_ISA_DECODED_H
