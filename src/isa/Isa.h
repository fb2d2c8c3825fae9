//===- isa/Isa.h - The XGMA accelerator instruction set --------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definition of the XGMA ISA, the accelerator instruction set executed by
/// the simulated GMA-class device. The ISA is styled after the inline
/// assembly the paper shows in Figure 6:
///
/// \code
///   shl.1.w   vr1 = i, 3
///   ld.8.dw   [vr2..vr9]   = (A, vr1, 0)
///   ld.8.dw   [vr10..vr17] = (B, vr1, 0)
///   add.8.dw  [vr18..vr25] = [vr2..vr9], [vr10..vr17]
///   st.8.dw   (C, vr1, 0)  = [vr18..vr25]
/// \endcode
///
/// Register-group SIMD: an instruction with width N operates on N lanes;
/// lane k of a `[vrA..vrB]` operand is register vr(A+k). Each register is
/// 32 bits; there are 128 per exo-sequencer (the paper: "a large register
/// file of 64 to 128 vector registers"). Sixteen predicate registers
/// p0..p15 hold per-lane masks. Double-precision (`df`) operations are
/// architecturally defined but unimplemented by the device — they fault,
/// exercising collaborative exception handling exactly as in the paper's
/// Section 3.3 example.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_ISA_ISA_H
#define EXOCHI_ISA_ISA_H

#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <string>

namespace exochi {
namespace isa {

/// Number of 32-bit vector registers per exo-sequencer.
constexpr unsigned NumVRegs = 128;
/// Number of predicate registers.
constexpr unsigned NumPRegs = 16;
/// Maximum SIMD width (lanes) of one instruction.
constexpr unsigned MaxWidth = 16;
/// Sentinel for "no predicate".
constexpr uint8_t NoPred = 0xff;

/// Element types. Registers always hold 32 bits; narrow integer results
/// are stored sign-extended. F64 values occupy register pairs (lane k in
/// vr(A+2k), vr(A+2k+1)).
enum class ElemType : uint8_t {
  I8,  ///< "b"  — signed byte
  I16, ///< "w"  — signed word
  I32, ///< "dw" — signed dword
  F32, ///< "f"  — IEEE single
  F64, ///< "df" — IEEE double; faults on the device (CEH path)
};

/// Returns the mnemonic suffix for \p Ty ("b", "w", "dw", "f", "df").
const char *elemTypeName(ElemType Ty);

/// Size in bytes of one element of \p Ty in memory. Inline: every XJIT
/// memory op computes it.
constexpr unsigned elemTypeSize(ElemType Ty) {
  switch (Ty) {
  case ElemType::I8:
    return 1;
  case ElemType::I16:
    return 2;
  case ElemType::I32:
  case ElemType::F32:
    return 4;
  case ElemType::F64:
    return 8;
  }
  exochiUnreachable("bad ElemType");
}

/// Opcodes of the XGMA ISA.
enum class Opcode : uint8_t {
  // Data movement / arithmetic (SIMD, typed).
  Mov,
  Add,
  Sub,
  Mul,
  Mac, ///< dst += src0 * src1
  Div, ///< integer/float divide; divide-by-zero faults (CEH path)
  Min,
  Max,
  Avg, ///< (a + b + 1) >> 1 for ints; (a+b)/2 for floats
  Abs,
  Shl,
  Shr, ///< logical shift right
  Asr, ///< arithmetic shift right
  And,
  Or,
  Xor,
  Not,
  Sel, ///< dst = pred-lane ? src0 : src1 (predicate in PredReg field)
  Cmp, ///< writes a predicate register (per-lane mask)
  Cvt, ///< convert src element type (in CmpTy slot) to instruction type

  // Memory (surface-relative; see SurfaceBinding in the device model).
  Ld,    ///< 1-D: lane k loads element (idx + imm + k)
  St,    ///< 1-D: lane k stores element (idx + imm + k)
  LdBlk, ///< 2-D: lane k loads element at (x + k, y)
  StBlk, ///< 2-D: lane k stores element at (x + k, y)
  Sample, ///< fixed-function bilinear sampler: RGBA at float (u, v)

  // Control flow.
  Jmp, ///< unconditional branch to label
  Br,  ///< branch if any lane of the predicate is set (after negation)

  // Threading / inter-shred communication.
  Sid,   ///< dst = this shred's id
  Xmit,  ///< write a register (+ready flag) in another shred's file
  Wait,  ///< block until the ready flag of a register is set; clears it
  Spawn, ///< enqueue a child shred of the same kernel with param = src

  Halt,
  Nop,
};

/// Returns the base mnemonic of \p Op (e.g. "add", "cmp", "ldblk").
/// Everything else about an opcode's form is its row in isa/OpTable.h.
const char *opcodeName(Opcode Op);

/// Comparison conditions for Cmp (mnemonics cmp.eq, cmp.lt, ...).
enum class CmpOp : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// Returns the condition suffix for \p C ("eq", "ne", ...).
const char *cmpOpName(CmpOp C);

/// Operand kinds.
enum class OperandKind : uint8_t {
  None,
  Reg,      ///< single vector register (Reg0)
  RegRange, ///< [Reg0 .. Reg1]
  Pred,     ///< predicate register p<Reg0>
  Imm,      ///< 32-bit immediate (broadcast across lanes)
  Surface,  ///< surface slot index (Imm)
  Label,    ///< branch target; Imm holds the instruction index
};

/// One instruction operand.
struct Operand {
  OperandKind Kind = OperandKind::None;
  uint8_t Reg0 = 0;
  uint8_t Reg1 = 0;
  int32_t Imm = 0;

  static Operand none() { return Operand(); }
  static Operand reg(uint8_t R) {
    Operand O;
    O.Kind = OperandKind::Reg;
    O.Reg0 = O.Reg1 = R;
    return O;
  }
  static Operand regRange(uint8_t Lo, uint8_t Hi) {
    Operand O;
    O.Kind = OperandKind::RegRange;
    O.Reg0 = Lo;
    O.Reg1 = Hi;
    return O;
  }
  static Operand pred(uint8_t P) {
    Operand O;
    O.Kind = OperandKind::Pred;
    O.Reg0 = P;
    return O;
  }
  static Operand imm(int32_t V) {
    Operand O;
    O.Kind = OperandKind::Imm;
    O.Imm = V;
    return O;
  }
  static Operand surface(int32_t Slot) {
    Operand O;
    O.Kind = OperandKind::Surface;
    O.Imm = Slot;
    return O;
  }
  static Operand label(int32_t InstrIndex) {
    Operand O;
    O.Kind = OperandKind::Label;
    O.Imm = InstrIndex;
    return O;
  }

  bool isReg() const {
    return Kind == OperandKind::Reg || Kind == OperandKind::RegRange;
  }
  /// Number of registers this operand names (0 for non-register kinds).
  unsigned regCount() const { return isReg() ? Reg1 - Reg0 + 1u : 0u; }

  bool operator==(const Operand &O) const {
    return Kind == O.Kind && Reg0 == O.Reg0 && Reg1 == O.Reg1 && Imm == O.Imm;
  }
};

/// One decoded XGMA instruction.
struct Instruction {
  Opcode Op = Opcode::Nop;
  ElemType Ty = ElemType::I32;
  /// Source element type for Cvt (Cvt converts SrcTy -> Ty).
  ElemType SrcTy = ElemType::I32;
  uint8_t Width = 1; ///< SIMD lanes, 1..16.
  uint8_t PredReg = NoPred;
  bool PredNegate = false;
  CmpOp Cmp = CmpOp::Eq;
  Operand Dst;
  Operand Src0;
  Operand Src1;
  Operand Src2;

  bool operator==(const Instruction &I) const {
    return Op == I.Op && Ty == I.Ty && SrcTy == I.SrcTy && Width == I.Width &&
           PredReg == I.PredReg && PredNegate == I.PredNegate &&
           Cmp == I.Cmp && Dst == I.Dst && Src0 == I.Src0 &&
           Src1 == I.Src1 && Src2 == I.Src2;
  }
};

/// Renders \p I as assembly text. Immediates print in the instruction's
/// operand type, so a float literal re-assembles to the same bits. Label
/// operands print as \p LabelName(target index), or `@<index>` without it.
std::string
disassemble(const Instruction &I,
            const std::function<std::string(uint32_t)> &LabelName = {});

/// Structural validity check against the opcode's row: register ranges in
/// bounds, operand widths consistent with the SIMD width, every slot
/// holding a kind its role allows and every slot the row does not name
/// empty. Returns an empty string when valid, else a diagnostic.
std::string validate(const Instruction &I);

} // namespace isa
} // namespace exochi

#endif // EXOCHI_ISA_ISA_H
