//===- isa/OpTable.h - One row of form facts per XGMA opcode --------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The opcode table: one constexpr row per isa::Opcode holding everything
/// about an opcode's form — its mnemonic, the role of each operand slot,
/// how source operands and immediates are typed, its assembly syntax, the
/// registers it reads and writes, and its issue cost. isa::validate, the
/// assembler, isa::disassemble, xopt::useDef, isa::decodedIssueCycles and
/// the generated cost table all read the row, so a new opcode or operand
/// rule is one row.
///
/// What an opcode computes is not here: the cycle interpreter and XJIT's
/// handlers each define it, and are kept apart on purpose. The table is
/// read at assembly, decode and analysis time, never per executed
/// instruction.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_ISA_OPTABLE_H
#define EXOCHI_ISA_OPTABLE_H

#include "isa/Isa.h"

#include <cassert>
#include <iterator>

namespace exochi {
namespace isa {

/// What an operand slot may hold.
enum class SlotRole : uint8_t {
  Absent,  ///< nothing: the operand must be OperandKind::None
  Lanes,   ///< a register group naming one register per lane (two for df)
  Group,   ///< Lanes, or one register (pair) broadcast to every lane
  Scalar,  ///< a single vector register
  Pred,    ///< a predicate register
  Surface, ///< a surface slot
  Label,   ///< a branch target
};

/// How an instruction touches the registers its slot names.
enum class SlotAccess : uint8_t {
  None,      ///< no local register: absent, surface, label, xmit's remote
  Read,      ///< read
  Write,     ///< written in every lane; a predicate does not mask it
  Masked,    ///< written in enabled lanes, so a predicated write also reads
  ReadWrite, ///< read and written: mac's accumulator, wait's flag register
};

/// One operand slot of a row.
struct OperandSlot {
  SlotRole Role = SlotRole::Absent;
  SlotAccess Access = SlotAccess::None;
  /// An immediate may stand in for the register.
  bool Imm = false;
  /// The operand's name in validate's diagnostics.
  const char *Name = "";
};

/// The type source operands are read in, which also types their
/// immediates (so `mul.8.f d = s, 2` multiplies by 2.0f).
enum class SrcType : uint8_t {
  Insn, ///< the instruction type
  Cvt,  ///< cvt's source type, named by the mnemonic's last suffix
  I32,  ///< element indices, shred ids and untyped opcodes
};

/// One row of the opcode table.
struct OpInfo {
  Opcode Op;
  /// Base mnemonic.
  const char *Name;
  /// The mnemonic carries `.width.type` (cmp puts `.cond` before it).
  bool WidthType;
  SrcType Src;
  /// Operand syntax after the mnemonic, walked by both the parser and the
  /// printer: `D` is Dst, `0`..`2` are Src0..Src2, `P` is the (possibly
  /// negated) predicate; any other character is literal text, and spaces
  /// are optional when parsing.
  const char *Syntax;
  /// Effects beyond the register writes (memory, control flow, thread
  /// ops, possible faults): dead-code elimination must keep it.
  bool SideEffects;
  /// Both backends mask the instruction's lanes by a `(pN)` prefix;
  /// validate rejects the prefix on every other row, where it would be
  /// silently ignored.
  bool LaneMask;
  /// Issue cost in EU cycles at width <= 8; doubled above for
  /// `.width.type` opcodes.
  double IssueCycles;
  /// Dst, Src0, Src1, Src2.
  OperandSlot Slots[4];
  /// The result is one RGBA texel: the only legal form is `.4.f`.
  bool Rgba = false;

  /// The syntax names the predicate, which the opcode then requires
  /// (sel's lane selector, br's condition); it takes no `(pN)` prefix.
  constexpr bool needsPred() const {
    for (const char *S = Syntax; *S; ++S)
      if (*S == 'P')
        return true;
    return false;
  }
};

/// Builders for the slots and the repeated row shapes of OpTable.
namespace rows {

constexpr OperandSlot lanes(const char *Name, SlotAccess A) {
  return {SlotRole::Lanes, A, false, Name};
}
constexpr OperandSlot group(const char *Name) {
  return {SlotRole::Group, SlotAccess::Read, true, Name};
}
constexpr OperandSlot scalar(const char *Name, SlotAccess A, bool Imm) {
  return {SlotRole::Scalar, A, Imm, Name};
}
/// A scalar source that may be an immediate.
constexpr OperandSlot scalarIn(const char *Name) {
  return scalar(Name, SlotAccess::Read, true);
}
constexpr OperandSlot surface(const char *Name) {
  return {SlotRole::Surface, SlotAccess::None, false, Name};
}
constexpr OperandSlot label(const char *Name) {
  return {SlotRole::Label, SlotAccess::None, false, Name};
}

constexpr OpInfo unary(Opcode Op, const char *Name, double Cycles) {
  return {Op, Name, true, SrcType::Insn, "D = 0", false, true, Cycles,
          {lanes("destination", SlotAccess::Masked), group("source"), {}, {}}};
}

constexpr OpInfo binary(Opcode Op, const char *Name, double Cycles,
                        SlotAccess Dst = SlotAccess::Masked) {
  return {Op, Name, true, SrcType::Insn, "D = 0, 1", false, true, Cycles,
          {lanes("destination", Dst), group("first source"),
           group("second source"), {}}};
}

/// ld/st/ldblk/stblk: Dst holds the data, read by stores.
constexpr OpInfo memory(Opcode Op, const char *Name, const char *Syntax,
                        SlotAccess Data, const char *Second) {
  return {Op, Name, true, SrcType::I32, Syntax, true, true, 2,
          {lanes("memory data", Data), surface("memory op"),
           scalarIn("memory index"), scalarIn(Second)}};
}

} // namespace rows

/// The opcode table, in isa::Opcode order.
inline constexpr OpInfo OpTable[] = {
    rows::unary(Opcode::Mov, "mov", 0.5),
    rows::binary(Opcode::Add, "add", 1),
    rows::binary(Opcode::Sub, "sub", 1),
    rows::binary(Opcode::Mul, "mul", 2),
    rows::binary(Opcode::Mac, "mac", 2, SlotAccess::ReadWrite),
    rows::binary(Opcode::Div, "div", 8),
    rows::binary(Opcode::Min, "min", 1),
    rows::binary(Opcode::Max, "max", 1),
    rows::binary(Opcode::Avg, "avg", 1),
    rows::unary(Opcode::Abs, "abs", 1),
    rows::binary(Opcode::Shl, "shl", 0.5),
    rows::binary(Opcode::Shr, "shr", 0.5),
    rows::binary(Opcode::Asr, "asr", 0.5),
    rows::binary(Opcode::And, "and", 0.5),
    rows::binary(Opcode::Or, "or", 0.5),
    rows::binary(Opcode::Xor, "xor", 0.5),
    rows::unary(Opcode::Not, "not", 0.5),
    {Opcode::Sel, "sel", true, SrcType::Insn, "P, D = 0, 1", false, false, 0.5,
     {rows::lanes("sel destination", SlotAccess::Write),
      rows::group("sel true source"), rows::group("sel false source"), {}}},
    {Opcode::Cmp, "cmp", true, SrcType::Insn, "D = 0, 1", false, true, 1,
     {{SlotRole::Pred, SlotAccess::Masked, false, "cmp destination"},
      rows::group("cmp lhs"), rows::group("cmp rhs"), {}}},
    {Opcode::Cvt, "cvt", true, SrcType::Cvt, "D = 0", false, true, 1,
     {rows::lanes("cvt destination", SlotAccess::Masked),
      rows::group("cvt source"), {}, {}}},
    rows::memory(Opcode::Ld, "ld", "D = (0, 1, 2)", SlotAccess::Masked,
                 "memory offset"),
    rows::memory(Opcode::St, "st", "(0, 1, 2) = D", SlotAccess::Read,
                 "memory offset"),
    rows::memory(Opcode::LdBlk, "ldblk", "D = (0, 1, 2)", SlotAccess::Masked,
                 "memory y index"),
    rows::memory(Opcode::StBlk, "stblk", "(0, 1, 2) = D", SlotAccess::Read,
                 "memory y index"),
    {Opcode::Sample, "sample", true, SrcType::Insn, "D = (0, 1, 2)", true,
     false, 2,
     {rows::lanes("sample destination", SlotAccess::Write),
      rows::surface("sample"), rows::scalarIn("sample u"),
      rows::scalarIn("sample v")},
     /*Rgba=*/true},
    {Opcode::Jmp, "jmp", false, SrcType::I32, "0", true, false, 1,
     {{}, rows::label("jmp"), {}, {}}},
    {Opcode::Br, "br", false, SrcType::I32, "P, 0", true, false, 1,
     {{}, rows::label("br"), {}, {}}},
    {Opcode::Sid, "sid", false, SrcType::I32, "D", false, false, 1,
     {rows::scalar("sid destination", SlotAccess::Write, false), {}, {}, {}}},
    {Opcode::Xmit, "xmit", false, SrcType::I32, "0, D = 1", true, false, 1,
     {rows::scalar("xmit remote register", SlotAccess::None, false),
      rows::scalarIn("xmit target shred"), rows::scalarIn("xmit source"),
      {}}},
    {Opcode::Wait, "wait", false, SrcType::I32, "D", true, false, 1,
     {rows::scalar("wait register", SlotAccess::ReadWrite, false), {}, {},
      {}}},
    {Opcode::Spawn, "spawn", false, SrcType::I32, "0", true, false, 1,
     {{}, rows::scalarIn("spawn parameter"), {}, {}}},
    {Opcode::Halt, "halt", false, SrcType::I32, "", true, false, 1, {}},
    {Opcode::Nop, "nop", false, SrcType::I32, "", false, false, 1, {}},
};

/// Number of opcodes (rows); opcode bytes at or above it are invalid.
inline constexpr unsigned NumOpcodes = std::size(OpTable);
static_assert(NumOpcodes == static_cast<unsigned>(Opcode::Nop) + 1,
              "one opcode table row per isa::Opcode");

constexpr bool rowsInOpcodeOrder() {
  for (unsigned K = 0; K < NumOpcodes; ++K)
    if (OpTable[K].Op != static_cast<Opcode>(K))
      return false;
  return true;
}
static_assert(rowsInOpcodeOrder(), "opcode table rows out of enum order");

/// The row of \p Op.
inline const OpInfo &opInfo(Opcode Op) {
  assert(static_cast<unsigned>(Op) < NumOpcodes && "opcode out of range");
  return OpTable[static_cast<unsigned>(Op)];
}

/// Slot index (Dst = 0, Src0..Src2 = 1..3) a syntax character names, or
/// -1 for literal text and the predicate.
constexpr int syntaxSlot(char C) {
  if (C == 'D')
    return 0;
  return C >= '0' && C <= '2' ? C - '0' + 1 : -1;
}

/// Element type \p I's source operands are read in, which also types
/// their immediate literals (the row's SrcType rule).
inline ElemType immTypeOf(const Instruction &I) {
  switch (opInfo(I.Op).Src) {
  case SrcType::Insn:
    return I.Ty;
  case SrcType::Cvt:
    return I.SrcTy;
  case SrcType::I32:
    return ElemType::I32;
  }
  exochiUnreachable("bad SrcType");
}

} // namespace isa
} // namespace exochi

#endif // EXOCHI_ISA_OPTABLE_H
