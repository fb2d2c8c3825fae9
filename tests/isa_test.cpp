//===- tests/isa_test.cpp - Unit tests for src/isa ---------------------------===//

#include "isa/Encoding.h"
#include "isa/Isa.h"
#include "isa/OpTable.h"
#include "support/Random.h"
#include "xasm/Assembler.h"
#include "xasm/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

using namespace exochi;
using namespace exochi::isa;

namespace {

Instruction makeAdd8() {
  Instruction I;
  I.Op = Opcode::Add;
  I.Ty = ElemType::I32;
  I.Width = 8;
  I.Dst = Operand::regRange(18, 25);
  I.Src0 = Operand::regRange(2, 9);
  I.Src1 = Operand::regRange(10, 17);
  return I;
}

} // namespace

TEST(IsaTest, ElemTypeProperties) {
  EXPECT_STREQ(elemTypeName(ElemType::I8), "b");
  EXPECT_STREQ(elemTypeName(ElemType::I32), "dw");
  EXPECT_STREQ(elemTypeName(ElemType::F64), "df");
  EXPECT_EQ(elemTypeSize(ElemType::I8), 1u);
  EXPECT_EQ(elemTypeSize(ElemType::I16), 2u);
  EXPECT_EQ(elemTypeSize(ElemType::F32), 4u);
  EXPECT_EQ(elemTypeSize(ElemType::F64), 8u);
}

TEST(IsaTest, OperandFactories) {
  Operand R = Operand::reg(5);
  EXPECT_EQ(R.regCount(), 1u);
  Operand RR = Operand::regRange(2, 9);
  EXPECT_EQ(RR.regCount(), 8u);
  Operand I = Operand::imm(-3);
  EXPECT_EQ(I.Imm, -3);
  EXPECT_EQ(I.regCount(), 0u);
}

TEST(IsaValidateTest, PaperExampleValid) {
  EXPECT_EQ(validate(makeAdd8()), "");
}

TEST(IsaValidateTest, WidthMismatchRejected) {
  Instruction I = makeAdd8();
  I.Dst = Operand::regRange(18, 24); // 7 regs for 8 lanes
  EXPECT_NE(validate(I), "");
}

TEST(IsaValidateTest, BroadcastSourceAllowed) {
  Instruction I = makeAdd8();
  I.Src1 = Operand::reg(3); // scalar broadcast
  EXPECT_EQ(validate(I), "");
}

TEST(IsaValidateTest, ImmediateSourceAllowed) {
  Instruction I = makeAdd8();
  I.Src1 = Operand::imm(100);
  EXPECT_EQ(validate(I), "");
}

TEST(IsaValidateTest, ImmediateDestinationRejected) {
  Instruction I = makeAdd8();
  I.Dst = Operand::imm(1);
  EXPECT_NE(validate(I), "");
}

TEST(IsaValidateTest, WidthOutOfRange) {
  Instruction I = makeAdd8();
  I.Width = 0;
  EXPECT_NE(validate(I), "");
  I.Width = 17;
  EXPECT_NE(validate(I), "");
}

TEST(IsaValidateTest, F64NeedsRegisterPairs) {
  Instruction I;
  I.Op = Opcode::Add;
  I.Ty = ElemType::F64;
  I.Width = 4;
  I.Dst = Operand::regRange(0, 7); // 8 regs = 4 f64 lanes
  I.Src0 = Operand::regRange(8, 15);
  I.Src1 = Operand::regRange(16, 23);
  EXPECT_EQ(validate(I), "");

  I.Dst = Operand::regRange(0, 3); // 4 regs: too few
  EXPECT_NE(validate(I), "");
}

TEST(IsaValidateTest, CmpWritesPredicate) {
  Instruction I;
  I.Op = Opcode::Cmp;
  I.Cmp = CmpOp::Lt;
  I.Ty = ElemType::I32;
  I.Width = 4;
  I.Dst = Operand::pred(3);
  I.Src0 = Operand::regRange(0, 3);
  I.Src1 = Operand::imm(10);
  EXPECT_EQ(validate(I), "");

  I.Dst = Operand::reg(3);
  EXPECT_NE(validate(I), "");
}

TEST(IsaValidateTest, SelRequiresPredicate) {
  Instruction I;
  I.Op = Opcode::Sel;
  I.Ty = ElemType::I32;
  I.Width = 4;
  I.Dst = Operand::regRange(0, 3);
  I.Src0 = Operand::regRange(4, 7);
  I.Src1 = Operand::regRange(8, 11);
  EXPECT_NE(validate(I), ""); // no predicate set
  I.PredReg = 2;
  EXPECT_EQ(validate(I), "");
}

TEST(IsaValidateTest, LoadShape) {
  Instruction I;
  I.Op = Opcode::Ld;
  I.Ty = ElemType::I32;
  I.Width = 8;
  I.Dst = Operand::regRange(2, 9);
  I.Src0 = Operand::surface(0);
  I.Src1 = Operand::reg(1);
  I.Src2 = Operand::imm(0);
  EXPECT_EQ(validate(I), "");

  I.Src0 = Operand::reg(0); // not a surface
  EXPECT_NE(validate(I), "");
}

TEST(IsaValidateTest, SampleShape) {
  Instruction I;
  I.Op = Opcode::Sample;
  I.Ty = ElemType::F32;
  I.Width = 4;
  I.Dst = Operand::regRange(10, 13);
  I.Src0 = Operand::surface(1);
  I.Src1 = Operand::reg(0);
  I.Src2 = Operand::reg(1);
  EXPECT_EQ(validate(I), "");

  I.Width = 8;
  I.Dst = Operand::regRange(10, 17);
  EXPECT_NE(validate(I), ""); // sample must be .4.f
}

TEST(IsaValidateTest, BranchNeedsLabelAndPredicate) {
  Instruction I;
  I.Op = Opcode::Br;
  I.Src0 = Operand::label(3);
  EXPECT_NE(validate(I), ""); // missing predicate
  I.PredReg = 0;
  EXPECT_EQ(validate(I), "");
  I.Src0 = Operand::imm(3);
  EXPECT_NE(validate(I), "");
}

TEST(IsaDisasmTest, RoundTripsSyntax) {
  EXPECT_EQ(disassemble(makeAdd8()),
            "add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]");

  Instruction Shl;
  Shl.Op = Opcode::Shl;
  Shl.Ty = ElemType::I16;
  Shl.Width = 1;
  Shl.Dst = Operand::reg(1);
  Shl.Src0 = Operand::reg(0);
  Shl.Src1 = Operand::imm(3);
  EXPECT_EQ(disassemble(Shl), "shl.1.w vr1 = vr0, 3");

  Instruction St;
  St.Op = Opcode::St;
  St.Ty = ElemType::I32;
  St.Width = 8;
  St.Dst = Operand::regRange(18, 25);
  St.Src0 = Operand::surface(2);
  St.Src1 = Operand::reg(1);
  St.Src2 = Operand::imm(0);
  EXPECT_EQ(disassemble(St), "st.8.dw (surf2, vr1, 0) = [vr18..vr25]");
}

TEST(IsaDisasmTest, FloatImmediatePrintsAsAFloatLiteral) {
  Instruction Mov;
  Mov.Op = Opcode::Mov;
  Mov.Ty = ElemType::F32;
  Mov.Width = 1;
  Mov.Dst = Operand::reg(3);
  Mov.Src0 = Operand::imm(std::bit_cast<int32_t>(33.0f));
  EXPECT_EQ(disassemble(Mov), "mov.1.f vr3 = 33.0");
  Mov.Src0 = Operand::imm(std::bit_cast<int32_t>(-0.25f));
  EXPECT_EQ(disassemble(Mov), "mov.1.f vr3 = -0.25");
}

TEST(IsaDisasmTest, SidNamesOnlyItsDestination) {
  Instruction Sid;
  Sid.Op = Opcode::Sid;
  Sid.Dst = Operand::reg(3);
  EXPECT_EQ(disassemble(Sid), "sid vr3");
}

TEST(IsaDisasmTest, LabelsPrintThroughTheNamer) {
  Instruction Jmp;
  Jmp.Op = Opcode::Jmp;
  Jmp.Src0 = Operand::label(4);
  EXPECT_EQ(disassemble(Jmp), "jmp @4");
  auto Name = [](uint32_t T) { return "L" + std::to_string(T); };
  EXPECT_EQ(disassemble(Jmp, Name), "jmp L4");
}

TEST(IsaDisasmTest, PredicationPrefix) {
  Instruction I = makeAdd8();
  I.PredReg = 3;
  I.PredNegate = true;
  EXPECT_EQ(disassemble(I),
            "(!p3) add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]");
}

TEST(EncodingTest, SingleInstructionRoundTrip) {
  Instruction I = makeAdd8();
  std::vector<uint8_t> Bytes;
  encodeInstruction(I, Bytes);
  ASSERT_EQ(Bytes.size(), InstrBytes);
  auto D = decodeInstruction(Bytes.data());
  ASSERT_TRUE(static_cast<bool>(D));
  EXPECT_TRUE(I == *D);
}

TEST(EncodingTest, RejectsBadOpcodeByte) {
  std::vector<uint8_t> Bytes;
  encodeInstruction(makeAdd8(), Bytes);
  Bytes[0] = 0xff;
  auto D = decodeInstruction(Bytes.data());
  EXPECT_FALSE(static_cast<bool>(D));
}

TEST(EncodingTest, RejectsBadSizeProgram) {
  std::vector<uint8_t> Bytes(InstrBytes + 1, 0);
  auto P = decodeProgram(Bytes);
  EXPECT_FALSE(static_cast<bool>(P));
}

TEST(EncodingTest, ProgramRoundTrip) {
  std::vector<Instruction> Prog;
  Prog.push_back(makeAdd8());
  Instruction Halt;
  Halt.Op = Opcode::Halt;
  Prog.push_back(Halt);

  auto Bytes = encodeProgram(Prog);
  auto Back = decodeProgram(Bytes);
  ASSERT_TRUE(static_cast<bool>(Back));
  ASSERT_EQ(Back->size(), 2u);
  EXPECT_TRUE((*Back)[0] == Prog[0]);
  EXPECT_TRUE((*Back)[1] == Prog[1]);
}

//===----------------------------------------------------------------------===//
// Property tests over every opcode-table row: random legal instructions
// validate, print and re-assemble to themselves, and round-trip through
// the encoder; a kind the row forbids in any slot fails validation.
//===----------------------------------------------------------------------===//

namespace {

/// A register group of \p Count registers (`vrN` when one).
Operand randomGroup(Rng &R, unsigned Count) {
  auto Lo = static_cast<uint8_t>(R.nextBelow(NumVRegs - Count + 1));
  auto Hi = static_cast<uint8_t>(Lo + Count - 1);
  return Count == 1 ? Operand::reg(Lo) : Operand::regRange(Lo, Hi);
}

/// A random immediate the assembler can write in type \p Ty. Float-typed
/// immediates are finite: the assembly syntax has no NaN or infinity.
Operand randomImm(Rng &R, ElemType Ty) {
  auto Bits = static_cast<int32_t>(R.next());
  if (Ty != ElemType::F32 && Ty != ElemType::F64)
    return Operand::imm(Bits);
  int Exp = static_cast<int>(R.nextInRange(-40, 40));
  auto F = static_cast<float>((R.nextDouble() - 0.5) * std::ldexp(1.0, Exp));
  return Operand::imm(std::bit_cast<int32_t>(F));
}

/// A random operand legal in slot \p K of \p I under the row's slot \p S.
/// \p NumInsns bounds label targets (one past the end is legal).
Operand randomOperand(Rng &R, const Instruction &I, const OperandSlot &S,
                      unsigned K, unsigned NumInsns) {
  const ElemType Ty = K == 0 ? I.Ty : immTypeOf(I);
  const unsigned PerLane = Ty == ElemType::F64 ? 2 : 1;
  switch (S.Role) {
  case SlotRole::Absent:
    return Operand::none();
  case SlotRole::Lanes:
    return randomGroup(R, I.Width * PerLane);
  case SlotRole::Group:
    if (S.Imm && R.nextBelow(4) == 0)
      return randomImm(R, Ty);
    return randomGroup(R, R.nextBelow(3) == 0 ? PerLane : I.Width * PerLane);
  case SlotRole::Scalar:
    if (S.Imm && R.nextBelow(3) == 0)
      return randomImm(R, Ty);
    return Operand::reg(static_cast<uint8_t>(R.nextBelow(NumVRegs)));
  case SlotRole::Pred:
    return Operand::pred(static_cast<uint8_t>(R.nextBelow(NumPRegs)));
  case SlotRole::Surface:
    return Operand::surface(static_cast<int32_t>(R.nextBelow(8)));
  case SlotRole::Label:
    return Operand::label(static_cast<int32_t>(R.nextBelow(NumInsns + 1)));
  }
  return Operand::none();
}

/// A random valid instruction drawn from any row of the opcode table.
Instruction randomInstruction(Rng &R, unsigned NumInsns) {
  const OpInfo &Row = OpTable[R.nextBelow(NumOpcodes)];
  Instruction I;
  I.Op = Row.Op;
  if (Row.WidthType) {
    I.Width = static_cast<uint8_t>(R.nextInRange(1, MaxWidth));
    I.Ty = static_cast<ElemType>(R.nextBelow(5));
    if (Row.Src == SrcType::Cvt)
      I.SrcTy = static_cast<ElemType>(R.nextBelow(5));
    if (I.Op == Opcode::Cmp)
      I.Cmp = static_cast<CmpOp>(R.nextBelow(6));
  }
  if (Row.Rgba) {
    I.Width = 4;
    I.Ty = ElemType::F32;
  }
  if (Row.needsPred() || (Row.LaneMask && R.nextBelow(3) == 0)) {
    I.PredReg = static_cast<uint8_t>(R.nextBelow(NumPRegs));
    I.PredNegate = R.nextBelow(2) == 0;
  }
  Operand *Slots[4] = {&I.Dst, &I.Src0, &I.Src1, &I.Src2};
  for (unsigned K = 0; K < 4; ++K)
    *Slots[K] = randomOperand(R, I, Row.Slots[K], K, NumInsns);
  return I;
}

std::vector<Instruction> randomProgram(Rng &R) {
  unsigned N = static_cast<unsigned>(R.nextInRange(1, 64));
  std::vector<Instruction> Prog;
  for (unsigned K = 0; K < N; ++K)
    Prog.push_back(randomInstruction(R, N));
  return Prog;
}

} // namespace

TEST(IsaValidateTest, PredicatePrefixOnlyWhereLanesAreMasked) {
  // Restated from the backends, independently of the table: these
  // opcodes never read a (pN) prefix, so validate must reject one.
  const Opcode Unmasked[] = {Opcode::Jmp,  Opcode::Sid,    Opcode::Spawn,
                             Opcode::Xmit, Opcode::Wait,   Opcode::Halt,
                             Opcode::Nop,  Opcode::Sample};
  Rng R(7);
  unsigned Checked = 0;
  for (unsigned Tries = 0; Checked < 400 && Tries < 100000; ++Tries) {
    Instruction I = randomInstruction(R, 16);
    if (opInfo(I.Op).needsPred())
      continue;
    ASSERT_EQ(validate(I), "") << disassemble(I);
    I.PredReg = 1;
    bool Masked = std::find(std::begin(Unmasked), std::end(Unmasked), I.Op) ==
                  std::end(Unmasked);
    EXPECT_EQ(validate(I).empty(), Masked) << disassemble(I);
    ++Checked;
  }
  EXPECT_EQ(Checked, 400u);

  Instruction J;
  J.Op = Opcode::Jmp;
  J.Src0 = Operand::label(0);
  J.PredReg = 1;
  EXPECT_EQ(validate(J), "jmp takes no predicate prefix");
}

class EncodingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncodingPropertyTest, RandomProgramsRoundTrip) {
  Rng R(GetParam());
  std::vector<Instruction> Prog = randomProgram(R);
  for (const Instruction &I : Prog)
    ASSERT_EQ(validate(I), "") << disassemble(I);

  // Printed text re-assembles to the same instructions.
  std::string Text = xasm::printKernel(Prog, {});
  auto K = xasm::assembleKernel(Text, xasm::SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message() << "\n" << Text;
  ASSERT_EQ(K->Code.size(), Prog.size());
  for (size_t Idx = 0; Idx < Prog.size(); ++Idx)
    EXPECT_TRUE(Prog[Idx] == K->Code[Idx])
        << disassemble(Prog[Idx]) << " re-assembled as "
        << disassemble(K->Code[Idx]);

  auto Bytes = encodeProgram(Prog);
  EXPECT_EQ(Bytes.size(), Prog.size() * InstrBytes);
  auto Back = decodeProgram(Bytes);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  ASSERT_EQ(Back->size(), Prog.size());
  for (size_t Idx = 0; Idx < Prog.size(); ++Idx)
    EXPECT_TRUE(Prog[Idx] == (*Back)[Idx]) << disassemble(Prog[Idx]);
}

TEST_P(EncodingPropertyTest, ForbiddenOperandKindsAreRejected) {
  // One operand of each kind; which a slot accepts is restated here from
  // the role definitions, independently of validate.
  const Operand Kinds[] = {Operand::none(),       Operand::reg(1),
                           Operand::regRange(0, 1), Operand::pred(1),
                           Operand::imm(1),       Operand::surface(0),
                           Operand::label(0)};
  auto Allowed = [](const OperandSlot &S, OperandKind Kind) {
    switch (S.Role) {
    case SlotRole::Absent:
      return Kind == OperandKind::None;
    case SlotRole::Lanes:
      return Kind == OperandKind::Reg || Kind == OperandKind::RegRange;
    case SlotRole::Group:
      return Kind == OperandKind::Reg || Kind == OperandKind::RegRange ||
             (S.Imm && Kind == OperandKind::Imm);
    case SlotRole::Scalar:
      return Kind == OperandKind::Reg || (S.Imm && Kind == OperandKind::Imm);
    case SlotRole::Pred:
      return Kind == OperandKind::Pred;
    case SlotRole::Surface:
      return Kind == OperandKind::Surface;
    case SlotRole::Label:
      return Kind == OperandKind::Label;
    }
    return false;
  };

  Rng R(GetParam() + 1000);
  for (const Instruction &Valid : randomProgram(R)) {
    const OpInfo &Row = opInfo(Valid.Op);
    for (unsigned K = 0; K < 4; ++K)
      for (const Operand &O : Kinds) {
        if (Allowed(Row.Slots[K], O.Kind))
          continue;
        Instruction I = Valid;
        Operand *Slots[4] = {&I.Dst, &I.Src0, &I.Src1, &I.Src2};
        *Slots[K] = O;
        EXPECT_NE(validate(I), "")
            << Row.Name << " slot " << K << " accepted kind "
            << static_cast<int>(O.Kind);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));
