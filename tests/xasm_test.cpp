//===- tests/xasm_test.cpp - Unit tests for the XGMA assembler --------------===//

#include "xasm/Assembler.h"

#include "isa/Isa.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace exochi;
using namespace exochi::isa;
using namespace exochi::xasm;

namespace {

SymbolBindings figure6Bindings() {
  SymbolBindings B;
  B.bindScalar("i", 0);
  B.bindSurface("A", 0);
  B.bindSurface("B", 1);
  B.bindSurface("C", 2);
  return B;
}

/// The inline assembly block from the paper's Figure 6, verbatim.
constexpr const char *Figure6Asm = R"(
  shl.1.w  vr1 = i, 3
  ld.8.dw  [vr2..vr9] = (A, vr1, 0)
  ld.8.dw  [vr10..vr17] = (B, vr1, 0)
  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw  (C, vr1, 0) = [vr18..vr25]
)";

} // namespace

TEST(AssemblerTest, Figure6Assembles) {
  auto K = assembleKernel(Figure6Asm, figure6Bindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  ASSERT_EQ(K->Code.size(), 5u);

  const Instruction &Shl = K->Code[0];
  EXPECT_EQ(Shl.Op, Opcode::Shl);
  EXPECT_EQ(Shl.Ty, ElemType::I16);
  EXPECT_EQ(Shl.Width, 1);
  EXPECT_EQ(Shl.Src0.Kind, OperandKind::Reg);
  EXPECT_EQ(Shl.Src0.Reg0, 0); // `i` bound to vr0
  EXPECT_EQ(Shl.Src1.Imm, 3);

  const Instruction &Ld = K->Code[1];
  EXPECT_EQ(Ld.Op, Opcode::Ld);
  EXPECT_EQ(Ld.Width, 8);
  EXPECT_EQ(Ld.Dst.regCount(), 8u);
  EXPECT_EQ(Ld.Src0.Kind, OperandKind::Surface);
  EXPECT_EQ(Ld.Src0.Imm, 0); // surface A -> slot 0

  const Instruction &St = K->Code[4];
  EXPECT_EQ(St.Op, Opcode::St);
  EXPECT_EQ(St.Src0.Imm, 2); // surface C -> slot 2
  EXPECT_EQ(St.Dst.Reg0, 18);
  EXPECT_EQ(St.Dst.Reg1, 25);
}

TEST(AssemblerTest, LineTableTracksSource) {
  auto K = assembleKernel(Figure6Asm, figure6Bindings());
  ASSERT_TRUE(static_cast<bool>(K));
  ASSERT_EQ(K->Lines.size(), 5u);
  // Source starts with a blank line, so the first instruction is line 2.
  EXPECT_EQ(K->Lines[0], 2u);
  EXPECT_EQ(K->Lines[4], 6u);
}

TEST(AssemblerTest, CommentsAndBlanksIgnored) {
  auto K = assembleKernel("; header comment\n"
                          "\n"
                          "  nop ; trailing\n"
                          "  halt // c++ style\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  ASSERT_EQ(K->Code.size(), 2u);
  EXPECT_EQ(K->Code[0].Op, Opcode::Nop);
  EXPECT_EQ(K->Code[1].Op, Opcode::Halt);
}

TEST(AssemblerTest, LabelsAndBranches) {
  auto K = assembleKernel("  mov.1.dw vr0 = 0\n"
                          "loop:\n"
                          "  add.1.dw vr0 = vr0, 1\n"
                          "  cmp.lt.1.dw p1 = vr0, 10\n"
                          "  br p1, loop\n"
                          "  halt\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  ASSERT_EQ(K->Code.size(), 5u);
  EXPECT_EQ(K->Labels.at("loop"), 1u);
  const Instruction &Br = K->Code[3];
  EXPECT_EQ(Br.Op, Opcode::Br);
  EXPECT_EQ(Br.PredReg, 1);
  EXPECT_EQ(Br.Src0.Kind, OperandKind::Label);
  EXPECT_EQ(Br.Src0.Imm, 1);
}

TEST(AssemblerTest, ForwardBranchResolved) {
  auto K = assembleKernel("  jmp end\n"
                          "  nop\n"
                          "end:\n"
                          "  halt\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->Code[0].Src0.Imm, 2);
}

TEST(AssemblerTest, NegatedPredicateBranch) {
  auto K = assembleKernel("top:\n"
                          "  cmp.eq.1.dw p2 = vr0, 0\n"
                          "  br !p2, top\n"
                          "  halt\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_TRUE(K->Code[1].PredNegate);
}

TEST(AssemblerTest, PredicationPrefix) {
  auto K = assembleKernel("  cmp.gt.4.dw p3 = [vr0..vr3], 0\n"
                          "  (p3) add.4.dw [vr4..vr7] = [vr0..vr3], 1\n"
                          "  (!p3) mov.4.dw [vr4..vr7] = 0\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->Code[1].PredReg, 3);
  EXPECT_FALSE(K->Code[1].PredNegate);
  EXPECT_TRUE(K->Code[2].PredNegate);
}

TEST(AssemblerTest, SelInstruction) {
  auto K = assembleKernel("  sel.8.dw p1, [vr8..vr15] = [vr0..vr7], 0\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->Code[0].Op, Opcode::Sel);
  EXPECT_EQ(K->Code[0].PredReg, 1);
}

TEST(AssemblerTest, FloatImmediatesTyped) {
  auto K = assembleKernel("  mul.4.f [vr0..vr3] = [vr4..vr7], 0.5\n"
                          "  add.4.f [vr0..vr3] = [vr0..vr3], 2\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  float Half, Two;
  std::memcpy(&Half, &K->Code[0].Src1.Imm, 4);
  std::memcpy(&Two, &K->Code[1].Src1.Imm, 4);
  EXPECT_FLOAT_EQ(Half, 0.5f);
  EXPECT_FLOAT_EQ(Two, 2.0f);
}

TEST(AssemblerTest, MemoryOffsetsStayIntegerInFloatOps) {
  auto K = assembleKernel("  ld.4.f [vr0..vr3] = (surf0, vr8, 4)\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->Code[0].Src2.Imm, 4); // element offset, not 4.0f bits
}

TEST(AssemblerTest, CvtSyntax) {
  auto K = assembleKernel("  cvt.8.f.dw [vr0..vr7] = [vr8..vr15]\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->Code[0].Op, Opcode::Cvt);
  EXPECT_EQ(K->Code[0].Ty, ElemType::F32);
  EXPECT_EQ(K->Code[0].SrcTy, ElemType::I32);
}

TEST(AssemblerTest, ThreadOps) {
  auto K = assembleKernel("  sid vr0\n"
                          "  xmit vr0, vr5 = vr6\n"
                          "  xmit 3, vr7 = 42\n"
                          "  wait vr5\n"
                          "  spawn vr0\n"
                          "  halt\n",
                          SymbolBindings());
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->Code[0].Op, Opcode::Sid);
  EXPECT_EQ(K->Code[1].Op, Opcode::Xmit);
  EXPECT_EQ(K->Code[2].Src0.Imm, 3);
  EXPECT_EQ(K->Code[2].Src1.Imm, 42);
  EXPECT_EQ(K->Code[3].Op, Opcode::Wait);
  EXPECT_EQ(K->Code[4].Op, Opcode::Spawn);
}

TEST(AssemblerTest, SampleSyntax) {
  SymbolBindings B;
  B.bindSurface("tex", 4);
  auto K = assembleKernel("  sample.4.f [vr0..vr3] = (tex, vr8, vr9)\n", B);
  ASSERT_TRUE(static_cast<bool>(K)) << K.message();
  EXPECT_EQ(K->Code[0].Op, Opcode::Sample);
  EXPECT_EQ(K->Code[0].Src0.Imm, 4);
}

//===----------------------------------------------------------------------===//
// Diagnostics.
//===----------------------------------------------------------------------===//

struct DiagCase {
  const char *Name;
  const char *Source;
  const char *ExpectSubstr;
};

// Without a printer gtest dumps the struct's bytes, i.e. the pointer values,
// into the test listing, so the discovered test names would change from one
// run to the next.
void PrintTo(const DiagCase &C, std::ostream *OS) { *OS << C.Name; }

class AssemblerDiagTest : public ::testing::TestWithParam<DiagCase> {};

TEST_P(AssemblerDiagTest, ReportsError) {
  const DiagCase &C = GetParam();
  auto K = assembleKernel(C.Source, figure6Bindings());
  ASSERT_FALSE(static_cast<bool>(K)) << "expected failure for " << C.Name;
  EXPECT_NE(K.message().find(C.ExpectSubstr), std::string::npos)
      << "got: " << K.message();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AssemblerDiagTest,
    ::testing::Values(
        DiagCase{"UnknownMnemonic", "  frobnicate.8.dw vr0 = vr1\n",
                 "unknown mnemonic"},
        DiagCase{"UnknownSymbol", "  mov.1.dw vr0 = missing_var\n",
                 "unknown symbol"},
        DiagCase{"UndefinedLabel", "  jmp nowhere\n", "undefined label"},
        DiagCase{"PredicatedJmp", "  (p1) jmp out\nout:\n  halt\n",
                 "jmp takes no predicate prefix"},
        DiagCase{"PredicatedHalt", "  (!p0) halt\n",
                 "halt takes no predicate prefix"},
        DiagCase{"PredicatedSample",
                 "  (p2) sample.4.f [vr0..vr3] = (A, vr8, vr9)\n",
                 "sample takes no predicate prefix"},
        DiagCase{"PrefixedSel",
                 "  (p1) sel.1.dw p2, vr0 = vr1, vr2\n",
                 "names its predicate as an operand"},
        DiagCase{"DuplicateLabel", "x:\nx:\n  halt\n", "duplicate label"},
        DiagCase{"BadWidth", "  add.99.dw vr0 = vr1, vr2\n", "bad SIMD width"},
        DiagCase{"BadType", "  add.8.qq [vr0..vr7] = [vr8..vr15], 1\n",
                 "bad element type"},
        DiagCase{"MissingEquals", "  add.1.dw vr0 vr1, vr2\n", "expected '='"},
        DiagCase{"DescendingRange", "  mov.8.dw [vr9..vr2] = 0\n",
                 "descending"},
        DiagCase{"RangeWidthMismatch", "  mov.8.dw [vr0..vr3] = 0\n",
                 "registers"},
        DiagCase{"TrailingText", "  halt extra\n", "trailing"},
        DiagCase{"BadRegister", "  mov.1.dw vr999 = 0\n", "bad vector register"},
        DiagCase{"SurfaceOutsideMemOp", "  add.1.dw vr0 = A, 1\n",
                 "operand must be a register"},
        // Operands no opcode reads, and a sel result that is not one
        // register per lane.
        DiagCase{"MovTakesOneSource", "  mov.1.dw vr0 = vr1, vr2\n",
                 "trailing text"},
        DiagCase{"NotTakesOneSource", "  not.1.dw vr3 = vr1, 7\n",
                 "trailing text"},
        DiagCase{"AddTakesTwoSources", "  add.1.dw vr4 = vr1, vr2, vr9\n",
                 "trailing text"},
        DiagCase{"CmpTakesTwoSources", "  cmp.lt.1.dw p1 = vr1, vr2, vr5\n",
                 "trailing text"},
        DiagCase{"CvtTakesOneSource", "  cvt.1.f.dw vr6 = vr1, vr2, vr3\n",
                 "trailing text"},
        DiagCase{"SelDestinationPerLane",
                 "  sel.8.dw p1, vr0 = [vr8..vr15], 0\n",
                 "one register per lane"}),
    [](const ::testing::TestParamInfo<DiagCase> &Info) {
      return Info.param.Name;
    });

TEST(AssemblerDiagLineNumbers, PointAtOffendingLine) {
  auto K = assembleKernel("  nop\n  nop\n  bogus.1.dw vr0 = 1\n",
                          SymbolBindings());
  ASSERT_FALSE(static_cast<bool>(K));
  EXPECT_NE(K.message().find("line 3"), std::string::npos) << K.message();
}
