//===- tests/gma_ops_test.cpp - Systematic ISA operation semantics ------------===//
//
// For every ALU opcode and element type, runs a 4-wide instruction on the
// device over random register inputs and checks the result against an
// independent host-side reference of the documented semantics (64-bit
// intermediates, sign-extension to the element type, logical vs arithmetic
// shifts, saturating conversions, IEEE f32).
//
//===----------------------------------------------------------------------===//

#include "exo/ExoPlatform.h"
#include "support/Format.h"
#include "support/Random.h"
#include "xasm/Assembler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace exochi;
using namespace exochi::isa;

namespace {

/// One shred on a fresh platform. Surface 0 is `out` and surface 1 is
/// `in`, 64 elements each, backed by 512 bytes so `.df` accesses stay
/// inside the buffers.
struct LaneRig {
  LaneRig() {
    Binds.bindSurface("out", 0);
    Binds.bindSurface("in", 1);
  }

  exo::ExoPlatform P;
  exo::SharedBuffer Out = P.allocateShared(512, "out");
  exo::SharedBuffer In = P.allocateShared(512, "in");
  xasm::SymbolBindings Binds;

  /// Assembles \p Src and runs it with vr0.. preloaded from \p Params.
  bool run(const std::string &Src, const std::vector<int32_t> &Params) {
    auto K = xasm::assembleKernel(Src, Binds);
    EXPECT_TRUE(static_cast<bool>(K)) << K.message() << Src;
    if (!K)
      return false;
    gma::KernelImage Img;
    Img.Code = K->Code;
    uint32_t Kid = P.device().registerKernel(std::move(Img));

    auto Table = std::make_shared<gma::SurfaceTable>();
    for (const exo::SharedBuffer *B : {&Out, &In}) {
      gma::SurfaceBinding S;
      S.Base = B->Base;
      S.Width = 64;
      Table->push_back(S);
    }
    gma::ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = Params;
    D.Surfaces = Table;
    P.device().enqueueShred(std::move(D));
    auto Exit = P.device().run(0.0);
    EXPECT_TRUE(static_cast<bool>(Exit)) << Exit.message();
    return static_cast<bool>(Exit);
  }

  /// The first \p N dwords of `out`.
  std::vector<uint32_t> out(unsigned N) {
    std::vector<uint32_t> R(N);
    P.read(Out.Base, R.data(), N * 4);
    return R;
  }
};

/// Runs `OP.4.TY [vr8..vr11] = [vr0..vr3], [vr4..vr7]` (or unary) with the
/// given 8 input register values and returns vr8..vr11 after execution.
std::vector<uint32_t> runOp(const std::string &Mnemonic, bool Unary,
                            const std::vector<uint32_t> &Inputs) {
  std::string Src;
  if (Unary)
    Src = formatString("  %s [vr8..vr11] = [vr0..vr3]\n", Mnemonic.c_str());
  else
    Src = formatString("  %s [vr8..vr11] = [vr0..vr3], [vr4..vr7]\n",
                       Mnemonic.c_str());
  Src += "  mov.1.dw vr30 = 0\n"
         "  st.4.dw (out, vr30, 0) = [vr8..vr11]\n"
         "  halt\n";
  LaneRig R;
  R.run(Src, std::vector<int32_t>(Inputs.begin(), Inputs.end()));
  return R.out(4);
}

int64_t signExtendTo(int64_t V, ElemType Ty) {
  switch (Ty) {
  case ElemType::I8:
    return static_cast<int8_t>(V);
  case ElemType::I16:
    return static_cast<int16_t>(V);
  default:
    return static_cast<int32_t>(V);
  }
}

struct OpCase {
  const char *Base;
  bool Unary;
  /// Integer reference (64-bit intermediates, then sign-extend).
  int64_t (*IntRef)(int64_t, int64_t);
  /// Float reference (nullptr when the op is integer-only).
  float (*F32Ref)(float, float);
};

const OpCase Cases[] = {
    {"add", false, [](int64_t A, int64_t B) { return A + B; },
     [](float A, float B) { return A + B; }},
    {"sub", false, [](int64_t A, int64_t B) { return A - B; },
     [](float A, float B) { return A - B; }},
    {"mul", false, [](int64_t A, int64_t B) { return A * B; },
     [](float A, float B) { return A * B; }},
    {"min", false,
     [](int64_t A, int64_t B) { return std::min(A, B); },
     [](float A, float B) { return std::min(A, B); }},
    {"max", false,
     [](int64_t A, int64_t B) { return std::max(A, B); },
     [](float A, float B) { return std::max(A, B); }},
    {"avg", false,
     [](int64_t A, int64_t B) { return (A + B + 1) >> 1; },
     [](float A, float B) { return (A + B) * 0.5f; }},
    {"abs", true, [](int64_t A, int64_t) { return A < 0 ? -A : A; },
     [](float A, float) { return std::fabs(A); }},
    {"and", false, [](int64_t A, int64_t B) { return A & B; }, nullptr},
    {"or", false, [](int64_t A, int64_t B) { return A | B; }, nullptr},
    {"xor", false, [](int64_t A, int64_t B) { return A ^ B; }, nullptr},
    {"not", true, [](int64_t A, int64_t) { return ~A; }, nullptr},
    {"shl", false, [](int64_t A, int64_t B) { return A << (B & 31); },
     nullptr},
    {"shr", false,
     [](int64_t A, int64_t B) {
       return static_cast<int64_t>(static_cast<uint32_t>(A) >> (B & 31));
     },
     nullptr},
    {"asr", false,
     [](int64_t A, int64_t B) {
       return static_cast<int64_t>(static_cast<int32_t>(A) >> (B & 31));
     },
     nullptr},
    {"mov", true, [](int64_t A, int64_t) { return A; },
     [](float A, float) { return A; }},
};

/// Without a PrintTo, gtest prints a case as its raw bytes, and the
/// discovered ctest names include that print; the names are kept as they
/// have been. The three explicit zero bytes after Ty leave the compiler
/// no padding there, whose contents would differ between builds.
struct TypedCase {
  unsigned OpIdx;
  ElemType Ty;
  uint8_t Zero[3] = {};
};

std::vector<TypedCase> allTypedCases() {
  std::vector<TypedCase> Out;
  const ElemType IntTys[] = {ElemType::I8, ElemType::I16, ElemType::I32};
  for (unsigned K = 0; K < std::size(Cases); ++K) {
    for (ElemType Ty : IntTys)
      Out.push_back({K, Ty});
    if (Cases[K].F32Ref)
      Out.push_back({K, ElemType::F32});
  }
  return Out;
}

std::string typedCaseName(const ::testing::TestParamInfo<TypedCase> &Info) {
  return formatString("%s_%s", Cases[Info.param.OpIdx].Base,
                      Info.param.Ty == ElemType::F32
                          ? "f"
                          : elemTypeName(Info.param.Ty));
}

} // namespace

class OpSemanticsTest : public ::testing::TestWithParam<TypedCase> {};

TEST_P(OpSemanticsTest, MatchesReference) {
  const OpCase &C = Cases[GetParam().OpIdx];
  ElemType Ty = GetParam().Ty;
  std::string Mnemonic =
      formatString("%s.4.%s", C.Base, elemTypeName(Ty));

  Rng R(0xd00d + GetParam().OpIdx * 131 + static_cast<unsigned>(Ty));
  for (unsigned Trial = 0; Trial < 8; ++Trial) {
    std::vector<uint32_t> In(8);
    for (auto &V : In) {
      if (Ty == ElemType::F32) {
        float F = static_cast<float>(R.nextInRange(-1000, 1000)) * 0.25f;
        std::memcpy(&V, &F, 4);
      } else {
        // Values pre-sign-extended to the element type, as the ABI and
        // prior typed instructions would leave them.
        V = static_cast<uint32_t>(
            signExtendTo(static_cast<int64_t>(R.next()), Ty));
      }
    }

    auto Got = runOp(Mnemonic, C.Unary, In);
    for (unsigned L = 0; L < 4; ++L) {
      if (Ty == ElemType::F32) {
        float A, B, G;
        std::memcpy(&A, &In[L], 4);
        std::memcpy(&B, &In[4 + L], 4);
        std::memcpy(&G, &Got[L], 4);
        float Want = C.F32Ref(A, B);
        EXPECT_EQ(std::memcmp(&G, &Want, 4), 0)
            << Mnemonic << " lane " << L << ": got " << G << " want "
            << Want;
      } else {
        int64_t A = static_cast<int32_t>(In[L]);
        int64_t B = static_cast<int32_t>(In[4 + L]);
        uint32_t Want = static_cast<uint32_t>(
            signExtendTo(C.IntRef(A, B), Ty));
        EXPECT_EQ(Got[L], Want)
            << Mnemonic << " lane " << L << " A=" << A << " B=" << B;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpSemanticsTest,
                         ::testing::ValuesIn(allTypedCases()),
                         typedCaseName);

//===----------------------------------------------------------------------===//
// Mac, Div, Cvt, Cmp and broadcast specifics
//===----------------------------------------------------------------------===//

TEST(OpSpecificsTest, MacAccumulates) {
  // vr8..vr11 start as params too: dst = dst + s0*s1.
  std::vector<uint32_t> In = {3, 4, 5, 6, 10, 20, 30, 40};
  auto Got = runOp("mac.4.dw", false, In);
  // Inputs map vr0..vr7; dst vr8..vr11 initialized to 0 (params only fill
  // vr0..vr7), so mac == mul here.
  EXPECT_EQ(Got[0], 30u);
  EXPECT_EQ(Got[3], 240u);
}

TEST(OpSpecificsTest, DivTruncatesTowardZero) {
  std::vector<uint32_t> In = {static_cast<uint32_t>(-7), 7,
                              static_cast<uint32_t>(-9), 100,
                              2, 2, 4, 7};
  auto Got = runOp("div.4.dw", false, In);
  EXPECT_EQ(static_cast<int32_t>(Got[0]), -3); // C++ trunc semantics
  EXPECT_EQ(static_cast<int32_t>(Got[1]), 3);
  EXPECT_EQ(static_cast<int32_t>(Got[2]), -2);
  EXPECT_EQ(static_cast<int32_t>(Got[3]), 14);
}

TEST(OpSpecificsTest, CvtSaturatesNarrowInteger) {
  LaneRig R;
  ASSERT_TRUE(R.run("  cvt.4.b.dw [vr8..vr11] = [vr0..vr3]\n"
                    "  mov.1.dw vr30 = 0\n"
                    "  st.4.dw (out, vr30, 0) = [vr8..vr11]\n"
                    "  halt\n",
                    {300, -300, 17, -128}));
  EXPECT_EQ(R.P.load<int32_t>(R.Out.Base + 0), 127);   // saturated up
  EXPECT_EQ(R.P.load<int32_t>(R.Out.Base + 4), -128);  // saturated down
  EXPECT_EQ(R.P.load<int32_t>(R.Out.Base + 8), 17);    // in range
  EXPECT_EQ(R.P.load<int32_t>(R.Out.Base + 12), -128); // boundary
}

TEST(OpSpecificsTest, CvtFloatIntRoundTrip) {
  std::vector<uint32_t> In(8, 0);
  float F = -2.75f;
  std::memcpy(&In[0], &F, 4);
  // cvt.4.dw.f truncates toward zero.
  auto Got = runOp("cvt.4.dw.f", true, In);
  EXPECT_EQ(static_cast<int32_t>(Got[0]), -2);
}

TEST(OpSpecificsTest, ScalarBroadcastAppliesToAllLanes) {
  LaneRig R;
  R.Binds.bindScalar("k", 4);
  // vr4 = k = 7.
  ASSERT_TRUE(R.run("  add.4.dw [vr8..vr11] = [vr0..vr3], k\n"
                    "  mov.1.dw vr30 = 0\n"
                    "  st.4.dw (out, vr30, 0) = [vr8..vr11]\n"
                    "  halt\n",
                    {10, 20, 30, 40, 7}));
  EXPECT_EQ(R.P.load<int32_t>(R.Out.Base + 0), 17);
  EXPECT_EQ(R.P.load<int32_t>(R.Out.Base + 12), 47);
}

TEST(OpSpecificsTest, CmpConditionsPerLane) {
  for (auto [Cond, Expect] :
       std::vector<std::pair<const char *, std::array<int, 4>>>{
           {"eq", {0, 1, 0, 0}},
           {"ne", {1, 0, 1, 1}},
           {"lt", {1, 0, 0, 0}},
           {"le", {1, 1, 0, 0}},
           {"gt", {0, 0, 1, 1}},
           {"ge", {0, 1, 1, 1}}}) {
    std::string Src =
        formatString("  cmp.%s.4.dw p1 = [vr0..vr3], [vr4..vr7]\n", Cond);
    Src += "  mov.4.dw [vr8..vr11] = 0\n"
           "  sel.4.dw p1, [vr8..vr11] = 1, 0\n"
           "  mov.1.dw vr30 = 0\n"
           "  st.4.dw (out, vr30, 0) = [vr8..vr11]\n"
           "  halt\n";
    LaneRig R;
    // Lanes: <, ==, >, >.
    ASSERT_TRUE(R.run(Src, {1, 5, 9, 100, 2, 5, 3, 50}));
    for (unsigned L = 0; L < 4; ++L)
      EXPECT_EQ(R.P.load<int32_t>(R.Out.Base + L * 4), Expect[L])
          << Cond << " lane " << L;
  }
}

TEST(OpSpecificsTest, NarrowTypesWrapInStores) {
  // I16 add wraps mod 2^16 and stores sign-extended registers whose low
  // bytes hit memory.
  std::vector<uint32_t> In = {0x7fff, 0xffff8000u, 0, 0,
                              1, static_cast<uint32_t>(-1), 0, 0};
  auto Got = runOp("add.4.w", false, In);
  EXPECT_EQ(static_cast<int32_t>(Got[0]), -32768); // 0x7fff+1 wraps
  EXPECT_EQ(static_cast<int32_t>(Got[1]), 0x7fff); // -32768-1 wraps
}

//===----------------------------------------------------------------------===//
// Lane masks, operand forms and lane order
//===----------------------------------------------------------------------===//

namespace {

int32_t bitsOf(float F) {
  int32_t B;
  std::memcpy(&B, &F, 4);
  return B;
}

uint32_t ubitsOf(float F) { return static_cast<uint32_t>(bitsOf(F)); }

std::vector<int32_t> iota(unsigned N, int32_t First = 0) {
  std::vector<int32_t> V(N);
  for (unsigned K = 0; K < N; ++K)
    V[K] = First + static_cast<int32_t>(K);
  return V;
}

} // namespace

TEST(LaneLoopTest, PredicatedLanesKeepOldValues) {
  LaneRig R;
  ASSERT_TRUE(R.run("  cmp.lt.8.dw p1 = [vr0..vr7], 4\n"
                    "  mov.8.dw [vr8..vr15] = 100\n"
                    "  mov.8.dw [vr16..vr23] = 200\n"
                    "  mov.8.f [vr24..vr31] = 1.5\n"
                    "  (p1) add.8.dw [vr8..vr15] = [vr0..vr7], 10\n"
                    "  (!p1) sub.8.dw [vr16..vr23] = [vr0..vr7], 20\n"
                    "  (!p1) mul.8.f [vr24..vr31] = [vr24..vr31], 2.0\n"
                    "  mov.1.dw vr32 = 0\n"
                    "  st.16.dw (out, vr32, 0) = [vr8..vr23]\n"
                    "  st.8.dw (out, vr32, 16) = [vr24..vr31]\n"
                    "  halt\n",
                    iota(8)));
  auto Got = R.out(24);
  for (unsigned L = 0; L < 8; ++L) {
    bool On = L < 4;
    EXPECT_EQ(static_cast<int32_t>(Got[L]), On ? int32_t(L) + 10 : 100) << L;
    EXPECT_EQ(static_cast<int32_t>(Got[8 + L]), On ? 200 : int32_t(L) - 20)
        << L;
    EXPECT_EQ(Got[16 + L], ubitsOf(On ? 1.5f : 3.0f)) << L;
  }
}

TEST(LaneLoopTest, ImmediateAndBroadcastSources) {
  LaneRig R;
  ASSERT_TRUE(R.run("  sub.4.dw [vr8..vr11] = 5, [vr0..vr3]\n"
                    "  mul.4.dw [vr12..vr15] = [vr0..vr3], vr4\n"
                    "  sub.4.dw [vr16..vr19] = vr4, [vr0..vr3]\n"
                    "  cvt.4.f.dw [vr24..vr27] = [vr0..vr3]\n"
                    "  add.4.f [vr20..vr23] = [vr24..vr27], 0.25\n"
                    "  max.4.dw [vr28..vr31] = vr4, 3\n"
                    "  mul.4.f [vr32..vr35] = vr24, 2.0\n"
                    "  mov.1.dw vr40 = 0\n"
                    "  st.16.dw (out, vr40, 0) = [vr8..vr23]\n"
                    "  st.4.dw (out, vr40, 16) = [vr28..vr31]\n"
                    "  st.4.dw (out, vr40, 20) = [vr32..vr35]\n"
                    "  halt\n",
                    {1, 2, 3, -4, 7}));
  auto Got = R.out(24);
  const int32_t A[4] = {1, 2, 3, -4};
  for (unsigned L = 0; L < 4; ++L) {
    EXPECT_EQ(static_cast<int32_t>(Got[L]), 5 - A[L]) << L;
    EXPECT_EQ(static_cast<int32_t>(Got[4 + L]), A[L] * 7) << L;
    EXPECT_EQ(static_cast<int32_t>(Got[8 + L]), 7 - A[L]) << L;
    EXPECT_EQ(Got[12 + L], ubitsOf(static_cast<float>(A[L]) + 0.25f)) << L;
    EXPECT_EQ(static_cast<int32_t>(Got[16 + L]), 7) << L;
    EXPECT_EQ(Got[20 + L], ubitsOf(2.0f)) << L; // broadcast of vr24 = 1.0f
  }
}

TEST(LaneLoopTest, SixteenLanes) {
  LaneRig R;
  ASSERT_TRUE(R.run("  mul.16.dw [vr16..vr31] = [vr0..vr15], [vr0..vr15]\n"
                    "  cmp.ge.16.dw p2 = [vr0..vr15], 8\n"
                    "  (p2) add.16.dw [vr16..vr31] = [vr16..vr31], 1000\n"
                    "  (!p2) xor.16.dw [vr32..vr47] = [vr0..vr15], 255\n"
                    "  mov.1.dw vr48 = 0\n"
                    "  st.16.dw (out, vr48, 0) = [vr16..vr31]\n"
                    "  st.16.dw (out, vr48, 16) = [vr32..vr47]\n"
                    "  halt\n",
                    iota(16)));
  auto Got = R.out(32);
  for (unsigned L = 0; L < 16; ++L) {
    EXPECT_EQ(Got[L], L * L + (L >= 8 ? 1000u : 0u)) << L;
    EXPECT_EQ(Got[16 + L], L < 8 ? (L ^ 255u) : 0u) << L;
  }
}

TEST(LaneLoopTest, DstOverlapsSourceShiftedByOneLane) {
  // Lanes execute in order, each reading its sources before writing its
  // destination: with Dst one lane above Src0, every lane reads the value
  // the previous lane just wrote; one lane below, it reads the old one.
  std::vector<int32_t> Params = {10, 20, 30, 40, 50, 0, 0, 0, 0, 0,
                                 10, 20, 30, 40, 50, 0, 0, 0, 0, 0};
  Params.push_back(bitsOf(2.5f));
  for (int K = 0; K < 4; ++K)
    Params.push_back(bitsOf(static_cast<float>(K)));
  LaneRig R;
  ASSERT_TRUE(R.run("  add.4.dw [vr1..vr4] = [vr0..vr3], 1\n"
                    "  add.4.dw [vr10..vr13] = [vr11..vr14], 1\n"
                    "  mov.4.f [vr21..vr24] = [vr20..vr23]\n"
                    "  mov.1.dw vr40 = 0\n"
                    "  st.4.dw (out, vr40, 0) = [vr1..vr4]\n"
                    "  st.4.dw (out, vr40, 4) = [vr10..vr13]\n"
                    "  st.4.dw (out, vr40, 8) = [vr21..vr24]\n"
                    "  halt\n",
                    Params));
  auto Got = R.out(12);
  const uint32_t Up[4] = {11, 12, 13, 14}, Down[4] = {21, 31, 41, 51};
  for (unsigned L = 0; L < 4; ++L) {
    EXPECT_EQ(Got[L], Up[L]) << L;
    EXPECT_EQ(Got[4 + L], Down[L]) << L;
    EXPECT_EQ(Got[8 + L], ubitsOf(2.5f)) << L;
  }
}

TEST(LaneLoopTest, MacUnderPredicate) {
  std::vector<int32_t> Params = {2, 3, 4, 5, 10, 10, 10, 10,
                                 1, 1, 1, 1, 1, 0, 1, 0};
  for (int K = 0; K < 4; ++K)
    Params.push_back(bitsOf(0.5f));
  for (int K = 1; K <= 4; ++K)
    Params.push_back(bitsOf(static_cast<float>(K)));
  LaneRig R;
  ASSERT_TRUE(R.run("  cmp.ne.4.dw p1 = [vr12..vr15], 0\n"
                    "  (p1) mac.4.dw [vr8..vr11] = [vr0..vr3], [vr4..vr7]\n"
                    "  (!p1) mac.4.f [vr16..vr19] = [vr20..vr23], "
                    "[vr20..vr23]\n"
                    "  mov.1.dw vr40 = 0\n"
                    "  st.4.dw (out, vr40, 0) = [vr8..vr11]\n"
                    "  st.4.dw (out, vr40, 4) = [vr16..vr19]\n"
                    "  halt\n",
                    Params));
  auto Got = R.out(8);
  const uint32_t Int[4] = {21, 1, 41, 1};
  const float Flt[4] = {0.5f, 4.5f, 0.5f, 16.5f};
  for (unsigned L = 0; L < 4; ++L) {
    EXPECT_EQ(Got[L], Int[L]) << L;
    EXPECT_EQ(Got[4 + L], ubitsOf(Flt[L])) << L;
  }
}

TEST(LaneLoopTest, NarrowTypesWrap) {
  LaneRig R;
  ASSERT_TRUE(R.run("  add.4.b [vr8..vr11] = [vr0..vr3], 1\n"
                    "  sub.4.b [vr12..vr15] = [vr0..vr3], 1\n"
                    "  mul.4.w [vr16..vr19] = [vr4..vr7], [vr4..vr7]\n"
                    "  shl.4.b [vr20..vr23] = [vr0..vr3], 1\n"
                    "  abs.4.b [vr24..vr27] = [vr0..vr3]\n"
                    "  shr.4.w [vr28..vr31] = [vr4..vr7], 4\n"
                    "  not.4.w [vr32..vr35] = [vr4..vr7]\n"
                    "  avg.4.b [vr36..vr39] = [vr0..vr3], [vr0..vr3]\n"
                    "  mov.1.dw vr40 = 0\n"
                    "  st.16.dw (out, vr40, 0) = [vr8..vr23]\n"
                    "  st.16.dw (out, vr40, 16) = [vr24..vr39]\n"
                    "  halt\n",
                    {127, -128, -1, 5, 300, -32768, 181, 256}));
  auto Got = R.out(32);
  const int32_t Want[32] = {
      -128, -127, 0,     6,   // add.b
      126,  127,  -2,    4,   // sub.b
      24464, 0,   32761, 0,   // mul.w
      -2,   0,    -2,    10,  // shl.b
      127,  -128, 1,     5,   // abs.b
      18,   -2048, 11,   16,  // shr.w: logical on the 32-bit register
      -301, 32767, -182, -257, // not.w
      127,  -128, -1,    5};  // avg.b
  for (unsigned K = 0; K < 32; ++K)
    EXPECT_EQ(static_cast<int32_t>(Got[K]), Want[K]) << K;
}

TEST(LaneLoopTest, DivByZeroInMiddleLaneGoesThroughCeh) {
  // Lane 2 divides by zero. The device writes lanes 0 and 1, then raises
  // DivideByZero; the CEH handler re-executes the whole instruction with
  // zero in the offending lane. The second div overwrites its own
  // dividend, so the handler reads lanes 0 and 1 already divided once.
  LaneRig R;
  R.P.proxy().setDivZeroPolicy(gma::DivZeroPolicy::WriteZero);
  ASSERT_TRUE(R.run("  div.4.dw [vr8..vr11] = [vr0..vr3], [vr4..vr7]\n"
                    "  div.4.dw [vr0..vr3] = [vr0..vr3], [vr4..vr7]\n"
                    "  mov.1.dw vr40 = 0\n"
                    "  st.4.dw (out, vr40, 0) = [vr8..vr11]\n"
                    "  st.4.dw (out, vr40, 4) = [vr0..vr3]\n"
                    "  halt\n",
                    {100, -50, 7, 9, 10, 5, 0, 2}));
  auto Got = R.out(8);
  const int32_t Want[8] = {10, -10, 0, 4, 1, -2, 0, 4};
  for (unsigned K = 0; K < 8; ++K)
    EXPECT_EQ(static_cast<int32_t>(Got[K]), Want[K]) << K;
  EXPECT_EQ(R.P.proxy().stats().DivZeroHandled, 2u);
  EXPECT_EQ(R.P.device().stats().ExceptionsHandled, 2u);
}

TEST(LaneLoopTest, PredicatedStoreAndLoad) {
  LaneRig R;
  std::vector<uint32_t> Fill(128, 0x55555555u);
  R.P.write(R.Out.Base, Fill.data(), 512);
  uint8_t InBytes[512];
  for (unsigned K = 0; K < 512; ++K)
    InBytes[K] = static_cast<uint8_t>(K * 37 + 11);
  R.P.write(R.In.Base, InBytes, 512);

  ASSERT_TRUE(R.run("  cmp.lt.8.dw p2 = [vr0..vr7], 4\n"
                    "  mov.8.dw [vr8..vr15] = 7\n"
                    "  mov.1.dw vr40 = 0\n"
                    "  (p2) st.8.dw (out, vr40, 0) = [vr8..vr15]\n"
                    "  mov.8.dw [vr16..vr23] = -1\n"
                    "  (!p2) ld.8.dw [vr16..vr23] = (in, vr40, 0)\n"
                    "  st.8.dw (out, vr40, 8) = [vr16..vr23]\n"
                    "  (p2) st.8.w (out, vr40, 32) = [vr0..vr7]\n"
                    "  ld.4.b [vr24..vr27] = (in, vr40, 50)\n"
                    "  (p2) ld.4.w [vr28..vr31] = (in, vr40, 9)\n"
                    "  st.8.dw (out, vr40, 24) = [vr24..vr31]\n"
                    "  halt\n",
                    iota(8)));
  auto Got = R.out(32);
  auto InDword = [&](unsigned Idx) {
    uint32_t V;
    std::memcpy(&V, InBytes + 4 * Idx, 4);
    return V;
  };
  for (unsigned L = 0; L < 8; ++L) {
    EXPECT_EQ(Got[L], L < 4 ? 7u : 0x55555555u) << L;
    EXPECT_EQ(Got[8 + L], L < 4 ? 0xffffffffu : InDword(L)) << L;
  }
  // st.8.w at element 32 = byte 64 = dword 16: lanes 0-3 write 0..3.
  EXPECT_EQ(Got[16], 0x00010000u);
  EXPECT_EQ(Got[17], 0x00030002u);
  EXPECT_EQ(Got[18], 0x55555555u);
  EXPECT_EQ(Got[19], 0x55555555u);
  for (unsigned L = 0; L < 4; ++L) {
    EXPECT_EQ(static_cast<int32_t>(Got[24 + L]),
              static_cast<int8_t>(InBytes[50 + L]))
        << L;
    int16_t W;
    std::memcpy(&W, InBytes + 2 * (9 + L), 2);
    EXPECT_EQ(static_cast<int32_t>(Got[28 + L]), W) << L;
  }
}

TEST(LaneLoopTest, DoubleLoadStorePair) {
  LaneRig R;
  std::vector<uint32_t> Fill(128, 0x55555555u);
  R.P.write(R.Out.Base, Fill.data(), 512);
  const double In[4] = {1.5, -2.25, 3.125, 1e300};
  R.P.write(R.In.Base, In, sizeof(In));

  std::vector<int32_t> Params(12, 9);
  Params[10] = 1;
  Params[11] = 0;
  ASSERT_TRUE(R.run("  mov.1.dw vr40 = 0\n"
                    "  ld.2.df [vr0..vr3] = (in, vr40, 1)\n"
                    "  st.2.df (out, vr40, 3) = [vr0..vr3]\n"
                    "  cmp.eq.2.dw p1 = [vr10..vr11], 1\n"
                    "  (p1) st.2.df (out, vr40, 6) = [vr0..vr3]\n"
                    "  (!p1) ld.2.df [vr4..vr7] = (in, vr40, 2)\n"
                    "  st.4.dw (out, vr40, 20) = [vr4..vr7]\n"
                    "  halt\n",
                    Params));
  double D[8];
  R.P.read(R.Out.Base, D, sizeof(D));
  EXPECT_EQ(D[3], In[1]);
  EXPECT_EQ(D[4], In[2]);
  EXPECT_EQ(D[6], In[1]);
  auto Got = R.out(24);
  EXPECT_EQ(Got[14], 0x55555555u); // lane 1 of the predicated store
  EXPECT_EQ(Got[15], 0x55555555u);
  // Lane 0 of the predicated load keeps its parameters; lane 1 loads In[3].
  uint32_t Hi[2];
  std::memcpy(Hi, &In[3], 8);
  EXPECT_EQ(Got[20], 9u);
  EXPECT_EQ(Got[21], 9u);
  EXPECT_EQ(Got[22], Hi[0]);
  EXPECT_EQ(Got[23], Hi[1]);
}
